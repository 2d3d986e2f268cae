package obs

import (
	"testing"

	"repro/internal/allocs"
)

// TestAllocations holds a sized trace to testdata/allocs.txt: one made with
// room for 3 spans records 3, root included, in two objects — the trace
// and its spans (trace/sized) — and Grow makes room for 4 more in one
// allocation (trace/grown).
func TestAllocations(t *testing.T) {
	l := allocs.Open(t)
	record := func(tr *Trace, n int) {
		for i := 0; i < n; i++ {
			tr.EndAt(tr.StartAt(Root, "child", int64(i)), int64(i))
		}
	}
	l.Measure("trace/sized", allocs.Op{Calls: 100, Do: func() {
		traceSink = NewTraceCap("run", 3)
		record(traceSink, 2)
	}})
	l.Measure("trace/grown", allocs.Op{Calls: 100, Do: func() {
		traceSink = NewTraceCap("run", 3)
		record(traceSink, 2)
		traceSink.Grow(4)
		record(traceSink, 4)
	}})
	if n := len(traceSink.Spans()); n != 7 {
		t.Fatalf("spans = %d, want 7", n)
	}
}

// traceSink keeps the traces the test makes on the heap, as a server's jobs
// keep theirs.
var traceSink *Trace
