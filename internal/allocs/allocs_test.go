package allocs

import "testing"

var sink []byte

// TestAllocations reads a path of known cost: two 1 KiB objects a call of
// two operations, after a preparation step whose 4 KiB stays out of the
// reading.
func TestAllocations(t *testing.T) {
	l := Open(t)
	l.Measure("make/1KiB", Op{
		Calls:   100,
		Per:     2,
		Prepare: func() { sink = make([]byte, 4096) },
		Do: func() {
			sink = make([]byte, 1024)
			sink = make([]byte, 1024)
		},
	})
}

// TestPartialLedger holds one path of the file: Measure passes over any
// other without calling it.
func TestPartialLedger(t *testing.T) {
	l := Open(t, "make/1KiB")
	l.Measure("make/1KiB", Op{Calls: 100, Do: func() { sink = make([]byte, 1024) }})
	if _, calls := l.Measure("not held", Op{Calls: 1, Do: func() { t.Fatal("a path the ledger does not hold was called") }}); calls != nil {
		t.Errorf("a path the ledger does not hold returned %d calls' totals", len(calls))
	}
}
