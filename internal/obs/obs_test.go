package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if got := tr.Now(); got != 0 {
		t.Fatalf("nil Now = %d", got)
	}
	id := tr.Start(Root, "x")
	if id != NoSpan {
		t.Fatalf("nil Start = %d, want NoSpan", id)
	}
	tr.End(id)
	tr.Close()
	if tr.Spans() != nil || tr.Tree() != nil {
		t.Fatal("nil trace produced spans")
	}
}

func TestSpanTreeAndTiling(t *testing.T) {
	tr := NewTrace("run")
	// Boundaries shared between adjacent children, the serve idiom.
	q := tr.StartAt(Root, "queue", 0)
	tr.EndAt(q, 10)
	g := tr.StartAt(Root, "store-get", 10)
	tr.EndAt(g, 25)
	sim := tr.StartAt(Root, "simulate", 25)
	kl := tr.StartAt(sim, "kernel-load", 26)
	tr.EndAt(kl, 30)
	tr.EndAt(sim, 90)
	tr.CloseAt(90)

	root := tr.Tree()
	if root == nil || root.Name != "run" || root.DurUS != 90 {
		t.Fatalf("bad root: %+v", root)
	}
	if len(root.Children) != 3 {
		t.Fatalf("root children = %d, want 3", len(root.Children))
	}
	at := root.StartUS
	for _, c := range root.Children {
		if c.StartUS != at {
			t.Fatalf("child %q starts at %d, want %d (no tiling)", c.Name, c.StartUS, at)
		}
		at = c.StartUS + c.DurUS
	}
	if at != root.StartUS+root.DurUS {
		t.Fatalf("children end at %d, root ends at %d", at, root.StartUS+root.DurUS)
	}
	if len(root.Children[2].Children) != 1 || root.Children[2].Children[0].Name != "kernel-load" {
		t.Fatalf("nested child missing: %+v", root.Children[2])
	}
	// Double-close must not move the end.
	tr.CloseAt(400)
	if got := tr.Spans()[0].End; got != 90 {
		t.Fatalf("root end moved to %d after double close", got)
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr := NewTrace("run")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := tr.Start(Root, "child")
				tr.End(id)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 1+800 {
		t.Fatalf("spans = %d, want 801", got)
	}
}

func TestContextPropagation(t *testing.T) {
	if tr, parent := FromContext(context.Background()); tr != nil || parent != NoSpan {
		t.Fatalf("empty context returned %v, %d", tr, parent)
	}
	tr := NewTrace("run")
	sim := tr.Start(Root, "simulate")
	ctx := NewContext(context.Background(), tr, sim)
	got, parent := FromContext(ctx)
	if got != tr || parent != sim {
		t.Fatalf("round trip lost the pair: %v %d", got, parent)
	}
	// A nil trace carried through a context stays nil-safe downstream.
	ctx = NewContext(context.Background(), nil, NoSpan)
	got, parent = FromContext(ctx)
	if got != nil || parent != NoSpan {
		t.Fatalf("nil carry = %v %d", got, parent)
	}
	if id := got.Start(parent, "x"); id != NoSpan {
		t.Fatalf("nil-carried trace recorded %d", id)
	}
}

func TestWriteChromeParses(t *testing.T) {
	tr := NewTrace("run")
	q := tr.StartAt(Root, "queue", 0)
	tr.EndAt(q, 5)
	tr.CloseAt(5)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, "run abc"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData   map[string]any   `json:"otherData"`
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.OtherData["kind"] != "service-trace" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
	// 1 process_name meta + 2 spans.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(doc.TraceEvents))
	}
}
