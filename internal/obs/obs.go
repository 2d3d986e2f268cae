// Package obs is the service-level tracing substrate: a lightweight
// span tree recorded per HTTP request / executed run, the counterpart of
// internal/events' cycle-level recorder one layer up the stack. A Trace
// is a flat append-only slice of Spans (parent by index), so recording a
// span is a mutex acquire plus one append into a pre-grown slice — cheap
// enough to be always on, in keeping with the metrics/events idiom that
// disabled-or-idle instrumentation costs ~nothing.
//
// Time is microseconds since the trace's epoch. Serving spans measure
// wall time (admission-queue wait, store I/O, simulation), unlike
// internal/events where 1 us encodes 1 simulated cycle; the Perfetto
// export (WriteChrome) makes both kinds load in the same viewer.
//
// Every method is safe on a nil *Trace (no-op / zero), so producers
// instrument unconditionally and the caller decides whether a trace
// exists. Context carries a (*Trace, parent SpanID) pair across layer
// boundaries — serve.execute hands it to experiments.SimulateWith,
// which records its kernel-load/build/run children without importing serve.
package obs

import (
	"context"
	"slices"
	"sync"
	"time"
)

// SpanID indexes a span within its trace. The root is always span 0.
type SpanID int32

// NoSpan is the nil span reference: the root's parent, and the id
// returned by Start on a nil trace. Ending it is a no-op.
const NoSpan SpanID = -1

// Root is the root span's id in every trace.
const Root SpanID = 0

// Span is one recorded interval. Start/End are microseconds since the
// trace epoch; End is -1 while the span is open.
type Span struct {
	Name   string
	Parent SpanID
	Start  int64
	End    int64
}

// Trace is one request's or run's span tree. Create with NewTrace; all
// methods are goroutine-safe and nil-safe.
type Trace struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace opens a trace whose root span is named root and starts at
// microsecond 0 (the epoch is captured now), with room for 8 spans.
func NewTrace(root string) *Trace { return NewTraceCap(root, 8) }

// NewTraceCap is NewTrace with room for n spans, the root included: a
// producer that knows how many spans it records sizes the trace once.
func NewTraceCap(root string, n int) *Trace {
	t := &Trace{epoch: time.Now(), spans: make([]Span, 1, max(n, 1))}
	t.spans[0] = Span{Name: root, Parent: NoSpan, Start: 0, End: -1}
	return t
}

// Grow makes room for n more spans in at most one allocation, for a
// producer that learns part-way how many more it will record.
func (t *Trace) Grow(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = slices.Grow(t.spans, n)
	t.mu.Unlock()
}

// Now returns the current trace time in microseconds since the epoch
// (0 on a nil trace). Callers that need adjacent spans to tile exactly
// read Now once and pass the value to EndAt/StartAt for both.
func (t *Trace) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch) / time.Microsecond)
}

// StartAt opens a child of parent at the given trace time.
func (t *Trace) StartAt(parent SpanID, name string, at int64) SpanID {
	if t == nil {
		return NoSpan
	}
	t.mu.Lock()
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: at, End: -1})
	t.mu.Unlock()
	return id
}

// Start opens a child of parent now.
func (t *Trace) Start(parent SpanID, name string) SpanID {
	return t.StartAt(parent, name, t.Now())
}

// EndAt closes span id at the given trace time. Closing NoSpan, an
// unknown id, or an already-closed span is a no-op.
func (t *Trace) EndAt(id SpanID, at int64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) && t.spans[id].End < 0 {
		t.spans[id].End = at
	}
	t.mu.Unlock()
}

// End closes span id now.
func (t *Trace) End(id SpanID) { t.EndAt(id, t.Now()) }

// CloseAt ends the root span at the given trace time; Close ends it now.
// A closed trace may still be read concurrently while later submissions
// of the same run fetch it.
func (t *Trace) CloseAt(at int64) { t.EndAt(Root, at) }

// Close ends the root span now.
func (t *Trace) Close() { t.EndAt(Root, t.Now()) }

// StartOf returns span id's start time (0 if unknown).
func (t *Trace) StartOf(id SpanID) int64 {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.spans) {
		return 0
	}
	return t.spans[id].Start
}

// Spans returns a copy of the recorded spans in creation order (index ==
// SpanID). Open spans have End == -1.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Node is the JSON rendering of a span subtree (GET /v1/runs/{id}/trace).
type Node struct {
	Name     string  `json:"name"`
	StartUS  int64   `json:"start_us"`
	DurUS    int64   `json:"dur_us"`
	Children []*Node `json:"children,omitempty"`
}

// Tree renders the trace as a root Node with children in creation order.
// Open spans render with the duration they had reached at the call.
func (t *Trace) Tree() *Node {
	spans := t.Spans()
	if len(spans) == 0 {
		return nil
	}
	now := t.Now()
	nodes := make([]*Node, len(spans))
	for i, sp := range spans {
		end := sp.End
		if end < 0 {
			end = now
		}
		nodes[i] = &Node{Name: sp.Name, StartUS: sp.Start, DurUS: end - sp.Start}
	}
	for i, sp := range spans {
		if sp.Parent >= 0 && int(sp.Parent) < len(nodes) {
			p := nodes[sp.Parent]
			p.Children = append(p.Children, nodes[i])
		}
	}
	return nodes[0]
}

// ctxKey carries the (trace, parent span) pair through a context.
type ctxKey struct{}

type ctxVal struct {
	t      *Trace
	parent SpanID
}

// NewContext returns ctx carrying t with parent as the attachment point
// for child spans recorded downstream. A nil t is carried as-is (readers
// get the nil trace and record nothing).
func NewContext(ctx context.Context, t *Trace, parent SpanID) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxVal{t: t, parent: parent})
}

// FromContext returns the trace and parent span carried by ctx, or
// (nil, NoSpan) when ctx carries none — safe to use directly with the
// nil-tolerant Trace methods.
func FromContext(ctx context.Context) (*Trace, SpanID) {
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.t, v.parent
	}
	return nil, NoSpan
}
