// Package metrics is the simulator's observability substrate: a
// lightweight registry of named event counters, gauges, and histograms
// with a snapshot/diff API and per-window delta export.
//
// Design constraints (this package sits under every hot simulation loop):
//
//   - Counting is allocation-free, and a counter is spelled once. A
//     simulation's counter is a plain uint64 field of its owner's
//     statistics struct, written `stats.X++`; a `metric:"name"` tag on the
//     field makes it a cell, and the registry holds a view of it (Fields
//     binds a struct's tagged fields, Bind one word). The serving layer
//     counts from many goroutines, so its cells are owned ones behind an
//     AtomicCounter or Histogram handle: a nil check plus an atomic add.
//     Registration (done once, at construction) is the only place that
//     allocates.
//   - The zero value of every handle is a safe no-op, and a nil registry
//     binds nothing, so code compiled with instrumentation pays at most
//     one predictable branch when the registry is absent.
//   - A Registry belongs to one simulation and is driven from a single
//     goroutine (the simulator is deterministic and single-threaded per
//     SM); cross-simulation aggregation happens at the export layer
//     (JSONLWriter serializes emits from concurrent simulations).
//
// Gauges are sampled only at snapshot/window boundaries, which makes
// occupancy-style metrics (queue depths, cache residency) free during
// simulation; a component registers its gauges as one Sampler (Gauges),
// held by pointer, so registering them allocates no closure per gauge per
// run.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
)

// Kind classifies a registered cell for export.
type Kind uint8

const (
	// KindCounter cells accumulate monotonically; windows export deltas.
	KindCounter Kind = iota
	// KindGauge cells are sampled at snapshot time; windows export the
	// sampled value, not a delta.
	KindGauge
)

type cell struct {
	name string
	// val backs counters (owned or bound); nil for gauges.
	val *uint64
	// src backs gauges: the cell reads its idx-th.
	src  Sampler
	idx  int32
	kind Kind
	// atomic marks cells incremented from concurrent goroutines
	// (AtomicCounter); registry reads then use atomic loads.
	atomic bool
}

// load reads a counter cell, honoring the atomic discipline of cells that
// are counted from concurrent goroutines.
func (c *cell) load() uint64 {
	if c.atomic {
		return atomic.LoadUint64(c.val)
	}
	return *c.val
}

// Registry is an ordered collection of named instruments. Instruments are
// registered once (names must be unique) and then counted against with no
// further lookups. The registry is not goroutine-safe: one registry per
// simulation, driven from the simulation's goroutine.
type Registry struct {
	// a is what the registry, its cell table, its owned counter words and
	// its window buffers are made from (nil: the heap).
	a     *arena.Arena
	cells []cell
	// index maps a name to its cell. Only Value reads it, and a
	// simulation's few hundred names are looked up rarely or never, so it
	// is built on the first Value call (or CheckNames) and kept current
	// from then on.
	index     map[string]int
	indexOnce sync.Once
	// hists records each histogram's shape (bounds + first cell index) so
	// exporters that need family structure (Prometheus text format) can
	// reassemble buckets from the flat cell list.
	hists []histMeta

	sink     Sink
	window   int
	winStart uint64
	// last holds each counter cell's value at the previous window close,
	// in cell order; scratch is the reused delta buffer handed to sinks;
	// winNames/winKinds are the frozen header built at SetSink.
	last     []uint64
	scratch  []uint64
	winNames []string
	winKinds []Kind
}

// NewRegistry returns an empty registry, with the registry and
// everything it comes to own allocated from a (nil: the heap). Names,
// samplers and the sink stay the caller's.
func NewRegistry(a *arena.Arena) *Registry {
	r := arena.New[Registry](a)
	r.a = a
	return r
}

func (r *Registry) register(c cell) int {
	if r.last != nil {
		panic(fmt.Sprintf("metrics: registration of %q after SetSink", c.name))
	}
	if r.index != nil {
		r.indexCell(c.name, len(r.cells))
	}
	r.cells = append(arena.Grow(r.a, r.cells, 1), c)
	return len(r.cells) - 1
}

// Reserve makes room for n more cells, for a registry whose owner knows
// how many it registers: the cell table then grows once, not by doubling.
// A nil registry ignores the call.
func (r *Registry) Reserve(n int) {
	if r == nil {
		return
	}
	r.cells = arena.Grow(r.a, r.cells, n)
}

func (r *Registry) indexCell(name string, i int) {
	if _, dup := r.index[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.index[name] = i
}

// CheckNames panics if a name was registered twice. Registration itself
// does not look: the check needs the name index, which is built here and
// on the first Value call (once, whichever goroutines make it) — whoever
// attaches a sanitizer calls this, so every sanitized run holds its names
// to it.
func (r *Registry) CheckNames() {
	if r == nil {
		return
	}
	r.indexOnce.Do(func() {
		r.index = make(map[string]int, len(r.cells))
		for i := range r.cells {
			r.indexCell(r.cells[i].name, i)
		}
	})
}

// AtomicCounter registers an owned counter cell whose increments are safe
// from concurrent goroutines. Names must be unique (CheckNames). A
// simulation never needs this (one registry, one goroutine, counters that
// are struct fields under Bind); the serving layer does — request handlers
// and pool workers count hits, misses, and admissions concurrently while
// a metrics loop snapshots and closes windows. Reads of an atomic cell
// (Value, Snapshot, CloseWindow) use atomic loads, so counting never
// races export.
func (r *Registry) AtomicCounter(name string) AtomicCounter {
	if r == nil {
		return AtomicCounter{}
	}
	v := arena.New[uint64](r.a)
	r.register(cell{name: name, kind: KindCounter, val: v, atomic: true})
	return AtomicCounter{v: v}
}

// Bind registers a counter view over an externally owned cell (a field of
// an existing statistics struct). The owner keeps incrementing the field
// directly — zero added cost on its hot path — while the registry gains
// snapshot/export visibility. A nil registry ignores the call.
func (r *Registry) Bind(name string, v *uint64) {
	if r == nil {
		return
	}
	r.register(cell{name: name, kind: KindCounter, val: v})
}

// Sampler is a component's gauges read through one pointer: Sample(i) is
// the current value of the i-th gauge it was registered with.
type Sampler interface {
	Sample(i int) uint64
}

// Gauges registers one sampled instrument per name, the i-th reading
// s.Sample(i) at snapshot and window boundaries only, never during
// counting. A nil registry ignores the call.
func (r *Registry) Gauges(s Sampler, names ...string) {
	if r == nil {
		return
	}
	for i, name := range names {
		r.register(cell{name: name, kind: KindGauge, src: s, idx: int32(i)})
	}
}

// histMeta is one histogram's registration record: its family name, the
// bucket bounds, the index of its first cell (buckets, then the overflow
// cell, then the sum cell, contiguously).
type histMeta struct {
	name   string
	bounds []uint64
	first  int
}

// AtomicHistogram registers a bucketed counter under name: one cell per
// bucket (`name/le_B` for each bound, `name/inf` for the overflow,
// `name/sum` for the running total of observed values), so histogram
// buckets ride through snapshots and windows like any counter. Bounds
// must be strictly increasing. Observations are safe from concurrent
// goroutines — the histogram counterpart of AtomicCounter, for
// serving-layer latency distributions observed from handlers and pool
// workers while the metrics loop exports. A nil registry returns the zero
// Histogram.
func (r *Registry) AtomicHistogram(name string, bounds ...uint64) Histogram {
	if r == nil {
		return Histogram{}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not increasing", name))
		}
	}
	first := len(r.cells)
	h := Histogram{bounds: bounds, cells: make([]*uint64, len(bounds)+1)}
	for i, b := range bounds {
		h.cells[i] = arena.New[uint64](r.a)
		r.register(cell{name: fmt.Sprintf("%s/le_%d", name, b), kind: KindCounter, val: h.cells[i], atomic: true})
	}
	h.cells[len(bounds)] = arena.New[uint64](r.a)
	r.register(cell{name: name + "/inf", kind: KindCounter, val: h.cells[len(bounds)], atomic: true})
	h.sum = arena.New[uint64](r.a)
	r.register(cell{name: name + "/sum", kind: KindCounter, val: h.sum, atomic: true})
	r.hists = append(r.hists, histMeta{name: name, bounds: bounds, first: first})
	return h
}

// AtomicCounter is a handle to one registered atomic cell. The zero value
// is a no-op: instrumented code pays one predictable branch when disabled.
type AtomicCounter struct {
	v *uint64
}

// Inc atomically adds one.
func (c AtomicCounter) Inc() {
	if c.v != nil {
		atomic.AddUint64(c.v, 1)
	}
}

// Add atomically adds n.
func (c AtomicCounter) Add(n uint64) {
	if c.v != nil {
		atomic.AddUint64(c.v, n)
	}
}

// Value atomically reads the current count (0 for the zero AtomicCounter).
func (c AtomicCounter) Value() uint64 {
	if c.v == nil {
		return 0
	}
	return atomic.LoadUint64(c.v)
}

// Histogram is a bucketed counter handle. The zero value is a no-op.
type Histogram struct {
	bounds []uint64
	cells  []*uint64
	sum    *uint64
}

// Observe records one sample of v into its bucket and the running sum.
func (h Histogram) Observe(v uint64) {
	if h.cells == nil {
		return
	}
	i := 0
	for ; i < len(h.bounds); i++ {
		if v <= h.bounds[i] {
			break
		}
	}
	atomic.AddUint64(h.cells[i], 1)
	atomic.AddUint64(h.sum, v)
}

// Sample is one named value in a snapshot.
type Sample struct {
	Name  string
	Kind  Kind
	Value uint64
}

// Len returns the number of registered cells (histograms count one per
// bucket).
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.cells)
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.cells))
	for i, c := range r.cells {
		out[i] = c.name
	}
	return out
}

// Value returns the current value of the named cell and whether it exists.
func (r *Registry) Value(name string) (uint64, bool) {
	if r == nil {
		return 0, false
	}
	r.CheckNames()
	i, ok := r.index[name]
	if !ok {
		return 0, false
	}
	return r.read(i), true
}

func (r *Registry) read(i int) uint64 {
	c := &r.cells[i]
	if c.kind == KindGauge {
		return c.src.Sample(int(c.idx))
	}
	return c.load()
}

// Snapshot captures every cell (gauges are sampled now) in registration
// order.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	out := make([]Sample, len(r.cells))
	for i, c := range r.cells {
		out[i] = Sample{Name: c.name, Kind: c.kind, Value: r.read(i)}
	}
	return out
}

// Diff returns cur minus prev by name: counters subtract (missing names in
// prev count from zero); gauges keep cur's sampled value. The result is
// sorted by name. Snapshots from different registries may be diffed as
// long as the shared names refer to the same instruments.
func Diff(cur, prev []Sample) []Sample {
	base := map[string]uint64{}
	for _, s := range prev {
		base[s.Name] = s.Value
	}
	out := make([]Sample, 0, len(cur))
	for _, s := range cur {
		d := s
		if s.Kind == KindCounter {
			d.Value = s.Value - base[s.Name]
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Window is one closed export interval. Names/Kinds/Values alias
// registry-owned buffers that are reused on the next close: sinks must
// consume (or copy) them before returning.
type Window struct {
	// Index is the 0-based window ordinal within this registry.
	Index int
	// Start and End delimit the interval in simulation cycles,
	// half-open as (Start, End].
	Start, End uint64
	Names      []string
	Kinds      []Kind
	// Values holds counter deltas since the previous close and sampled
	// gauge values, in registration order.
	Values []uint64
}

// Sink receives closed windows.
type Sink interface {
	Emit(w Window)
}

// SetSink installs the per-window export destination. Call before the
// first CloseWindow; installing a sink arms window tracking from the
// current cell values.
func (r *Registry) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.sink = s
	r.last = arena.Make[uint64](r.a, len(r.cells))
	r.winNames = arena.Make[string](r.a, len(r.cells))
	r.winKinds = arena.Make[Kind](r.a, len(r.cells))
	for i := range r.cells {
		c := &r.cells[i]
		if c.kind == KindCounter {
			r.last[i] = c.load()
		}
		r.winNames[i] = c.name
		r.winKinds[i] = c.kind
	}
	r.scratch = arena.Make[uint64](r.a, len(r.cells))
}

// HasSink reports whether a sink is installed — the simulator's one-branch
// guard around window bookkeeping.
func (r *Registry) HasSink() bool { return r != nil && r.sink != nil }

// CloseWindow emits the interval ending at cycle end to the sink and
// starts the next window. Without a sink it is a no-op. Empty intervals
// (end == previous close) are skipped.
func (r *Registry) CloseWindow(end uint64) {
	if r == nil || r.sink == nil || end == r.winStart {
		return
	}
	for i := range r.cells {
		c := &r.cells[i]
		if c.kind == KindGauge {
			r.scratch[i] = c.src.Sample(int(c.idx))
			continue
		}
		v := c.load()
		r.scratch[i] = v - r.last[i]
		r.last[i] = v
	}
	r.sink.Emit(Window{
		Index:  r.window,
		Start:  r.winStart,
		End:    end,
		Names:  r.winNames,
		Kinds:  r.winKinds,
		Values: r.scratch,
	})
	r.window++
	r.winStart = end
}
