package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arena"
)

// sampleFunc is the Sampler of one gauge that is a func.
type sampleFunc func() uint64

func (f sampleFunc) Sample(int) uint64 { return f() }

func TestCounterAndBind(t *testing.T) {
	r := NewRegistry(nil)
	c := r.AtomicCounter("a/ops")
	var external uint64
	r.Bind("b/ops", &external)

	c.Inc()
	c.Add(4)
	external = 7

	if v, ok := r.Value("a/ops"); !ok || v != 5 {
		t.Fatalf("a/ops = %d,%v want 5,true", v, ok)
	}
	if v, ok := r.Value("b/ops"); !ok || v != 7 {
		t.Fatalf("b/ops = %d,%v want 7,true", v, ok)
	}
	if _, ok := r.Value("nosuch"); ok {
		t.Fatal("Value found unregistered name")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "a/ops" || got[1] != "b/ops" {
		t.Fatalf("Names = %v", got)
	}
}

func TestZeroValueInstrumentsAreNoOps(t *testing.T) {
	var c AtomicCounter
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("zero AtomicCounter counted")
	}
	var h Histogram
	h.Observe(3) // must not panic
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.AtomicCounter("x")
	c.Inc()
	r.Bind("y", new(uint64))
	r.Gauges(sampleFunc(func() uint64 { return 1 }), "z")
	h := r.AtomicHistogram("h", 1, 2)
	h.Observe(5)
	if r.Len() != 0 || r.Names() != nil || r.Snapshot() != nil {
		t.Fatal("nil registry not empty")
	}
	r.CloseWindow(10)
	if r.HasSink() {
		t.Fatal("nil registry has sink")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry(nil)
	r.AtomicCounter("dup")
	r.AtomicCounter("dup")
	r.CheckNames() // registration does not look; the index build does
}

// TestDuplicateAfterIndexPanicsAtRegistration: once the index exists (a
// Value call built it), a duplicate is caught as it is registered.
func TestDuplicateAfterIndexPanicsAtRegistration(t *testing.T) {
	r := NewRegistry(nil)
	r.AtomicCounter("dup")
	if _, ok := r.Value("dup"); !ok {
		t.Fatal("Value did not find a registered cell")
	}
	late := r.AtomicCounter("late")
	late.Inc()
	if v, ok := r.Value("late"); !ok || v != 1 {
		t.Fatalf("a cell registered after the index was built reads %d, %v", v, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.AtomicCounter("dup")
}

func TestRegistrationAfterSinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registration after SetSink did not panic")
		}
	}()
	r := NewRegistry(nil)
	r.AtomicCounter("a")
	r.SetSink(sinkFunc(func(Window) {}))
	r.AtomicCounter("b")
}

type sinkFunc func(Window)

func (f sinkFunc) Emit(w Window) { f(w) }

func TestGaugeSampledAtSnapshot(t *testing.T) {
	r := NewRegistry(nil)
	depth := uint64(0)
	r.Gauges(sampleFunc(func() uint64 { return depth }), "q/depth")
	depth = 9
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 9 || snap[0].Kind != KindGauge {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// queues is a component with two gauges, read through one pointer.
type queues struct{ depth, inFlight uint64 }

func (q *queues) Sample(i int) uint64 { return [2]uint64{q.depth, q.inFlight}[i] }

// TestGaugesSampleTheirComponent: Gauges registers one gauge cell per
// name, each reading the Sampler's i-th value at snapshot time and at a
// window close as a value, not a delta — what Gauge does with a closure
// apiece — and registering them allocates nothing beyond the cell table.
func TestGaugesSampleTheirComponent(t *testing.T) {
	r := NewRegistry(nil)
	q := &queues{}
	c := r.AtomicCounter("q/pushed")
	r.Gauges(q, "q/depth", "q/in_flight")
	var got []uint64
	r.SetSink(sinkFunc(func(w Window) { got = append(got[:0], w.Values...) }))
	q.depth, q.inFlight = 9, 4
	c.Add(3)
	snap := r.Snapshot()
	if len(snap) != 3 || snap[1] != (Sample{"q/depth", KindGauge, 9}) || snap[2] != (Sample{"q/in_flight", KindGauge, 4}) {
		t.Fatalf("snapshot = %+v", snap)
	}
	if v, ok := r.Value("q/in_flight"); !ok || v != 4 {
		t.Fatalf("Value = %d,%v", v, ok)
	}
	r.CloseWindow(100)
	r.CloseWindow(200)
	if len(got) != 3 || got[0] != 0 || got[1] != 9 || got[2] != 4 {
		t.Fatalf("second window = %v, want the counter's delta 0 and the gauges' values 9, 4", got)
	}
	(*Registry)(nil).Gauges(q, "ignored")
	var prom bytes.Buffer
	if err := WritePrometheus(&prom, r, "t"); err != nil || !strings.Contains(prom.String(), "# TYPE t_q_depth gauge\nt_q_depth 9\n") {
		t.Fatalf("exposition of a Sampler's gauge (err %v):\n%s", err, prom.String())
	}

	r2 := NewRegistry(nil)
	r2.Gauges(q, "warm/a", "warm/b") // the cell table reaches its size
	if n := testing.AllocsPerRun(10, func() {
		r2.cells = r2.cells[:0]
		r2.Gauges(q, "warm/a", "warm/b")
	}); n != 0 {
		t.Fatalf("registering a component's gauges allocates %v objects, want 0", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(nil)
	h := r.AtomicHistogram("lat", 1, 8, 64)
	for _, v := range []uint64{0, 1, 2, 8, 9, 64, 65, 1000} {
		h.Observe(v)
	}
	want := map[string]uint64{"lat/le_1": 2, "lat/le_8": 2, "lat/le_64": 2, "lat/inf": 2}
	for name, w := range want {
		if v, ok := r.Value(name); !ok || v != w {
			t.Fatalf("%s = %d,%v want %d", name, v, ok, w)
		}
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	NewRegistry(nil).AtomicHistogram("bad", 4, 4)
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry(nil)
	c := r.AtomicCounter("c")
	g := uint64(1)
	r.Gauges(sampleFunc(func() uint64 { return g }), "g")
	c.Add(10)
	prev := r.Snapshot()
	c.Add(5)
	g = 3
	d := Diff(r.Snapshot(), prev)
	if len(d) != 2 {
		t.Fatalf("diff = %+v", d)
	}
	// Sorted by name: c then g.
	if d[0].Name != "c" || d[0].Value != 5 {
		t.Fatalf("counter delta = %+v", d[0])
	}
	if d[1].Name != "g" || d[1].Value != 3 {
		t.Fatalf("gauge sample = %+v", d[1])
	}
}

func TestWindowDeltasSumToTotal(t *testing.T) {
	r := NewRegistry(nil)
	c := r.AtomicCounter("events")
	var wins []Window
	var deltas []uint64
	r.SetSink(sinkFunc(func(w Window) {
		// Values is reused; copy what we keep.
		cp := w
		cp.Values = append([]uint64(nil), w.Values...)
		wins = append(wins, cp)
		deltas = append(deltas, cp.Values[0])
	}))
	if !r.HasSink() {
		t.Fatal("sink not installed")
	}
	c.Add(3)
	r.CloseWindow(100)
	c.Add(4)
	r.CloseWindow(200)
	r.CloseWindow(200) // empty interval: skipped
	c.Add(5)
	r.CloseWindow(250) // final partial window

	if len(wins) != 3 {
		t.Fatalf("%d windows, want 3", len(wins))
	}
	var sum uint64
	for _, d := range deltas {
		sum += d
	}
	if sum != c.Value() || sum != 12 {
		t.Fatalf("window deltas sum %d, counter %d", sum, c.Value())
	}
	if wins[0].Start != 0 || wins[0].End != 100 || wins[1].Start != 100 || wins[2].End != 250 {
		t.Fatalf("window bounds wrong: %+v", wins)
	}
	for i, w := range wins {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
	}
}

func TestJSONLWriterValidAndLabeled(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONLWriter(&buf)

	r := NewRegistry(nil)
	c := r.AtomicCounter("provider/preloads")
	z := r.AtomicCounter("provider/zero") // zero delta: must be elided
	depth := uint64(4)
	r.Gauges(sampleFunc(func() uint64 { return depth }), "osu/depth")
	r.SetSink(jw.Run(String("bench", "bfs"), String("scheme", "regless"), Int("capacity", 512)))

	c.Add(2)
	r.CloseWindow(100)
	c.Add(3)
	depth = 0
	r.CloseWindow(142)
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = z

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2:\n%s", len(lines), buf.String())
	}
	type rec struct {
		Bench    string            `json:"bench"`
		Scheme   string            `json:"scheme"`
		Capacity int               `json:"capacity"`
		Window   int               `json:"window"`
		Start    uint64            `json:"start"`
		End      uint64            `json:"end"`
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]uint64 `json:"gauges"`
	}
	var total uint64
	for i, ln := range lines {
		var v rec
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i, err, ln)
		}
		if v.Bench != "bfs" || v.Scheme != "regless" || v.Capacity != 512 {
			t.Fatalf("labels wrong: %+v", v)
		}
		if v.Window != i {
			t.Fatalf("window index %d on line %d", v.Window, i)
		}
		if _, ok := v.Counters["provider/zero"]; ok {
			t.Fatal("zero-delta counter not elided")
		}
		if _, ok := v.Gauges["osu/depth"]; !ok {
			t.Fatal("gauge missing (gauges must always be written)")
		}
		total += v.Counters["provider/preloads"]
	}
	if total != 5 {
		t.Fatalf("counter deltas sum %d, want 5", total)
	}
	var second rec
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second.Gauges["osu/depth"] != 0 || second.Start != 100 || second.End != 142 {
		t.Fatalf("second record wrong: %+v", second)
	}
}

// The disabled path must stay allocation-free and cheap: a zero AtomicCounter's
// Inc is a single branch.
func BenchmarkCounterDisabled(b *testing.B) {
	var c AtomicCounter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry(nil).AtomicCounter("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// TestOwnedCountersShareChunksAndStayPut: a registry made in an arena
// carves its cell table and owned words from the arena's chunks — a
// simulation's worth of registrations allocates nothing once the arena
// has served one — and a handle taken early keeps counting into the same
// word however the table grows after it, in an arena and on the heap.
func TestOwnedCountersShareChunksAndStayPut(t *testing.T) {
	for _, a := range []*arena.Arena{nil, new(arena.Arena)} {
		r := NewRegistry(a)
		first := r.AtomicCounter("c/first")
		first.Add(3)
		h := r.AtomicHistogram("h", 1, 2)
		h.Observe(2)
		var rest []AtomicCounter
		for i := 0; i < 200; i++ {
			c := r.AtomicCounter(fmt.Sprintf("c/%d", i))
			c.Add(uint64(i))
			rest = append(rest, c)
		}
		first.Inc()
		if v, _ := r.Value("c/first"); v != 4 || first.Value() != 4 {
			t.Fatalf("first counter reads %d through the registry, %d through its handle, want 4", v, first.Value())
		}
		if v, _ := r.Value("h/le_2"); v != 1 {
			t.Fatalf("h/le_2 = %d, want 1", v)
		}
		for i, c := range rest {
			if v, _ := r.Value(fmt.Sprintf("c/%d", i)); v != uint64(i) || c.Value() != uint64(i) {
				t.Fatalf("c/%d = %d, want %d", i, v, i)
			}
		}
	}

	all := make([]string, 214)
	for i := range all {
		all[i] = fmt.Sprintf("n/%d", i)
	}
	a := new(arena.Arena)
	perRegistry := testing.AllocsPerRun(20, func() {
		a.Reset()
		r := NewRegistry(a)
		for _, n := range all {
			r.AtomicCounter(n)
		}
		r.SetSink(nopSink{})
	})
	if perRegistry != 0 {
		t.Fatalf("registering %d counters in a warm arena allocates %.0f times, want 0", len(all), perRegistry)
	}
}

type nopSink struct{}

func (nopSink) Emit(Window) {}

// shardStats is a statistics struct as the simulator declares them.
type shardStats struct {
	Drains   uint64 `metric:"drains"`
	Finishes uint64 `metric:"finishes"`
	Skipped  uint64 // untagged: counted and summed, never a cell
	Mean     float64
}

// TestNamesRowsAreBuiltOnce: a descriptor's row is its format applied to
// the instance joined to every suffix — the tagged fields', in
// declaration order, then the extra ones — and binding again returns the
// same strings.
func TestNamesRowsAreBuiltOnce(t *testing.T) {
	f := FieldsOf[shardStats]("cm/s%d/", "stack_depth")
	r := NewRegistry(nil)
	var st shardStats
	extra := f.BindAt(r, 2, &st)
	if got := r.Names(); len(got) != 2 || got[0] != "cm/s2/drains" || got[1] != "cm/s2/finishes" {
		t.Fatalf("bound cells = %q", got)
	}
	if len(extra) != 1 || extra[0] != "cm/s2/stack_depth" {
		t.Fatalf("extra names = %q", extra)
	}
	st.Finishes += 3
	st.Skipped++
	if v, ok := r.Value("cm/s2/finishes"); !ok || v != 3 {
		t.Fatalf("cm/s2/finishes = %d,%v: the cell is not a view of the field", v, ok)
	}
	if a, b := f.names(1), f.names(1); &a[0] != &b[0] {
		t.Fatal("a row was built twice")
	}
	if fixed := FieldsOf[shardStats]("mem/").Bind(nil, &st); len(fixed) != 0 {
		t.Fatalf("a nil registry's Bind returned %q", fixed)
	}
	r2 := NewRegistry(nil)
	f.BindAt(r2, 2, &st) // the cell table reaches its size
	if got := testing.AllocsPerRun(10, func() {
		r2.cells = r2.cells[:0]
		f.BindAt(r2, 2, &st)
	}); got != 0 {
		t.Fatalf("binding a built row allocates %v times", got)
	}
}

// TestAddSumsEveryUint64Field: tagged or not, and nothing else.
func TestAddSumsEveryUint64Field(t *testing.T) {
	dst := shardStats{Drains: 2, Finishes: 3, Skipped: 5, Mean: 1.5}
	Add(&dst, &shardStats{Drains: 7, Finishes: 11, Skipped: 13, Mean: 9})
	if want := (shardStats{Drains: 9, Finishes: 14, Skipped: 18, Mean: 1.5}); dst != want {
		t.Fatalf("Add = %+v, want %+v", dst, want)
	}
	if got := testing.AllocsPerRun(10, func() { Add(&dst, &dst) }); got != 0 {
		t.Fatalf("Add allocates %v times", got)
	}
}

// TestTagOnNonCounterPanics: a metric tag on a field the registry cannot
// view is a bug caught when the descriptor is resolved.
func TestTagOnNonCounterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a metric tag on a float64 did not panic")
		}
	}()
	FieldsOf[struct {
		Mean float64 `metric:"mean"`
	}]("x/")
}
