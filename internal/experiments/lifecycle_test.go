package experiments

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The run lifecycle (DESIGN.md): a cached Run holds numbers and no
// machine, a finished machine's arena is the next machine's, and a
// machine built in a recycled arena is indistinguishable from one built
// on the heap.

// liveHeap is the heap in use once everything unreachable is collected.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// cachedRuns returns every completed run s holds, in key order (bench,
// then scheme, then capacity).
func cachedRuns(s *Suite) []*Run {
	s.mu.Lock()
	entries := make([]*runEntry, 0, len(s.cache))
	for _, e := range s.cache {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	var out []*Run
	for _, e := range entries {
		if <-e.done; e.run != nil {
			out = append(out, e.run)
		}
	}
	slices.SortFunc(out, func(a, b *Run) int {
		return cmp.Or(cmp.Compare(a.Bench, b.Bench), cmp.Compare(a.Scheme, b.Scheme), cmp.Compare(a.Capacity, b.Capacity))
	})
	return out
}

// TestCachedRunPinsNoMachine warms a full-scale Suite and weighs it. A
// 64-warp machine is about 400 KB of registers, pages, caches and
// scoreboards, which is what every cached Run used to keep reachable
// (Chip.PerSM pointed into the SM, RegLess at the provider); a Run that
// holds numbers is a few KB.
func TestCachedRunPinsNoMachine(t *testing.T) {
	opts := Options{
		Warps:       64,
		Benchmarks:  []string{"bfs", "hotspot", "lud", "nw"},
		MaxCycles:   20_000_000,
		Parallelism: 1,
	}
	reads := Experiment{Reads: []schemeCap{{SchemeBaseline, 0}, {SchemeRFV, 0}, {SchemeRegLess, 512}}}
	runs := len(opts.Benchmarks) * len(reads.Reads)
	warm := func() *Suite {
		s := NewSuite(opts)
		if err := s.warm(reads); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// The first suite is dropped: it leaves behind what is not the
	// cache's — loaded kernels, compiled regions, and the parked arena
	// that held its machines — so the second's growth is its Runs.
	warm()
	before := liveHeap()
	s := warm()
	grown := liveHeap() - before
	if got := len(cachedRuns(s)); got != runs {
		t.Fatalf("%d cached runs, want %d", got, runs)
	}
	if perRun := grown / int64(runs); perRun > 32<<10 {
		t.Fatalf("a cached run holds %d KiB, want at most 32: it pins its machine", perRun>>10)
	}
	runtime.KeepAlive(s)
}

// outcome is everything a run leaves behind for its consumers.
type outcome struct {
	stats  sim.Stats
	prov   sim.ProviderStats
	mem    mem.Stats
	stores map[uint32]uint32
}

// TestRecycledMatchesFreshUnderPoison is what proves Reset. The
// reference for every point is a chip built on the heap — fresh
// allocations throughout. Then, with every arena that goes back
// scribbled over on the way (all-ones words, written bitmaps full, cache
// lines valid and dirty under wild tags, OSU cells resident, scoreboards
// and masks set), the same points go through runPoint in a shuffled
// order, each built in the arena the ones before it ran in, and must
// report the same Stats, ProviderStats, mem.Stats and stored words. A
// Reset that missed a page, a written bitmap, the registers or a line
// array hands the next run that garbage and cannot pass.
func TestRecycledMatchesFreshUnderPoison(t *testing.T) {
	type point struct {
		bench    string
		scheme   Scheme
		capacity int
		sms      int
	}
	var points []point
	for i, b := range kernels.Names() {
		for _, sc := range []schemeCap{{SchemeBaseline, 0}, {SchemeRFH, 0}, {SchemeRegLess, 128}} {
			points = append(points, point{b, sc.scheme, sc.capacity, 1})
			if i%5 == 0 && sc.scheme != SchemeRFH { // and the banked L2's arrays
				points = append(points, point{b, sc.scheme, sc.capacity, 4})
			}
		}
	}
	setup := func(p point) SimSetup {
		return SimSetup{Capacity: p.capacity, Warps: 16, MaxCycles: 20_000_000}
	}

	arena.Drop()
	defer arena.Drop()
	fresh := make(map[point]outcome, len(points))
	for _, p := range points {
		su := setup(p)
		su.Memory = exec.NewMemory(nil)
		g := assembleChip(t, p.bench, p.scheme, p.sms, su)
		res, err := g.Run()
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		o := outcome{stats: *mergeSimStats(res), stores: su.Memory.GlobalStores()}
		for _, smv := range g.SMs {
			// Σ per-SM by the test's own walk, not the fold under test.
			sumFields(&o.prov, &smv.Prov)
			sumFields(&o.mem, &smv.Mem.Stats)
		}
		fresh[p] = o
	}
	if n := arena.Held(); n != 0 {
		t.Fatalf("%d arenas parked while building the references: a kept chip must be built on the heap", n)
	}

	arena.SetPoison(true)
	defer arena.SetPoison(false)
	rand.New(rand.NewSource(17)).Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	for i, p := range points {
		k, err := kernels.Load(p.bench)
		if err != nil {
			t.Fatal(err)
		}
		// Odd runs keep their stores to compare — in a memory of the
		// test's own, which the machine's arena must leave alone; even
		// runs let the chip make its memory in the arena, pages and all.
		su := setup(p)
		if i%2 == 1 {
			su.Memory = exec.NewMemory(nil)
		}
		inst, err := runPoint(context.Background(), k, p.bench, p.scheme, p.sms, su, nil, 0, nil)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		r, want := inst.Run, fresh[p]
		where := fmt.Sprintf("run %d, %+v", i, p)
		if !reflect.DeepEqual(*r.Stats, want.stats) {
			t.Fatalf("%s: Stats in a recycled arena differ from the heap's:\n%+v\n%+v", where, *r.Stats, want.stats)
		}
		if r.Prov != want.prov {
			t.Fatalf("%s: ProviderStats differ:\n%+v\n%+v", where, r.Prov, want.prov)
		}
		if r.Mem != want.mem {
			t.Fatalf("%s: mem.Stats differ:\n%+v\n%+v", where, r.Mem, want.mem)
		}
		if su.Memory != nil {
			if got := su.Memory.GlobalStores(); !reflect.DeepEqual(got, want.stores) {
				t.Fatalf("%s: %d stored words differ from the fresh run's %d", where, len(got), len(want.stores))
			}
		}
		if arena.Held() != 1 {
			t.Fatalf("%s: %d arenas parked, want the one every run takes and puts back", where, arena.Held())
		}
	}
}

// TestFreeListsBoundedByMachinesAlive states the bound of the one free
// list there is, the LIFO of arenas. An arena enters it only by Put, so
// one worker — one machine alive at a time — leaves one arena parked
// however many runs it makes, and W workers leave at most W.
func TestFreeListsBoundedByMachinesAlive(t *testing.T) {
	opts := Quick()
	reads := Experiment{Reads: []schemeCap{{SchemeBaseline, 0}, {SchemeRegLess, 128}, {SchemeRegLess, 512}}}
	pass := func(workers int) int {
		opts.Parallelism = workers
		if err := NewSuite(opts).warm(reads); err != nil {
			t.Fatal(err)
		}
		return arena.Held()
	}
	arena.Drop()
	defer arena.Drop()
	if one := pass(1); one != 1 {
		t.Fatalf("a serial pass left %d arenas parked, want 1", one)
	}
	if again := pass(1); again != 1 {
		t.Fatalf("a second serial pass left %d arenas parked: the LIFO grows without more machines alive", again)
	}
	const workers = 4
	if par := pass(workers); par > workers {
		t.Fatalf("%d workers left %d arenas parked", workers, par)
	}
}

// TestResultSurvivesArenaReuse: everything run A hands its consumers — the
// Run with its chip result and region profile, the JSONL window stream,
// the recorders' analysis — is the same bytes after A's arena has gone
// back under poison and run B has been built and run in it. A result that
// aliased the arena (a Stats pointing at the SM's, a series sharing its
// backing array, a sink that kept the registry's name table) reads
// scribble or B's numbers instead.
func TestResultSurvivesArenaReuse(t *testing.T) {
	arena.Drop()
	arena.SetPoison(true)
	defer arena.SetPoison(false)
	defer arena.Drop()

	var stream bytes.Buffer
	opts := Quick()
	opts.MetricsWriter = &stream
	s := NewSuite(opts)
	k, err := kernels.Load("nw")
	if err != nil {
		t.Fatal(err)
	}
	su := opts.Setup(DefaultCapacity)
	a, err := runPoint(context.Background(), k, "nw", SchemeRegLess, 1, su, nil, events.MaskAll, s.jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FlushMetrics(); err != nil {
		t.Fatal(err)
	}
	snapshot := func() []byte {
		t.Helper()
		out, err := json.Marshal(struct {
			Run         *Run
			Activations []uint64
			Report      *events.Report
			Stream      string
		}{a.Run, a.Run.RegionActivations, events.Analyze(a.Recs[0], a.Cycles[0], a.Schedulers[0]), stream.String()})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := snapshot()
	if len(a.Run.RegionActivations) == 0 || a.Run.Chip == nil || stream.Len() == 0 {
		t.Fatal("run A left nothing to alias")
	}
	taken := arena.Held()

	kb, err := kernels.Load("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPoint(context.Background(), kb, "hotspot", SchemeRegLess, 1, su, nil, events.MaskAll, nil); err != nil {
		t.Fatal(err)
	}
	if taken != 1 || arena.Held() != 1 {
		t.Fatalf("run B did not run in run A's arena (%d parked before, %d after)", taken, arena.Held())
	}
	if after := snapshot(); !bytes.Equal(before, after) {
		t.Fatalf("run A's results changed once its arena was reused:\n%s\n%s", before, after)
	}
}

// TestRunsAreReadOnly: a Run is shared — by every caller of its key, and
// since a chip of one no longer copies, Run.Stats is Run.Chip.PerSM[0],
// one Stats with one series — so nobody may write one. Every Run of a
// warm suite is serialised, every consumer there is runs over them (all
// the paper's tables, then the two extension tables that read cached
// runs, twice, so a writer that compounds shows), and the bytes must not
// have moved. On a chip of several the fold is a Stats of its own.
func TestRunsAreReadOnly(t *testing.T) {
	s := quickSuite()
	if _, err := All(s); err != nil {
		t.Fatal(err)
	}
	snapshot := func() []byte {
		t.Helper()
		type numbers struct {
			Stats       *sim.Stats
			Prov        sim.ProviderStats
			Mem         mem.Stats
			Chip        *gpu.Result
			Activations []uint64
		}
		var all []numbers
		for _, r := range cachedRuns(s) {
			all = append(all, numbers{r.Stats, r.Prov, r.Mem, r.Chip, r.RegionActivations})
		}
		out, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := snapshot()
	for _, r := range cachedRuns(s) {
		if len(r.Chip.PerSM) != 1 || r.Stats != r.Chip.PerSM[0] {
			t.Fatalf("%s/%s: a chip of one must hand out its SM's own detached Stats", r.Bench, r.Scheme)
		}
	}
	for round := 0; round < 2; round++ {
		if _, err := All(s); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"breakdown", "sensitivity"} {
			run, _ := ByID(id)
			if _, err := run(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := snapshot(); !bytes.Equal(before, after) {
		t.Fatal("a table wrote to a cached Run")
	}

	opts := Quick()
	opts.SMs = 2
	r, err := NewSuite(opts).Get("nw", SchemeRegLess, DefaultCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Chip.PerSM) != 2 || r.Stats == r.Chip.PerSM[0] || r.Stats == r.Chip.PerSM[1] {
		t.Fatal("the fold of two SMs must be a Stats of its own")
	}
}
