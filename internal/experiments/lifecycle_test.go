package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/freelist"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The run lifecycle (DESIGN.md): a cached Run holds numbers and no
// machine, a finished machine's buffers are recycled, and a recycled
// buffer is indistinguishable from a fresh one.

// liveHeap is the heap in use once everything unreachable is collected.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
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
	var keys []runKey
	for _, b := range opts.Benchmarks {
		keys = append(keys, runKey{b, SchemeBaseline, 0}, runKey{b, SchemeRFV, 0}, runKey{b, SchemeRegLess, 512})
	}
	warm := func() *Suite {
		s := NewSuite(opts)
		if err := s.Warm(keys); err != nil {
			t.Fatal(err)
		}
		return s
	}
	// The first suite is dropped: it leaves behind what is not the
	// cache's — loaded kernels, compiled regions, and free lists holding
	// one machine's buffers — so the second's growth is its Runs.
	warm()
	before := liveHeap()
	s := warm()
	grown := liveHeap() - before
	if got := len(s.CachedRuns()); got != len(keys) {
		t.Fatalf("%d cached runs, want %d", got, len(keys))
	}
	if perRun := grown / int64(len(keys)); perRun > 32<<10 {
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

// TestRecycledMatchesFreshUnderPoison is what proves clear-on-take. The
// reference for every point is a chip built while the free lists are
// empty — fresh allocations throughout — and never released. Then, with
// every buffer that enters a list scribbled over on the way in (all-ones
// words, written bitmaps full, cache lines valid and dirty under wild
// tags, OSU cells resident), the same points go through runPoint in a
// shuffled order, each built on what the ones before it released, and
// must report the same Stats, ProviderStats, mem.Stats and stored words.
// A take that skipped the page, the written bitmap, a register chunk or
// a line array hands the next run that garbage and cannot pass.
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
		return SimSetup{Capacity: p.capacity, Warps: 16, MaxCycles: 20_000_000, Memory: exec.NewMemory(nil)}
	}

	freelist.Drop()
	fresh := make(map[point]outcome, len(points))
	for _, p := range points {
		su := setup(p)
		g, _, err := BuildChip(p.bench, p.scheme, p.sms, su)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run()
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		o := outcome{stats: *mergeSimStats(res), stores: su.Memory.GlobalStores()}
		for _, smv := range g.SMs {
			addProviderStats(&o.prov, smv.Provider.Stats())
			addMemStats(&o.mem, &smv.Mem.Stats)
		}
		fresh[p] = o
	}
	if n := freelist.Held(); n != 0 {
		t.Fatalf("%d buffers parked while building the references: they were not all fresh", n)
	}

	freelist.SetPoison(true)
	defer freelist.SetPoison(false)
	rand.New(rand.NewSource(17)).Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	for i, p := range points {
		k, err := kernels.Load(p.bench)
		if err != nil {
			t.Fatal(err)
		}
		su := setup(p)
		inst, err := runPoint(context.Background(), k, p.bench, p.scheme, p.sms, su, nil, 0, nil)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		r, want := inst.Run, fresh[p]
		where := fmt.Sprintf("run %d, %+v", i, p)
		if !reflect.DeepEqual(*r.Stats, want.stats) {
			t.Fatalf("%s: Stats on recycled buffers differ from fresh:\n%+v\n%+v", where, *r.Stats, want.stats)
		}
		if r.Prov != want.prov {
			t.Fatalf("%s: ProviderStats differ:\n%+v\n%+v", where, r.Prov, want.prov)
		}
		if r.Mem != want.mem {
			t.Fatalf("%s: mem.Stats differ:\n%+v\n%+v", where, r.Mem, want.mem)
		}
		if got := su.Memory.GlobalStores(); !reflect.DeepEqual(got, want.stores) {
			t.Fatalf("%s: %d stored words differ from the fresh run's %d", where, len(got), len(want.stores))
		}
		su.Memory.Release() // the test's memory, so the test's to recycle
		if freelist.Held() == 0 {
			t.Fatalf("%s: nothing was parked, so nothing is being recycled", where)
		}
	}
}

// TestFreeListsBoundedByMachinesAlive states the lists' bound. A buffer
// enters a list only by release, so one worker — one machine alive at a
// time — leaves each size class holding what its hungriest machine
// needed: a second pass over the same runs finds everything it needs
// parked and parks the same again, and W workers can leave at most W
// times that.
func TestFreeListsBoundedByMachinesAlive(t *testing.T) {
	opts := Quick()
	var keys []runKey
	for _, b := range opts.Benchmarks {
		keys = append(keys, runKey{b, SchemeBaseline, 0}, runKey{b, SchemeRegLess, 128}, runKey{b, SchemeRegLess, 512})
	}
	pass := func(workers int) int {
		opts.Parallelism = workers
		if err := NewSuite(opts).Warm(keys); err != nil {
			t.Fatal(err)
		}
		return freelist.Held()
	}
	freelist.Drop()
	one := pass(1)
	if one == 0 {
		t.Fatal("a serial pass parked nothing")
	}
	if again := pass(1); again != one {
		t.Fatalf("a second serial pass left %d buffers parked, the first %d: the lists grow without more machines alive", again, one)
	}
	const workers = 4
	if par := pass(workers); par > workers*one {
		t.Fatalf("%d workers left %d buffers parked, more than %d times one machine's %d", workers, par, workers, one)
	}
}
