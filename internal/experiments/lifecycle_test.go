package experiments

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/allocs"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/gen/machine"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/osu"
	"repro/internal/sanitizer"
	"repro/internal/sim"
)

// The run lifecycle (DESIGN.md): a cached Run holds numbers and no
// machine, a finished machine's arena is the next machine's, and a
// machine built in a recycled arena is indistinguishable from one built
// on the heap.

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
		if e.Wait(); e.run != nil {
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
	before := allocs.LiveHeap()
	s := warm()
	grown := allocs.LiveHeap() - before
	if got := len(cachedRuns(s)); got != runs {
		t.Fatalf("%d cached runs, want %d", got, runs)
	}
	if perRun := grown / int64(runs); perRun > 32<<10 {
		t.Fatalf("a cached run holds %d KiB, want at most 32: it pins its machine", perRun>>10)
	}
	runtime.KeepAlive(s)
}

// TestRecycledMatchesFreshUnderPoison is what proves Reset. The
// reference for every drawn single-launch machine is its run in an arena
// of its own — fresh allocations throughout — which must itself match the
// chip built on the Go heap (Launch) in result, stores and standing
// memory counters. Then, with every arena that
// goes back scribbled over on the way (all-ones words, written bitmaps
// full, cache lines valid and dirty under wild tags, OSU cells resident,
// scoreboards and masks set), the same machines run again, each built in
// the arena a machine of another scheme and kernel ran in before it, and
// must report the same statistics, stored words and window stream. A
// Reset that missed a page, a written bitmap, the registers or a line
// array hands the next run that garbage and cannot pass.
func TestRecycledMatchesFreshUnderPoison(t *testing.T) {
	ms := interleaved(t, machine.OneLaunch.Machines())
	defer arena.Drop()
	fresh := make([]ran, len(ms))
	for i, m := range ms {
		arena.Drop()
		fresh[i] = mustRun(t, m, nil)
		su := setup(m)
		var heap ran
		var err error
		if heap.Res, err = Launch(m.Ks, Scheme(m.Scheme), m.SMs, m.Grid, su); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		heap.keep(su)
		want := fresh[i]
		want.Prov, want.Mem, want.Stream = heap.Prov, heap.Mem, heap.Stream
		machine.Same(t, m, "the run in a fresh arena and the heap-built chip", want, heap)
	}
	arena.Drop()

	arena.SetPoison(true)
	defer arena.SetPoison(false)
	for i, m := range ms {
		want := fresh[i]
		// Odd runs keep their stores to compare — in a memory of the
		// test's own, which the machine's arena must leave alone; even
		// runs let the chip make its memory in the arena, pages and all.
		got := mustRun(t, m, func(su *SimSetup) {
			if i%2 == 0 {
				su.Memory, want.Stores = nil, want.Stores[1:]
			}
		})
		machine.Same(t, m, fmt.Sprint("run ", i, " in a recycled arena and the fresh run"), got, want)
		if arena.Held() != 1 {
			t.Fatalf("%s: run %d: %d arenas parked, want the one every run takes and puts back", m, i, arena.Held())
		}
	}
}

// interleaved is ms reordered so each machine follows one of another
// scheme and kernel, whose arena it is built in: greedily, of the
// machines that may come next, one of the scheme most of those left have.
func interleaved(t *testing.T, ms []machine.Machine) (out []machine.Machine) {
	left := map[string]int{}
	for _, m := range ms {
		left[m.Scheme]++
	}
	for len(ms) > 0 {
		next := -1
		for i, m := range ms {
			fits := len(out) == 0 || m.Scheme != out[len(out)-1].Scheme && m.Ks[0] != out[len(out)-1].Ks[0]
			if fits && (next < 0 || left[m.Scheme] > left[ms[next].Scheme]) {
				next = i
			}
		}
		if next < 0 {
			t.Fatalf("no machine of the draw left to follow %s with another scheme and kernel", out[len(out)-1])
		}
		left[ms[next].Scheme]--
		out, ms = append(out, ms[next]), slices.Delete(ms, next, next+1)
	}
	return out
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

// TestFailedRunReturnsItsArena: a run that ends without a Diagnostic —
// canceled mid-cycle-loop (a serve job canceled or expired), or refused
// at assembly — puts its arena back as a finished run does. Only a run
// whose error carries a *sanitizer.Diagnostic, which may quote the
// machine, leaves its arena to the collector.
func TestFailedRunReturnsItsArena(t *testing.T) {
	arena.Drop()
	defer arena.Drop()
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(20*time.Millisecond, cancel).Stop()
	_, err := SimulateInstrumented(ctx, "nw", SchemeBaseline, 1, cancelOpts().Setup(0), 0)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "abandoned at cycle") {
		t.Fatalf("run canceled mid-cycle-loop = %v, want context.Canceled from the cycle loop", err)
	}
	if n := arena.Held(); n != 1 {
		t.Fatalf("%d arenas parked after a canceled run, want 1", n)
	}

	arena.Drop()
	lines := osu.MaxLines/isa.NumBanks + 1 // more than an OSU can index
	refused := core.DefaultConfig().Shards * isa.NumBanks * lines
	_, err = SimulateInstrumented(context.Background(), "nw", SchemeRegLess, 1, Quick().Setup(refused), 0)
	if err == nil || !strings.Contains(err.Error(), "can index") {
		t.Fatalf("run at capacity %d = %v, want refused at assembly", refused, err)
	}
	if n := arena.Held(); n != 1 {
		t.Fatalf("%d arenas parked after a refused capacity, want 1", n)
	}

	arena.Drop()
	plan, err := faults.Parse("osu-tag@200; seed=3")
	if err != nil {
		t.Fatal(err)
	}
	su := Quick().Setup(DefaultCapacity)
	su.Faults, su.Sanitize, su.Watchdog = plan, true, 20000
	_, err = SimulateInstrumented(context.Background(), "nw", SchemeRegLess, 1, su, 0)
	var diag *sanitizer.Diagnostic
	if !errors.As(err, &diag) {
		t.Fatalf("faulted run = %v, want a Diagnostic", err)
	}
	if n := arena.Held(); n != 0 {
		t.Fatalf("%d arenas parked after a run that failed with a Diagnostic, want 0", n)
	}
}

// TestResultSurvivesArenaReuse: every Run the package hands out — a
// Suite's, SimulateKernel's, SimulateInstrumented's on one SM and on two
// (a merged Stats of its own) — holds a heap chip's numbers, chip result
// and region profile included, after its arena has gone back under poison
// and run B has been built and run in it; and what else the runs handed
// out — the JSONL window stream, the recorders' analysis — is the same
// bytes after B as before it. A result that aliased the arena (a Run,
// Stats or chip result folded there and not detached, a series sharing
// its backing array, a sink that kept the registry's name table) reads
// scribble or B's numbers instead.
func TestResultSurvivesArenaReuse(t *testing.T) {
	type numbers struct {
		Stats       *sim.Stats
		Chip        *gpu.Result
		Activations []uint64
	}
	encode := func(v any) string {
		t.Helper()
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	opts := Quick()
	su := opts.Setup(DefaultCapacity)
	heap := map[int]string{} // by SM count: a chip built on the heap
	for _, sms := range []int{1, 2} {
		g := assembleChip(t, "nw", SchemeRegLess, sms, su)
		res, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		heap[sms] = encode(numbers{mergeSimStats(nil, res), res, g.SMs[0].Provider.(*core.Provider).RegionActivations()})
	}

	arena.Drop()
	arena.SetPoison(true)
	defer arena.SetPoison(false)
	defer arena.Drop()
	var stream bytes.Buffer
	opts.MetricsWriter = &stream
	s := NewSuite(opts)
	suited, err := s.Get("nw", SchemeRegLess, DefaultCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FlushMetrics(); err != nil {
		t.Fatal(err)
	}
	kernel, err := SimulateKernel(kernels.MustLoad("nw"), SchemeRegLess, su, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]*Run{"Suite": suited, "SimulateKernel": kernel}
	var insts []*Instrumented
	for _, sms := range []int{1, 2} {
		in, err := SimulateInstrumented(context.Background(), "nw", SchemeRegLess, sms, su, events.MaskAll)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, in)
		kept[fmt.Sprintf("SimulateInstrumented on %d SMs", sms)] = in.Run
	}
	handedOut := func() string {
		var reports []*events.Report
		for _, in := range insts {
			for i, rec := range in.Recs {
				reports = append(reports, events.Analyze(rec, in.Cycles[i], in.Schedulers[i]))
			}
		}
		return encode(reports) + stream.String()
	}
	before := handedOut()
	if stream.Len() == 0 || len(insts[1].Recs) != 2 || insts[1].Run.Stats == insts[1].Run.Chip.PerSM[0] {
		t.Fatal("runs A left no stream, recorders or merged Stats to alias")
	}
	taken := arena.Held()

	kb := kernels.MustLoad("hotspot")
	if err := runPoint(context.Background(), kb, "hotspot", SchemeRegLess, 2, su, nil, events.MaskAll, nil,
		func(*Instrumented) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if taken != 1 || arena.Held() != 1 {
		t.Fatalf("run B did not run in runs A's arena (%d parked before, %d after)", taken, arena.Held())
	}
	for what, r := range kept {
		if len(r.Stats.BackingSeries) == 0 || len(r.RegionActivations) == 0 {
			t.Fatalf("%s: a Run with nothing to alias", what)
		}
		if got, want := encode(numbers{r.Stats, r.Chip, r.RegionActivations}), heap[len(r.Chip.PerSM)]; got != want {
			t.Fatalf("%s: the Run once its arena was reused\n%s\nthe heap chip's\n%s", what, got, want)
		}
	}
	if after := handedOut(); before != after {
		t.Fatalf("the stream or the recorders changed once their arena was reused:\n%s\n%s", before, after)
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
