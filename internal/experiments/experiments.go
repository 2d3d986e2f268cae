// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): one runner per figure, all built on a memoizing
// simulation cache so figures sharing runs (e.g. the baseline) pay once.
//
// The per-experiment index in DESIGN.md maps each paper figure/table to
// the modules behind it; plan.go holds the registry — each experiment's
// ID, the runs it reads, its runner here.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/regions"
	"repro/internal/sim"
)

// Scheme names the register configurations under test.
type Scheme string

const (
	// SchemeBaseline is the full 2048-entry register file with GTO.
	SchemeBaseline Scheme = "baseline"
	// SchemeRFV is register file virtualization (half-size RF,
	// two-level scheduler, as in the paper's comparison).
	SchemeRFV Scheme = "rfv"
	// SchemeRFH is the register file hierarchy (8-entry per-warp
	// buffer, two-level scheduler).
	SchemeRFH Scheme = "rfh"
	// SchemeRegLess is RegLess at the capacity given per run.
	SchemeRegLess Scheme = "regless"
	// SchemeRegLessNC is RegLess without the compressor (Figure 16).
	SchemeRegLessNC Scheme = "regless-nocomp"
	// SchemeBaseline2L is the baseline RF under the two-level warp
	// scheduler (Figure 2's comparison).
	SchemeBaseline2L Scheme = "baseline-2level"
)

// Schemes lists every scheme in a stable order (external input
// validation, service sweep grids).
func Schemes() []Scheme {
	return []Scheme{SchemeBaseline, SchemeBaseline2L, SchemeRFV, SchemeRFH, SchemeRegLess, SchemeRegLessNC}
}

// ParseScheme validates a scheme name from external input (CLI flags,
// service requests) so unknown names fail at admission instead of
// surfacing later as a failed simulation.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range Schemes() {
		if string(s) == name {
			return s, nil
		}
	}
	have := make([]string, 0, len(Schemes()))
	for _, s := range Schemes() {
		have = append(have, string(s))
	}
	return "", fmt.Errorf("unknown scheme %q (have %s)", name, strings.Join(have, ", "))
}

// HasCapacity reports whether a run's capacity means anything under the
// scheme: it sizes RegLess's OSU and nothing else, so every other scheme's
// runs are keyed, labelled and stored at capacity 0.
func (s Scheme) HasCapacity() bool { return s == SchemeRegLess || s == SchemeRegLessNC }

// CanonicalCapacity is the capacity rule, said once for the command line,
// the service's KeyFor and the run cache: a scheme without a capacity
// ignores whatever it was given (0); under RegLess 0 means the paper's
// design point, and any other value must be whole lines per bank
// (core.CheckCapacity) — one that is not comes back as given, beside the
// error, for the caller that labels a run rather than admits one.
func CanonicalCapacity(scheme Scheme, capacity int) (int, error) {
	switch {
	case !scheme.HasCapacity():
		return 0, nil
	case capacity == 0:
		return DefaultCapacity, nil
	}
	return capacity, core.CheckCapacity(capacity)
}

// BaselineEntries is the full register file capacity per SM in registers.
const BaselineEntries = 2048

// RFVEntries is RFV's half-size physical file.
const RFVEntries = 1024

// RFHORFEntries is RFH's per-warp buffer capacity (Figure 3's
// "8-entry scratchpad").
const RFHORFEntries = 8

// Options scales the experiments; Quick() shrinks them for tests.
type Options struct {
	Warps      int
	Benchmarks []string
	MaxCycles  uint64
	// Parallelism bounds how many simulations the run planner executes
	// concurrently (0 means runtime.GOMAXPROCS(0)). Simulations are
	// independent and deterministic, and tables are assembled serially
	// from the warm cache, so output is identical at any setting.
	Parallelism int

	// MetricsWriter, when non-nil, receives one JSONL record per
	// statistics window of every simulation the suite executes, labeled
	// with the run's (bench, scheme, capacity). Records from concurrent
	// simulations interleave whole lines; call FlushMetrics after the
	// last run. Streaming does not perturb results — windows only read
	// counters the simulations maintain anyway.
	MetricsWriter io.Writer

	// Watchdog is the forward-progress watchdog threshold in cycles
	// (0: the simulator default).
	Watchdog uint64
	// Sanitize attaches the cycle-level invariant sanitizer to every
	// simulation (robustness runs; costs per-cycle checking).
	Sanitize bool
	// Faults is a fault-injection plan applied to every simulation (each
	// run gets its own injector, so corruption replays identically).
	Faults *faults.Plan

	// NoFastForward steps every cycle instead of skipping provably
	// frozen spans (differential validation / stepped-path profiling;
	// results are identical either way).
	NoFastForward bool

	// SMs is the chip size every simulation runs at: N lockstep SMs with
	// private L1s, the kernel's grid striped across them. The pipeline is
	// the same at any N; only the L2 level follows from it (Assemble): one
	// SM — the paper's per-SM evaluation and the golden configuration —
	// gets a private L2 slice with its share of DRAM bandwidth, several
	// share the banked L2 and the DRAM interface. 0 means 1; Normalized
	// resolves it, so everything downstream reads a count >= 1.
	SMs int
}

// Normalized returns the options as NewSuite and serve run under them: an
// SM count of at least 1 (0 means 1) and the benchmarks in suite order.
func (o Options) Normalized() Options {
	if o.SMs < 1 {
		o.SMs = 1
	}
	o.Benchmarks = o.benchmarks()
	return o
}

// Setup is the SimSetup every suite simulation of a point at the given
// RegLess capacity is assembled with.
func (o Options) Setup(capacity int) SimSetup {
	return SimSetup{
		Capacity:      capacity,
		Warps:         o.Warps,
		MaxCycles:     o.MaxCycles,
		Watchdog:      o.Watchdog,
		Sanitize:      o.Sanitize,
		Faults:        o.Faults,
		NoFastForward: o.NoFastForward,
	}
}

// Default returns the full-scale options (Table 1's 64 warps per SM).
func Default() Options {
	return Options{Warps: 64, Benchmarks: kernels.Names(), MaxCycles: 60_000_000}
}

// Quick returns reduced-scale options for unit tests.
func Quick() Options {
	return Options{Warps: 16, Benchmarks: []string{"bfs", "hotspot", "lud", "nw", "streamcluster"}, MaxCycles: 20_000_000}
}

// suiteRank maps a benchmark name to its position in the suite.
var suiteRank = sync.OnceValue(func() map[string]int {
	rank := map[string]int{}
	for i, n := range kernels.Names() {
		rank[n] = i
	}
	return rank
})

// benchmarks returns o.Benchmarks in canonical suite order: the list
// itself when it is in that order already — NewSuite leaves a suite's so,
// and every table asks — or an ordered copy. Callers do not modify it.
func (o Options) benchmarks() []string {
	rank := suiteRank()
	byRank := func(a, b string) int { return rank[a] - rank[b] }
	if slices.IsSortedFunc(o.Benchmarks, byRank) {
		return o.Benchmarks
	}
	out := slices.Clone(o.Benchmarks)
	slices.SortFunc(out, byRank)
	return out
}

// Run is one completed simulation: numbers only. runPoint folds it in the
// machine's arena, where it lives until runPoint's consumer returns;
// every Run handed out beyond that — the Suite's, SimulateKernel's,
// SimulateInstrumented's — is Detach's copy, and nothing reachable from it
// points into the machine it was measured on (sim.SM, core.Provider,
// exec.Memory, mem.Hierarchy) or its arena, which is the next machine's
// the moment the run is consumed. A Run is read-only: every caller of a
// key gets the same one, Compiled is shared with every run of its
// (kernel, region config), and on a chip of one Stats is Chip.PerSM[0].
type Run struct {
	Bench    string
	Scheme   Scheme
	Capacity int // RegLess OSU registers per SM (0 otherwise)

	Stats *sim.Stats
	Prov  sim.ProviderStats
	Mem   mem.Stats

	// Compiled is the RegLess compiler output the run executed under —
	// the read-only result core caches per (kernel, region config) and
	// every run of that pair shares — and RegionActivations the dynamic
	// execution count of each of its regions (SM 0's on a chip of
	// several). Both nil for other schemes.
	Compiled          *regions.Compiled
	RegionActivations []uint64

	// Chip is the per-SM and chip-level result Stats/Prov/Mem were
	// folded from (one PerSM entry and a zero L2 on a chip of one, whose
	// L2 is the SM's private slice).
	Chip *gpu.Result
}

// Detach returns r copied to the heap: the Run, its Stats and series, the
// chip result with every SM's statistics and series, and the region
// profile — everything runPoint folded in the machine's arena — so that
// the copy outlives the arena. It is the one place a result is copied;
// Compiled is the compile cache's and stays shared. On a chip of one the
// copy's Stats is its Chip.PerSM[0], as r's is.
func (r *Run) Detach() *Run {
	detach := func(st *sim.Stats) *sim.Stats {
		c := *st
		c.BackingSeries = slices.Clone(st.BackingSeries)
		return &c
	}
	out := *r
	chip := *r.Chip
	chip.PerSM = make([]*sim.Stats, len(r.Chip.PerSM))
	for i, st := range r.Chip.PerSM {
		chip.PerSM[i] = detach(st)
	}
	chip.KernelCycles = slices.Clone(r.Chip.KernelCycles)
	out.Chip = &chip
	if r.Stats == r.Chip.PerSM[0] {
		out.Stats = chip.PerSM[0]
	} else {
		out.Stats = detach(r.Stats)
	}
	out.RegionActivations = slices.Clone(r.RegionActivations)
	return &out
}

// Activity is the run's counters, as the energy model reads them.
func (r *Run) Activity() energy.Activity {
	return energy.Activity{Sim: r.Stats, Prov: &r.Prov, Mem: &r.Mem}
}

// EnergyScheme maps the run to its energy-model scheme.
func (r *Run) EnergyScheme() energy.Scheme {
	switch r.Scheme {
	case SchemeBaseline, SchemeBaseline2L:
		return energy.Scheme{Kind: energy.KindBaseline, Entries: BaselineEntries}
	case SchemeRFV:
		return energy.Scheme{Kind: energy.KindRFV, Entries: RFVEntries}
	case SchemeRFH:
		return energy.Scheme{Kind: energy.KindRFH, Entries: BaselineEntries}
	case SchemeRegLessNC:
		return energy.Scheme{Kind: energy.KindRegLess, Entries: r.Capacity, Compressor: false}
	default:
		return energy.Scheme{Kind: energy.KindRegLess, Entries: r.Capacity, Compressor: true}
	}
}

type runKey struct {
	bench    string
	scheme   Scheme
	capacity int
}

// normKey canonicalizes a run key (CanonicalCapacity). The engine admits
// nothing — a capacity off the rule is keyed as given and runs as
// core.ConfigForCapacity rounds it.
func normKey(bench string, scheme Scheme, capacity int) runKey {
	capacity, _ = CanonicalCapacity(scheme, capacity)
	return runKey{bench, scheme, capacity}
}

// runEntry is one singleflight cache slot: the first caller simulates and
// marks it done; every other caller of the same key waits for that and
// shares the result.
type runEntry struct {
	sync.WaitGroup // one: the first caller's simulation
	run            *Run
	err            error
}

// Suite memoizes simulation runs across experiments. Get is a
// singleflight: concurrent callers of the same (bench, scheme, capacity)
// share one in-flight simulation, so the run planner can fan what the
// experiments read across a worker pool without duplicating work.
type Suite struct {
	Opts   Options
	Params energy.Params

	// jsonl streams per-window metrics when Opts.MetricsWriter is set.
	jsonl *metrics.JSONLWriter

	// OnSimulate, when non-nil, is invoked exactly once per simulation
	// actually executed (cache misses only) — a hook for tests and
	// progress reporting. Set it before the first Get; it may be called
	// concurrently from planner workers.
	OnSimulate func(bench string, scheme Scheme, capacity int)

	mu    sync.Mutex
	cache map[runKey]*runEntry
}

// NewSuite builds an experiment suite.
func NewSuite(opts Options) *Suite {
	opts = opts.Normalized()
	s := &Suite{Opts: opts, Params: energy.DefaultParams(), cache: map[runKey]*runEntry{}}
	if opts.MetricsWriter != nil {
		s.jsonl = metrics.NewJSONLWriter(opts.MetricsWriter)
	}
	return s
}

// FlushMetrics drains the buffered JSONL stream (no-op without a
// MetricsWriter) and reports the first write error.
func (s *Suite) FlushMetrics() error {
	if s.jsonl == nil {
		return nil
	}
	return s.jsonl.Flush()
}

// Get returns the memoized run for (bench, scheme, capacity), simulating
// on first use. capacity applies to RegLess schemes only (registers/SM).
// Concurrent callers of the same key share one simulation; errors are
// cached alongside results (simulations are deterministic, so retrying
// cannot help).
func (s *Suite) Get(bench string, scheme Scheme, capacity int) (*Run, error) {
	return s.GetCtx(context.Background(), bench, scheme, capacity)
}

// GetCtx is Get under the obs trace ctx may carry: the suite records its
// phases — "suite-wait" when another caller's in-flight simulation is
// joined, else "kernel-load"/"build"/"run" children under the carried
// parent span. A suite run is never canceled: its result is every later
// caller's, so ctx's cancellation is stripped before the simulation starts
// (only for a ctx that has any — a Background or trace-only ctx is used as
// given). The service, which does cancel, runs SimulateWith under
// its job's context instead.
func (s *Suite) GetCtx(ctx context.Context, bench string, scheme Scheme, capacity int) (*Run, error) {
	key := normKey(bench, scheme, capacity)
	s.mu.Lock()
	e, ok := s.cache[key]
	if !ok {
		e = &runEntry{}
		e.Add(1)
		s.cache[key] = e
	}
	s.mu.Unlock()
	if ok {
		tr, parent := obs.FromContext(ctx)
		wait := tr.Start(parent, "suite-wait")
		e.Wait()
		tr.End(wait)
		return e.run, e.err
	}
	if s.OnSimulate != nil {
		s.OnSimulate(key.bench, key.scheme, key.capacity)
	}
	if ctx.Done() != nil {
		ctx = context.WithoutCancel(ctx)
	}
	e.run, e.err = s.simulate(ctx, key.bench, key.scheme, key.capacity)
	if e.err != nil {
		e.err = fmt.Errorf("%s/%s/%d: %w", key.bench, key.scheme, key.capacity, e.err)
	}
	e.Done()
	return e.run, e.err
}

// forEach runs fn(0..n-1) across min(Parallelism, n) workers and returns
// the first error by index. All indices are attempted even after a
// failure, so the reported error does not depend on worker scheduling.
func (o Options) forEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1)
				if i >= int64(n) {
					return
				}
				errs[i] = fn(int(i))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Suite) simulate(ctx context.Context, bench string, scheme Scheme, capacity int) (*Run, error) {
	k, err := loadKernel(ctx, bench)
	if err != nil {
		return nil, err
	}
	var run *Run
	err = runPoint(ctx, k, bench, scheme, s.Opts.SMs, s.Opts.Setup(capacity), nil, 0, s.jsonl, func(in *Instrumented) error {
		run = in.Run.Detach()
		return nil
	})
	return run, err
}

// SimSetup parameterizes one chip assembly beyond (kernel, scheme, SM
// count): sizing, termination bounds, and the robustness instrumentation
// (sanitizer, fault injection).
type SimSetup struct {
	// Capacity is RegLess's OSU registers per SM (ignored otherwise).
	Capacity int
	Warps    int
	// MaxCycles aborts runaway simulations; Watchdog (0: simulator
	// default) trips the forward-progress check far sooner.
	MaxCycles uint64
	Watchdog  uint64
	// Sanitize attaches the cycle-level invariant sanitizer.
	Sanitize bool
	// Faults, when non-nil, arms a fresh injector per SM.
	Faults *faults.Plan
	// Memory, when non-nil, backs the run's functional state (tests
	// retain it to compare final stores against the exec reference).
	Memory *exec.Memory
	// NoFastForward disables the cycle-skip fast-forward.
	NoFastForward bool

	// The rest says which launch of a sequence the chip is; the zero
	// values are the suite's: one kernel's whole grid on cold memory.

	// CoResident lists the kernels sharing the chip with the assembled
	// one, each on its own SMs after it (gpu.KernelSlot).
	CoResident []gpu.KernelSlot
	// FirstWarp and EndWarp are the warp range of the grid this launch
	// covers (gpu.Launch): the global ID of its first warp and, when
	// non-zero, where the grid ends short of filling every SM.
	FirstWarp, EndWarp int
	// L2 and Hier are standing timing memory, handed in the way Memory
	// hands in functional state: a banked L2 whose contents outlive the
	// chip (a grid's waves; any SM count runs on it), or the private
	// hierarchy of a chip of one (an application's kernels).
	L2   *mem.BankedL2
	Hier *mem.Hierarchy
}

// GeoMean returns the geometric mean of xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// benchmarks returns the option benchmarks in suite order.
func (s *Suite) benchmarks() []string { return s.Opts.benchmarks() }
