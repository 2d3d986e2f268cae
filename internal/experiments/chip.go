package experiments

// The one run pipeline. Every simulation — the suite cache, serve's runs,
// the CLI's -timeline/-trace runs, the public Simulate, the ablation
// table — is a chip built by Assemble and run by gpu.GPU.Run:
// N lockstep SMs with private L1s and register schemes, the grid striped
// across them by warp ID. The paper's per-SM evaluation is the chip of
// one, and the only thing that differs there is the L2 level (Assemble
// decides it). The resulting Run aggregates the chip (cycles = slowest
// SM, counters summed) through the same merges at one SM as at sixteen,
// so every table's logic is SM-count-agnostic; the chip result itself is
// retained on Run.Chip for the chip-level columns.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rf"
	"repro/internal/sanitizer"
	"repro/internal/sim"
)

// schemeProvider is the one scheme → register file table: it sets the
// warp scheduler the scheme implies on simCfg and returns what builds the
// provider for each SM, with the RegLess configuration it reads — made in
// a, like everything else Assemble builds.
func schemeProvider(a *arena.Arena, scheme Scheme, capacity int, simCfg *sim.Config) (mk gpu.ProviderFactory, rl *core.Config, err error) {
	rl = arena.New[core.Config](a)
	*rl = core.ConfigForCapacity(capacity)
	rl.EnableCompressor = scheme == SchemeRegLess
	switch scheme {
	case SchemeBaseline:
		mk = newBaseline
	case SchemeBaseline2L:
		simCfg.Sched, mk = sim.SchedTwoLevel, newBaseline
	case SchemeRFV:
		simCfg.Sched, mk = sim.SchedTwoLevel, newRFV
	case SchemeRFH:
		simCfg.Sched, mk = sim.SchedTwoLevel, newRFH
	case SchemeRegLess, SchemeRegLessNC:
		mk = (*reglessFactory)(rl)
	default:
		return nil, nil, fmt.Errorf("unknown scheme %q", scheme)
	}
	return mk, rl, nil
}

// The register files' factories: each builds its provider in the SM's arena.
var (
	newBaseline = gpu.FactoryFunc(func(a *arena.Arena, _ int, _ *isa.Kernel) (sim.Provider, error) {
		return rf.NewBaseline(a), nil
	})
	newRFV = gpu.FactoryFunc(func(a *arena.Arena, _ int, _ *isa.Kernel) (sim.Provider, error) {
		return rf.NewRFV(a, RFVEntries), nil
	})
	newRFH = gpu.FactoryFunc(func(a *arena.Arena, _ int, _ *isa.Kernel) (sim.Provider, error) {
		return rf.NewRFH(a, RFHORFEntries), nil
	})
)

// reglessFactory builds RegLess providers from the configuration as it
// reads when the chip is built — so an Assemble Tune applied in between is
// seen — each in its SM's own backing-store window: disjoint 16 MB offsets
// keep per-SM register spills from aliasing in a shared L2 (one kernel's
// SMs share data lines but never register lines).
type reglessFactory core.Config

// NewProvider implements gpu.ProviderFactory.
func (c *reglessFactory) NewProvider(a *arena.Arena, sm int, k *isa.Kernel) (sim.Provider, error) {
	smc := core.Config(*c)
	smc.AddrOffset = uint32(sm) << 24
	return core.New(a, smc, k)
}

// Tune adjusts an assembly after the scheme's defaults are applied: the
// per-SM timing configuration and, for RegLess schemes, the core
// configuration. It exists for the two callers whose variants are not
// schemes — the ablation table's design mutations and the public API's
// scheduler override — and is not reachable from the CLI or serve.
type Tune func(*sim.Config, *core.Config)

// Assemble is the one place options become a machine: the ready-to-run
// chip for one launch of k on sms lockstep SMs under scheme, sized and
// instrumented by su — which also says what else the launch is (kernels
// co-resident with k, the warp range of the grid it covers, the memory it
// inherits). The returned core provider is SM 0's (non-nil only for
// RegLess schemes); scheme-wide provider statistics are summed across SMs
// at result time. tune may be nil.
//
// The machine — and the configuration, slot list and providers it is
// built from — is allocated from a: runPoint passes the arena it took and
// puts it back when the run is folded; everyone who keeps the chip — the
// launch sequences, tests, BuildChip/BuildSM's callers — passes nil, the
// heap. What su hands in is the caller's either way.
func Assemble(a *arena.Arena, k *isa.Kernel, scheme Scheme, sms int, su SimSetup, tune Tune) (*gpu.GPU, *core.Provider, error) {
	cfg := arena.New[gpu.Config](a)
	*cfg = gpu.DefaultConfig()
	slots := arena.Make[gpu.KernelSlot](a, 1+len(su.CoResident))
	slots[0] = gpu.KernelSlot{K: k, SMs: sms, Mem: su.Memory}
	total := sms
	for i, s := range su.CoResident {
		slots[1+i] = s
		total += s.SMs
	}
	// The one place the L2 level follows from the SM count: a chip of one
	// is the paper's per-SM configuration — a private 512 KB slice of the
	// L2 with the SM's 1/16 share of DRAM bandwidth — while several SMs,
	// or one that inherits a banked L2's contents, contend for the banked
	// 2 MB L2 and the whole DRAM interface.
	cfg.PrivateL2 = total == 1 && su.L2 == nil
	cfg.SM.Warps = su.Warps
	if su.MaxCycles > 0 {
		cfg.SM.MaxCycles = su.MaxCycles
	}
	if su.Watchdog > 0 {
		cfg.SM.WatchdogCycles = su.Watchdog
	}
	cfg.SM.NoFastForward = su.NoFastForward

	mk, rl, err := schemeProvider(a, scheme, su.Capacity, &cfg.SM)
	if err != nil {
		return nil, nil, err
	}
	if tune != nil {
		tune(&cfg.SM, rl)
	}
	g, err := gpu.New(a, *cfg, gpu.Launch{
		Slots: slots, Factory: mk,
		FirstWarp: su.FirstWarp, EndWarp: su.EndWarp,
		L2: su.L2, Hier: su.Hier,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, smv := range g.SMs {
		if su.Faults != nil {
			smv.AttachFaults(faults.NewInjector(su.Faults))
		}
		if su.Sanitize {
			smv.AttachSanitizer(sanitizer.New())
		}
	}
	rp, _ := g.SMs[0].Provider.(*core.Provider)
	return g, rp, nil
}

// LaunchResult aggregates a launch sequence. Launches run back to back,
// so Cycles sums each chip's time (its slowest SM's); Insns and the
// coordinated fast-forward's counters sum over every SM and launch.
// PerLaunch holds each launch's chip result: numbers only, never the chip.
type LaunchResult struct {
	Cycles                   uint64
	Launches                 int
	Insns                    uint64
	FFSkippedCycles, FFJumps uint64
	PerLaunch                []*gpu.Result
}

// Launch runs kernels back to back, the way a CUDA stream does, on chips
// of sms SMs assembled from su: each kernel's grid of gridWarps warps,
// when it holds more warps than the chip keeps resident (su.Warps per SM),
// proceeds in sequential *waves* (as hardware CTA schedulers do once
// occupancy is exhausted), and an application's kernels follow one
// another. This is what makes occupancy experiments fair: an
// occupancy-limited configuration runs the same total work in more waves
// rather than silently doing less work.
//
// Within a wave each SM takes a contiguous CTA-aligned chunk of warps
// (gpu.Launch's warp range) and all SMs run concurrently. Waves are
// synchronous: a fast SM idles at the wave boundary rather than stealing
// the next chunk early. That sacrifices a little fidelity (real
// schedulers backfill per-CTA) for determinism — chunk->SM assignment is
// a pure function of grid size, chip size and occupancy, never of timing.
//
// All launches share su.Memory (a fresh one when nil), so the sequence is
// architecturally one big run; what timing state persists between them
// is the standing memory su hands in — nothing, a banked L2, or the SM's
// hierarchy.
func Launch(ks []*isa.Kernel, scheme Scheme, sms, gridWarps int, su SimSetup) (*LaunchResult, error) {
	chipWarps := su.Warps * sms
	if len(ks) == 0 {
		return nil, fmt.Errorf("launch: no kernels")
	}
	if gridWarps <= 0 || chipWarps <= 0 {
		return nil, fmt.Errorf("launch: warps must be positive")
	}
	for _, k := range ks {
		if gridWarps%k.WarpsPerCTA != 0 {
			return nil, fmt.Errorf("launch: grid %d not a multiple of %s's CTA size %d",
				gridWarps, k.Name, k.WarpsPerCTA)
		}
		if gridWarps > chipWarps && chipWarps%k.WarpsPerCTA != 0 {
			return nil, fmt.Errorf("launch: wave size %d not a multiple of %s's CTA size %d",
				chipWarps, k.Name, k.WarpsPerCTA)
		}
	}
	if su.Memory == nil {
		su.Memory = exec.NewMemory(nil)
	}
	res := &LaunchResult{}
	for ki, k := range ks {
		for first := 0; first < gridWarps; first += chipWarps {
			su.FirstWarp, su.EndWarp = first, min(first+chipWarps, gridWarps)
			g, _, err := Assemble(nil, k, scheme, sms, su, nil)
			var r *gpu.Result
			if err == nil {
				r, err = g.Run()
			}
			if err != nil {
				return nil, fmt.Errorf("launch: kernel %d (%s) wave %d: %w", ki, k.Name, first/chipWarps, err)
			}
			res.Cycles += r.Cycles
			res.Insns += r.TotalInsns
			res.FFSkippedCycles += r.FFSkippedCycles
			res.FFJumps += r.FFJumps
			res.PerLaunch = append(res.PerLaunch, r)
			res.Launches++
		}
	}
	return res, nil
}

// BuildChip is Assemble for a suite benchmark by name. It and BuildSM are
// shims with no caller in this module: benchmark/layers.go, which only a
// benchmark-kind PR may edit, calls each at one site. That PR moves them
// to Assemble and deletes both in one step (ROADMAP item 9).
func BuildChip(bench string, scheme Scheme, sms int, su SimSetup) (*gpu.GPU, *core.Provider, error) {
	k, err := kernels.Load(bench)
	if err != nil {
		return nil, nil, err
	}
	return Assemble(nil, k, scheme, sms, su, nil)
}

// BuildSM returns the lone SM of a chip of one.
func BuildSM(bench string, scheme Scheme, su SimSetup) (*sim.SM, *core.Provider, error) {
	g, rp, err := BuildChip(bench, scheme, 1, su)
	if err != nil {
		return nil, nil, err
	}
	return g.SMs[0], rp, nil
}

// Instrumented is one simulation with the event recorders that observed
// it.
type Instrumented struct {
	Run *Run
	// Recs holds one recorder per SM (nil when nothing was recorded);
	// the other slices are what a view of Recs[i] needs to know of SM i:
	// Schedulers and Cycles are the events.Analyze inputs (scheduler group
	// count, cycle count), Warps and FirstWarp the events.FoldTimeline ones (warp
	// count, global ID of its warp 0).
	Recs       []*events.Recorder
	Schedulers []int
	Cycles     []uint64
	Warps      []int
	FirstWarp  []int
}

// runPoint is the one way a point is simulated: take an arena, assemble
// the chip in it, attach what observes it — an event recorder per SM
// when mask is non-zero, the JSONL window stream when jsonl is non-nil,
// ctx's cancellation and "build"/"run" trace spans — run it, fold the
// per-SM results into a Run, hand use the fold, and put the arena back
// for the next assembly. Recording and streaming are passive, so the Run
// is the same whatever is attached.
//
// The fold is made in the machine's arena: the Instrumented use is handed,
// its Run, the Run's Stats and series, Chip and RegionActivations all
// point into it until use returns, and once the arena is back they are the
// next run's memory. So use reads the fold where it lies — serve encodes
// its reply from it — and copies what it keeps with Run.Detach, the one
// copy of a result to the heap. The recorders and their per-SM facts are
// the heap's, use's to keep. use's error is runPoint's.
//
// A failed run puts its arena back too, unless its error carries a
// *sanitizer.Diagnostic, which may quote machine state: failures that do
// are rare enough to leave to the collector.
func runPoint(ctx context.Context, k *isa.Kernel, bench string, scheme Scheme, sms int,
	su SimSetup, tune Tune, mask events.Mask, jsonl *metrics.JSONLWriter, use func(*Instrumented) error) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	// The machine is built at the capacity the run is labelled with.
	key := normKey(bench, scheme, su.Capacity)
	su.Capacity = key.capacity
	tr, parent := obs.FromContext(ctx)
	build := tr.Start(parent, "build")
	a := arena.Take()
	defer func() {
		if err != nil {
			var diag *sanitizer.Diagnostic
			if errors.As(err, &diag) {
				return
			}
		}
		arena.Put(a)
	}()
	g, rp, err := Assemble(a, k, scheme, sms, su, tune)
	tr.End(build)
	if err != nil {
		return err
	}
	if jsonl != nil && g.L2 != nil {
		// Chip-level L2/DRAM counters ride SM 0's window stream (bound
		// before the sink: a registry freezes once it streams).
		g.L2.BindMetrics(g.SMs[0].Metrics)
	}
	inst := arena.New[Instrumented](a)
	for i, smv := range g.SMs {
		if mask != 0 {
			rec := events.NewRecorder(smv.Cfg.Schedulers, mask)
			smv.AttachRecorder(rec)
			inst.Recs = append(inst.Recs, rec)
			inst.Schedulers = append(inst.Schedulers, smv.Cfg.Schedulers)
			inst.Warps = append(inst.Warps, smv.Cfg.Warps)
			inst.FirstWarp = append(inst.FirstWarp, smv.Cfg.WarpIDBase)
		}
		if jsonl != nil {
			labels := []metrics.Label{
				metrics.String("bench", bench),
				metrics.String("scheme", string(scheme)),
				metrics.Int("capacity", key.capacity),
			}
			if len(g.SMs) > 1 { // one SM's records stay as they always were
				labels = append(labels, metrics.Int("sm", i))
			}
			smv.Metrics.SetSink(jsonl.Run(labels...))
		}
	}
	g.AttachContext(ctx)
	cycle := tr.Start(parent, "run")
	res, err := g.Run()
	tr.End(cycle)
	if err != nil {
		return err
	}
	run := arena.New[Run](a)
	*run = Run{Bench: bench, Scheme: scheme, Capacity: key.capacity, Chip: res, Stats: mergeSimStats(a, res)}
	for i, smv := range g.SMs {
		metrics.Add(&run.Prov, &smv.Prov)
		metrics.Add(&run.Mem, &smv.Mem.Stats)
		if mask != 0 {
			inst.Cycles = append(inst.Cycles, res.PerSM[i].Cycles)
		}
	}
	if rp != nil {
		run.Compiled, run.RegionActivations = rp.Compiled(), rp.RegionActivations()
	}
	inst.Run = run
	return use(inst)
}

// loadKernel is kernels.Load under a "kernel-load" trace span.
// kernels.Load memoizes per bench, so the span measures the real (first)
// load.
func loadKernel(ctx context.Context, bench string) (*isa.Kernel, error) {
	tr, parent := obs.FromContext(ctx)
	kl := tr.Start(parent, "kernel-load")
	defer tr.End(kl)
	return kernels.Load(bench)
}

// SimulateKernel runs an arbitrary kernel on a chip of one, outside the
// suite cache: the public Simulate and the ablation table.
func SimulateKernel(k *isa.Kernel, scheme Scheme, su SimSetup, tune Tune) (*Run, error) {
	var run *Run
	err := runPoint(context.Background(), k, k.Name, scheme, 1, su, tune, 0, nil, func(in *Instrumented) error {
		run = in.Run.Detach()
		return nil
	})
	return run, err
}

// SimulateInstrumented runs (bench, scheme) once on sms SMs with the su
// sizing (su.Capacity is the RegLess capacity) and, when mask is
// non-zero, an event recorder keeping those families on every SM — how
// the CLI runs -timeline, -trace and -trace-report. It is SimulateWith
// for a caller that keeps what it is handed: the Instrumented and its Run
// detached from the run's arena.
func SimulateInstrumented(ctx context.Context, bench string, scheme Scheme, sms int, su SimSetup, mask events.Mask) (*Instrumented, error) {
	var out *Instrumented
	err := SimulateWith(ctx, bench, scheme, sms, su, mask, func(in *Instrumented) error {
		kept := *in
		kept.Run = in.Run.Detach()
		out = &kept
		return nil
	})
	return out, err
}

// SimulateWith runs (bench, scheme) as SimulateInstrumented does and hands
// use the simulation where the run folded it, in the machine's arena: what
// use is handed — the Instrumented, its Run and everything the Run points
// to but the recorders — is valid until use returns, and use copies what
// it keeps (Run.Detach). It is how serve runs every point (a "report"
// request is a non-zero mask): the reply is encoded from the fold before
// the arena goes back. Nothing is cached or shared: callers that want that
// have the store, or a Suite. Trace spans are recorded as in Suite.GetCtx;
// unlike a suite run, this one is abandoned with ctx's error once ctx is
// done (serve's job expiry, cancel and drain). use's error is returned as
// it is; a simulation's failure never reaches use.
func SimulateWith(ctx context.Context, bench string, scheme Scheme, sms int, su SimSetup, mask events.Mask, use func(*Instrumented) error) error {
	k, err := loadKernel(ctx, bench)
	if err != nil {
		return err
	}
	return runPoint(ctx, k, bench, scheme, sms, su, nil, mask, nil, use)
}

// mergeSimStats folds per-SM statistics into one SM-shaped Stats, made in
// a (nil: the heap): event counters sum (metrics.Add), and what is not a
// sum is set here — cycles are the chip run time (slowest SM),
// WorkingSetKB averages over SMs (it is itself a per-window mean), and
// BackingSeries sums elementwise (the chip's backing traffic over time).
// The fold of one SM is that SM's statistics, so a chip of one returns
// them as they are — Run.Stats and Run.Chip.PerSM[0] are then one Stats
// with one series, which is sound because a Run is read-only.
func mergeSimStats(a *arena.Arena, res *gpu.Result) *sim.Stats {
	if len(res.PerSM) == 1 {
		return res.PerSM[0]
	}
	out := arena.New[sim.Stats](a)
	n := 0
	for _, st := range res.PerSM {
		n = max(n, len(st.BackingSeries))
	}
	if n > 0 {
		out.BackingSeries = arena.Make[uint64](a, n)
	}
	for _, st := range res.PerSM {
		metrics.Add(out, st)
		out.WorkingSetKB += st.WorkingSetKB
		for i, v := range st.BackingSeries {
			out.BackingSeries[i] += v
		}
	}
	out.Cycles = res.Cycles
	if n := len(res.PerSM); n > 0 {
		out.WorkingSetKB /= float64(n)
	}
	return out
}
