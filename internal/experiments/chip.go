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
	"fmt"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/launch"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rf"
	"repro/internal/sanitizer"
	"repro/internal/sim"
)

// schemeProvider is the one scheme → register file table: it sets the
// warp scheduler the scheme implies on simCfg and returns what builds the
// provider for SM number sm of a slot running k. RegLess providers are
// built from the returned configuration as it reads when mk runs — so an
// Assemble Tune applied in between is seen — in the SM's own
// backing-store window: disjoint 16 MB offsets keep per-SM register
// spills from aliasing in a shared L2 (one kernel's SMs share data lines
// but never register lines).
func schemeProvider(scheme Scheme, capacity int, simCfg *sim.Config) (mk gpu.ProviderFactory, rl *core.Config, err error) {
	c := core.ConfigForCapacity(capacity)
	c.EnableCompressor = scheme == SchemeRegLess
	baseline := func(int, *isa.Kernel) (sim.Provider, error) { return rf.NewBaseline(), nil }
	switch scheme {
	case SchemeBaseline:
		mk = baseline
	case SchemeBaseline2L:
		simCfg.Sched, mk = sim.SchedTwoLevel, baseline
	case SchemeRFV:
		simCfg.Sched = sim.SchedTwoLevel
		mk = func(int, *isa.Kernel) (sim.Provider, error) { return rf.NewRFV(RFVEntries), nil }
	case SchemeRFH:
		simCfg.Sched = sim.SchedTwoLevel
		mk = func(int, *isa.Kernel) (sim.Provider, error) { return rf.NewRFH(RFHORFEntries), nil }
	case SchemeRegLess, SchemeRegLessNC:
		mk = func(sm int, k *isa.Kernel) (sim.Provider, error) {
			smc := c
			smc.AddrOffset = uint32(sm) << 24
			return core.New(smc, k)
		}
	default:
		return nil, nil, fmt.Errorf("unknown scheme %q", scheme)
	}
	return mk, &c, nil
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
// The machine is allocated from a: runPoint passes the arena it took and
// puts it back when the run is folded; everyone who keeps the chip —
// the launch sequences, tests, BuildChip/BuildSM's callers — passes nil,
// the heap. What su hands in is the caller's either way.
func Assemble(a *arena.Arena, k *isa.Kernel, scheme Scheme, sms int, su SimSetup, tune Tune) (*gpu.GPU, *core.Provider, error) {
	cfg := gpu.DefaultConfig()
	slots := make([]gpu.KernelSlot, 1, 1+len(su.CoResident))
	slots[0] = gpu.KernelSlot{K: k, SMs: sms, Mem: su.Memory}
	total := sms
	for _, s := range su.CoResident {
		slots = append(slots, s)
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

	mk, rl, err := schemeProvider(scheme, su.Capacity, &cfg.SM)
	if err != nil {
		return nil, nil, err
	}
	if tune != nil {
		tune(&cfg.SM, rl)
	}
	g, err := gpu.New(a, cfg, gpu.Launch{
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

// Launch runs kernels back to back on chips of sms SMs, each over a grid of
// gridWarps warps in waves of at most su.Warps resident per SM
// (launch.Run): every chip is assembled from su with its wave's warp
// range. All launches share su.Memory (a fresh one when nil), so the
// sequence is architecturally one big run; what timing state persists
// between them is the standing memory su hands in — nothing, a banked L2,
// or the SM's hierarchy.
func Launch(ks []*isa.Kernel, scheme Scheme, sms, gridWarps int, su SimSetup) (*launch.Result, error) {
	if su.Memory == nil {
		su.Memory = exec.NewMemory(nil)
	}
	return launch.Run(ks, gridWarps, su.Warps*sms, func(k *isa.Kernel, first, end int) (*gpu.GPU, error) {
		su.FirstWarp, su.EndWarp = first, end
		g, _, err := Assemble(nil, k, scheme, sms, su, nil)
		return g, err
	})
}

// BuildChip is Assemble for a suite benchmark by name. It and BuildSM are
// shims with no caller in this module: benchmark/layers.go, which only a
// benchmark-kind PR may edit, calls each at one site. That PR moves them
// to Assemble and deletes both in one step (ROADMAP item 7(d)).
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
	// count, cycle count), Warps and FirstWarp the trace.Fold ones (warp
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
// per-SM results into a Run, and put the arena back for the next
// assembly. Recording and streaming are passive, so the Run is the same
// whatever is attached. Nothing the Run, the recorders or the stream keep
// may point into the machine: once the arena is back, the machine is the
// next run's memory. A failed run puts nothing back: its
// *sanitizer.Diagnostic may quote machine state, and failures are rare
// enough to leave to the collector.
func runPoint(ctx context.Context, k *isa.Kernel, bench string, scheme Scheme, sms int,
	su SimSetup, tune Tune, mask events.Mask, jsonl *metrics.JSONLWriter) (*Instrumented, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The machine is built at the capacity the run is labelled with.
	key := normKey(bench, scheme, su.Capacity)
	su.Capacity = key.capacity
	tr, parent := obs.FromContext(ctx)
	build := tr.Start(parent, "build")
	a := arena.Take()
	g, rp, err := Assemble(a, k, scheme, sms, su, tune)
	tr.End(build)
	if err != nil {
		return nil, err
	}
	inst := &Instrumented{Run: &Run{Bench: bench, Scheme: scheme, Capacity: key.capacity}}
	if jsonl != nil && g.L2 != nil {
		// Chip-level L2/DRAM counters ride SM 0's window stream (bound
		// before the sink: a registry freezes once it streams).
		g.L2.BindMetrics(g.SMs[0].Metrics)
	}
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
		return nil, err
	}
	run := inst.Run
	run.Chip = res
	run.Stats = mergeSimStats(res)
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
	arena.Put(a)
	return inst, nil
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
	inst, err := runPoint(context.Background(), k, k.Name, scheme, 1, su, tune, 0, nil)
	if err != nil {
		return nil, err
	}
	return inst.Run, nil
}

// SimulateInstrumented runs (bench, scheme) once on sms SMs with the su
// sizing (su.Capacity is the RegLess capacity) and, when mask is
// non-zero, an event recorder keeping those families on every SM — how
// serve runs every point (a "report" request is a non-zero mask) and how
// the CLI runs -timeline, -trace and -trace-report. Nothing is cached or
// shared: callers that want that have the store, or a Suite.
// Cancellation and trace spans work as in Suite.GetCtx.
func SimulateInstrumented(ctx context.Context, bench string, scheme Scheme, sms int, su SimSetup, mask events.Mask) (*Instrumented, error) {
	k, err := loadKernel(ctx, bench)
	if err != nil {
		return nil, err
	}
	return runPoint(ctx, k, bench, scheme, sms, su, nil, mask, nil)
}

// mergeSimStats folds per-SM statistics into one SM-shaped Stats: event
// counters sum (metrics.Add), and what is not a sum is set here — cycles
// are the chip run time (slowest SM), WorkingSetKB averages over SMs (it
// is itself a per-window mean), and BackingSeries sums elementwise (the
// chip's backing traffic over time). The fold of one SM is that SM's
// statistics, so a chip of one returns them as they are — Run.Stats and
// Run.Chip.PerSM[0] are then one Stats with one series, which is sound
// because a Run is read-only.
func mergeSimStats(res *gpu.Result) *sim.Stats {
	if len(res.PerSM) == 1 {
		return res.PerSM[0]
	}
	out := &sim.Stats{}
	for _, st := range res.PerSM {
		metrics.Add(out, st)
		out.WorkingSetKB += st.WorkingSetKB
		if grow := len(st.BackingSeries) - len(out.BackingSeries); grow > 0 {
			out.BackingSeries = append(out.BackingSeries, make([]uint64, grow)...)
		}
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
