// Package gpu is the chip every run executes on: N streaming
// multiprocessors in lockstep, each with a private L1 and register
// scheme, sharing one banked 2 MB L2 and the DRAM interface (Table 1's
// 16-SM GTX 980) — or, when the assembler says so (Config.PrivateL2: the
// paper's per-SM evaluation, a chip of one), each on a one-bank slice of
// its own (mem.New). Both are the one L2 model, mem.BankedL2.
// What a chip runs is a Launch. With one kernel slot all SMs run the same
// kernel over disjoint global warp ID ranges — the CUDA grid is striped
// across SMs — and share one functional memory, so the multi-SM run is
// architecturally equivalent to a single functional execution of the
// launch's warps. Several slots partition the SMs between co-resident
// kernels that share nothing but the L2 and DRAM — the
// timing-interference configuration.
//
// The chip clock is the lockstep invariant: every non-finished SM sits
// at the same cycle, which makes SM index the deterministic arbitration
// order for same-cycle L2 bank conflicts. The cycle loop itself —
// stepping, health checks, the coordinated fast-forward, context polling
// — is sim.RunLockstep, the same loop a lone sim.SM.Run is; this package
// builds the SMs over their L2 level and folds their results.
package gpu

import (
	"context"
	"fmt"

	"repro/internal/arena"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Config sizes the chip's hardware.
type Config struct {
	// SM is the per-SM configuration; Warps is the most warps an SM holds
	// (the launch's warp range may give the last SM fewer) and WarpIDBase
	// is set per SM.
	SM sim.Config
	// L2 sizes the chip-wide banked L2 and DRAM interface.
	L2 mem.BankedL2Config
	// PrivateL2 gives every SM a one-bank slice of its own with its DRAM
	// share (sized by SM.Mem) instead of attaching it to the banked L2. It
	// carries one decision made by whoever assembles the chip
	// (experiments.Assemble sets it for a chip of one that was handed no
	// banked L2 — the paper's per-SM evaluation); nothing here infers it
	// from the SM count, because 1-SM chips on the banked L2 are
	// legitimate (gpuscale, coresident).
	PrivateL2 bool
}

// DefaultConfig returns the GTX 980's SM and L2 configuration.
func DefaultConfig() Config {
	return Config{SM: sim.DefaultConfig(), L2: mem.DefaultBankedL2Config()}
}

// ProviderFactory builds one SM's register provider for the kernel its
// slot runs, in the chip's arena a (nil: the heap). sm identifies the SM
// within its kernel (providers needing disjoint backing-store spaces
// derive an address offset from it). It is an interface so that a
// factory carrying configuration is a pointer to it — which may itself
// live in the arena — rather than a closure the heap has to hold.
type ProviderFactory interface {
	NewProvider(a *arena.Arena, sm int, k *isa.Kernel) (sim.Provider, error)
}

// FactoryFunc is a function as a ProviderFactory.
type FactoryFunc func(a *arena.Arena, sm int, k *isa.Kernel) (sim.Provider, error)

// NewProvider implements ProviderFactory.
func (f FactoryFunc) NewProvider(a *arena.Arena, sm int, k *isa.Kernel) (sim.Provider, error) {
	return f(a, sm, k)
}

// KernelSlot is one kernel's share of the chip: which kernel and how many
// SMs it owns. Each slot has its own functional memory (kernels do not
// share allocations); AddrBias keeps co-resident slots' identical virtual
// layouts on distinct L2 lines at the timing level.
type KernelSlot struct {
	K   *isa.Kernel
	SMs int
	// Mem is the slot's functional memory (nil: fresh). A caller that
	// launches a grid in waves, or an application kernel by kernel, hands
	// every launch the same one.
	Mem *exec.Memory
	// AddrBias offsets the slot's addresses in the shared L2.
	AddrBias uint32
}

// Launch is what one chip is built to run: the kernel slots its SMs are
// split into, the warps of each slot's grid it covers, and the memory
// state it inherits from the launch before it. The zero range and nil
// memories are a whole-chip launch on cold caches.
type Launch struct {
	// Slots partition the SMs in order; one slot stripes a single
	// kernel's grid across the whole chip, several are co-resident
	// kernels sharing nothing but the L2 and DRAM.
	Slots []KernelSlot
	// Factory builds every SM's provider.
	Factory ProviderFactory
	// FirstWarp is the global ID of the launch's first warp: SM i of a
	// slot hosts warps from FirstWarp + i*Config.SM.Warps of the slot's
	// grid. EndWarp, when non-zero, ends the range: the SM it falls in
	// holds the short last chunk and the first slot's SMs past it are not
	// built (a grid's last wave); a range that leaves an SM of a later,
	// co-resident slot unbuilt is an error.
	FirstWarp, EndWarp int
	// L2 is a standing banked L2 the chip runs on instead of a cold one:
	// contents and statistics from earlier launches, timing reset here.
	L2 *mem.BankedL2
	// Hier is the standing private hierarchy of a chip of one on a
	// private L2 (an application's kernels run over the same caches).
	Hier *mem.Hierarchy
}

// GPU is the lockstep multi-SM machine.
type GPU struct {
	Cfg Config
	SMs []*sim.SM
	// Slot maps SM index -> kernel slot.
	Slot []int
	// L2 is the shared banked level (nil when Cfg.PrivateL2 gave each
	// SM its own slice).
	L2 *mem.BankedL2
	// Mems holds each slot's functional memory.
	Mems []*exec.Memory

	// ctx is what Run hands the cycle loop to poll (AttachContext).
	ctx context.Context
	// a is the arena the chip was built from and Run folds its result
	// into (nil: the heap).
	a *arena.Arena
}

// AttachContext makes Run abandon the simulation once ctx is done (the
// cycle loop polls it; see sim.RunLockstep). Without it Run cannot be
// canceled.
func (g *GPU) AttachContext(ctx context.Context) { g.ctx = ctx }

// New builds the chip for one launch: private L1s over the configured L2
// level, each slot's warp range striped across its SMs by warp ID. The
// whole chip — the SMs and everything under them, their providers, an L2
// level or a functional memory the launch did not hand in — is allocated
// from a (nil: the heap), and so is the Result Run folds. The caller owns
// a: once the run's results have been read out it may put the arena back
// and the chip and its Result are gone with it (experiments.runPoint).
// What the launch handed in stays the caller's, wherever it was made.
func New(a *arena.Arena, cfgv Config, l Launch) (*GPU, error) {
	total := 0
	for _, s := range l.Slots {
		if s.SMs <= 0 {
			return nil, fmt.Errorf("gpu: slot needs at least one SM")
		}
		total += s.SMs
	}
	if total <= 0 {
		return nil, fmt.Errorf("gpu: need at least one SM")
	}
	if l.EndWarp != 0 && l.EndWarp <= l.FirstWarp {
		return nil, fmt.Errorf("gpu: empty warp range [%d, %d)", l.FirstWarp, l.EndWarp)
	}
	if cfgv.PrivateL2 && l.L2 != nil || l.Hier != nil && (!cfgv.PrivateL2 || total != 1) {
		return nil, fmt.Errorf("gpu: standing memory does not match the chip's L2 level")
	}
	g := arena.New[GPU](a)
	*g = GPU{
		Cfg:  cfgv,
		SMs:  arena.Make[*sim.SM](a, total)[:0],
		Slot: arena.Make[int](a, total)[:0],
		Mems: arena.Make[*exec.Memory](a, len(l.Slots))[:0],
		L2:   l.L2,
		ctx:  context.Background(),
		a:    a,
	}
	switch {
	case l.Hier != nil:
		// Standing memory keeps its lines and counters; its clocks
		// restart with this chip's.
		l.Hier.ResetTiming()
	case g.L2 != nil:
		g.L2.ResetTiming()
	case !cfgv.PrivateL2:
		l2, err := mem.NewBankedL2In(a, cfgv.L2)
		if err != nil {
			return nil, err
		}
		g.L2 = l2
	}
	for si := range l.Slots {
		s := &l.Slots[si]
		mm := s.Mem
		if mm == nil {
			mm = exec.NewMemoryIn(a, nil)
		}
		g.Mems = append(g.Mems, mm)
		for i := 0; i < s.SMs; i++ {
			smCfg := cfgv.SM
			// Warp IDs are slot-local: each kernel covers the launch's
			// range of its own grid.
			smCfg.WarpIDBase = l.FirstWarp + i*smCfg.Warps
			if l.EndWarp != 0 {
				if smCfg.WarpIDBase >= l.EndWarp {
					if si > 0 { // a co-resident kernel built short computes less than it does alone
						return nil, fmt.Errorf("gpu: warp range [%d, %d) leaves SM %d of co-resident slot %d unbuilt", l.FirstWarp, l.EndWarp, i, si)
					}
					break
				}
				smCfg.Warps = min(smCfg.Warps, l.EndWarp-smCfg.WarpIDBase)
			}
			p, err := l.Factory.NewProvider(a, i, s.K)
			if err != nil {
				return nil, fmt.Errorf("gpu: slot %d SM %d provider: %w", si, i, err)
			}
			smCfg.Mem.AddrBias = s.AddrBias
			hier := l.Hier // nil: sim builds the private slice
			if g.L2 != nil {
				hier = g.L2.AttachHierarchy(smCfg.Mem) // made where the L2 was
			}
			smv, err := sim.New(a, smCfg, s.K, p, mm, hier)
			if err != nil {
				return nil, fmt.Errorf("gpu: slot %d SM %d: %w", si, i, err)
			}
			g.SMs = append(g.SMs, smv)
			g.Slot = append(g.Slot, si)
		}
	}
	return g, nil
}

// Result summarizes a multi-SM run.
type Result struct {
	// Cycles is the chip run time: the slowest SM.
	Cycles uint64
	// PerSM holds each SM's statistics.
	PerSM []*sim.Stats
	// TotalInsns sums dynamic instructions across SMs.
	TotalInsns uint64
	// L2 is the chip-level L2/DRAM traffic (bank ports, MSHRs, DRAM
	// bandwidth) aggregated across all SMs.
	L2 mem.BankedL2Stats
	// KernelCycles is each co-resident slot's completion cycle (the
	// slowest of its SMs); one entry in single-kernel mode.
	KernelCycles []uint64
	// FFSkippedCycles/FFJumps total the chip-coordinated fast-forward's
	// work (also present per SM in PerSM).
	FFSkippedCycles, FFJumps uint64
}

// Run advances every SM in lockstep until all finish (sim.RunLockstep),
// checking the shared L2's invariants at every fast-forward boundary and
// at the end. An SM's abnormal termination (MaxCycles, watchdog,
// sanitizer) is its *sanitizer.Diagnostic, prefixed with the SM's index
// when the chip has more than one.
//
// The Result, and every SM's statistics in it (sim.SM.Finalize), is
// folded into the chip's arena: on a heap chip it is a heap result that
// holds no machine, on an arena chip it is gone with the arena.
func (g *GPU) Run() (*Result, error) {
	var checkL2 func() error
	if g.L2 != nil {
		checkL2 = g.L2.CheckInvariants
	}
	if sm, err := sim.RunLockstep(g.ctx, g.SMs, checkL2); err != nil {
		if sm >= 0 && len(g.SMs) > 1 {
			err = fmt.Errorf("gpu: SM %d: %w", sm, err)
		}
		return nil, err
	}
	if g.L2 != nil {
		if err := g.L2.CheckInvariants(); err != nil {
			return nil, err
		}
	}
	res := arena.New[Result](g.a)
	res.KernelCycles = arena.Make[uint64](g.a, len(g.Mems))
	res.PerSM = arena.Make[*sim.Stats](g.a, len(g.SMs))
	if g.L2 != nil {
		res.L2 = g.L2.Stats
	}
	for i, smv := range g.SMs {
		st := smv.Finalize()
		res.PerSM[i] = st
		res.TotalInsns += st.DynInsns
		res.FFSkippedCycles += st.FFSkippedCycles
		res.FFJumps += st.FFJumps
		if st.Cycles > res.Cycles {
			res.Cycles = st.Cycles
		}
		if s := g.Slot[i]; s < len(res.KernelCycles) && st.Cycles > res.KernelCycles[s] {
			res.KernelCycles[s] = st.Cycles
		}
	}
	return res, nil
}
