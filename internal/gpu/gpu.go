// Package gpu is the chip every run executes on: N streaming
// multiprocessors in lockstep, each with a private L1 and register
// scheme, sharing one banked 2 MB L2 and the DRAM interface (Table 1's
// 16-SM GTX 980) — or, when the assembler says so (Config.PrivateL2: the
// paper's per-SM evaluation, a chip of one), each on its own L2 slice.
// In the default single-kernel mode all SMs
// run the same kernel over disjoint global warp ID ranges — the CUDA
// grid is striped across SMs — and share one functional memory, so the
// multi-SM run is architecturally equivalent to a single functional
// execution of SMs x WarpsPerSM warps. The co-residency mode instead
// partitions the SMs between two (or more) kernels that share nothing
// but the L2 and DRAM — the timing-interference configuration.
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

// Config sizes the chip.
type Config struct {
	// SMs is the multiprocessor count (16 on the GTX 980).
	SMs int
	// SM is the per-SM configuration; WarpIDBase is set per SM.
	SM sim.Config
	// L2 sizes the chip-wide banked L2 and DRAM interface.
	L2 mem.BankedL2Config
	// PrivateL2 gives every SM its own flat L2 slice and DRAM share
	// (sized by SM.Mem) instead of attaching it to the banked L2. It
	// carries one decision made by whoever assembles the chip
	// (experiments.Assemble sets it for a chip of one — the paper's
	// per-SM evaluation); nothing here infers it from the SM count,
	// because 1-SM chips on the banked L2 are legitimate (gpuscale,
	// coresident).
	PrivateL2 bool
}

// DefaultConfig returns the 16-SM GTX 980 configuration.
func DefaultConfig() Config {
	return Config{SMs: 16, SM: sim.DefaultConfig(), L2: mem.DefaultBankedL2Config()}
}

// ProviderFactory builds one SM's register provider. smIndex identifies
// the SM within its kernel (providers needing disjoint backing-store
// spaces derive an address offset from it).
type ProviderFactory func(smIndex int) (sim.Provider, error)

// KernelSlot describes one co-resident kernel: which kernel, how many of
// the chip's SMs it owns, and how its SMs' providers are built. Each
// slot has its own functional memory (kernels do not share allocations);
// AddrBias keeps the slots' identical virtual layouts on distinct L2
// lines at the timing level.
type KernelSlot struct {
	K       *isa.Kernel
	SMs     int
	Factory ProviderFactory
	// Mem is the slot's functional memory (nil: fresh).
	Mem *exec.Memory
	// AddrBias offsets the slot's addresses in the shared L2.
	AddrBias uint32
}

// GPU is the lockstep multi-SM machine.
type GPU struct {
	Cfg Config
	SMs []*sim.SM
	// Slot maps SM index -> co-resident kernel slot (all zero in
	// single-kernel mode).
	Slot []int
	// L2 is the shared banked level (nil when Cfg.PrivateL2 gave each
	// SM its own slice).
	L2 *mem.BankedL2
	// Mems holds each slot's functional memory (one entry in
	// single-kernel mode).
	Mems []*exec.Memory

	// ctx is what Run hands the cycle loop to poll (AttachContext).
	ctx context.Context
}

// AttachContext makes Run abandon the simulation once ctx is done (the
// cycle loop polls it; see sim.RunLockstep). Without it Run cannot be
// canceled.
func (g *GPU) AttachContext(ctx context.Context) { g.ctx = ctx }

// New builds a single-kernel GPU: one SM per index, private L1s over the
// configured L2 level, the grid striped across SMs by warp ID.
func New(cfgv Config, k *isa.Kernel, factory ProviderFactory, mm *exec.Memory) (*GPU, error) {
	return NewIn(nil, cfgv, k, factory, mm)
}

// NewIn is New with the whole chip — the SMs and everything under them,
// the L2 level, a memory the caller passed nil for — allocated from a
// (nil: the heap). The caller owns a: once the run's results have been
// read out it may put the arena back and the chip is gone with it
// (experiments.runPoint). A memory the caller passed in stays the
// caller's, wherever it was made.
func NewIn(a *arena.Arena, cfgv Config, k *isa.Kernel, factory ProviderFactory, mm *exec.Memory) (*GPU, error) {
	return newChip(a, cfgv, []KernelSlot{{K: k, SMs: cfgv.SMs, Factory: factory, Mem: mm}})
}

// NewCoResident builds a chip whose SMs are partitioned between kernel
// slots contending for the shared L2 and DRAM. Config.SMs is ignored;
// the chip has the sum of the slots' SM counts.
func NewCoResident(cfgv Config, slots []KernelSlot) (*GPU, error) { return newChip(nil, cfgv, slots) }

var (
	gpuT   = arena.Of[GPU]()
	smPtrT = arena.Of[*sim.SM]()
	memT   = arena.Of[*exec.Memory]()
	intT   = arena.Of[int]()
)

func newChip(a *arena.Arena, cfgv Config, slots []KernelSlot) (*GPU, error) {
	total := 0
	for _, s := range slots {
		if s.SMs <= 0 {
			return nil, fmt.Errorf("gpu: slot needs at least one SM")
		}
		total += s.SMs
	}
	if total <= 0 {
		return nil, fmt.Errorf("gpu: need at least one SM")
	}
	g := gpuT.New(a)
	*g = GPU{
		Cfg:  cfgv,
		SMs:  smPtrT.Make(a, total)[:0],
		Slot: intT.Make(a, total)[:0],
		Mems: memT.Make(a, len(slots))[:0],
		ctx:  context.Background(),
	}
	if !cfgv.PrivateL2 {
		l2, err := mem.NewBankedL2In(a, cfgv.L2)
		if err != nil {
			return nil, err
		}
		g.L2 = l2
	}
	for si := range slots {
		s := &slots[si]
		if s.Mem == nil {
			s.Mem = exec.NewMemoryIn(a, nil)
		}
		g.Mems = append(g.Mems, s.Mem)
		for i := 0; i < s.SMs; i++ {
			p, err := s.Factory(i)
			if err != nil {
				return nil, fmt.Errorf("gpu: slot %d SM %d provider: %w", si, i, err)
			}
			smCfg := cfgv.SM
			// Warp IDs are slot-local: each kernel covers warps
			// [0, SMs*Warps) of its own grid.
			smCfg.WarpIDBase = i * smCfg.Warps
			smCfg.Mem.AddrBias = s.AddrBias
			var hier *mem.Hierarchy // nil: sim builds the private slice
			if g.L2 != nil {
				hier = g.L2.AttachHierarchy(smCfg.Mem) // made where the L2 was
			}
			smv, err := sim.NewWithHierarchyIn(a, smCfg, s.K, p, s.Mem, hier)
			if err != nil {
				return nil, fmt.Errorf("gpu: slot %d SM %d: %w", si, i, err)
			}
			g.SMs = append(g.SMs, smv)
			g.Slot = append(g.Slot, si)
		}
	}
	return g, nil
}

// FromSMs wraps prebuilt lockstep SMs that already share l2 in a chip
// runner — the launch package's block scheduler builds one chip per
// occupancy wave this way, keeping the banked L2 warm across waves.
func FromSMs(cfgv Config, l2 *mem.BankedL2, sms []*sim.SM, mems []*exec.Memory) *GPU {
	return &GPU{Cfg: cfgv, L2: l2, SMs: sms, Slot: make([]int, len(sms)), Mems: mems, ctx: context.Background()}
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
	res := &Result{KernelCycles: make([]uint64, len(g.Mems))}
	if g.L2 != nil {
		if err := g.L2.CheckInvariants(); err != nil {
			return nil, err
		}
		res.L2 = g.L2.Stats
	}
	for i, smv := range g.SMs {
		st := smv.Finalize()
		res.PerSM = append(res.PerSM, st)
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
