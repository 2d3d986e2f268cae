// Package rf implements the non-RegLess register storage schemes the paper
// compares against: the baseline banked register file, RFV (register file
// virtualization, Jeon et al. [19]), and RFH (the compile-time managed
// register file hierarchy, Gebhart et al. [11]). Each is a plain
// sim.Provider — a register file that always has the operands — so the SM
// never ticks, drains or asks one whether a warp may issue.
package rf

import (
	"repro/internal/arena"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/sim"
)

// BaselineBanks is the baseline register file's bank count per SM.
const BaselineBanks = 32

// Baseline is the conventional full-size register file: every operand read
// and write accesses the main RF. It never stalls a warp.
type Baseline struct {
	sm *sim.SM
	st *sim.ProviderStats
}

var _ sim.Provider = (*Baseline)(nil)

// NewBaseline returns the baseline provider, allocated from a (nil: the
// heap).
func NewBaseline(a *arena.Arena) *Baseline { return arena.New[Baseline](a) }

// Name implements sim.Provider.
func (b *Baseline) Name() string { return "baseline" }

// Attach implements sim.Provider.
func (b *Baseline) Attach(sm *sim.SM) error {
	b.sm = sm
	b.st = &sm.Prov
	return nil
}

// OnIssue counts RF accesses and charges operand-bank conflicts.
func (b *Baseline) OnIssue(w *sim.Warp, info *exec.StepInfo) int {
	rec := info.D
	var banks [BaselineBanks]bool
	conflicts := 0
	for _, r := range rec.Srcs() {
		bank := (int(r) + w.ID) % BaselineBanks
		if banks[bank] {
			conflicts++
		}
		banks[bank] = true
	}
	b.st.StructReads += uint64(rec.NSrc)
	b.st.BackingAccesses += uint64(rec.NSrc)
	if rec.Dst != isa.NoReg {
		b.st.StructWrites++
		b.st.BackingAccesses++
	}
	b.st.BankConflicts += uint64(conflicts)
	return conflicts
}

// OnWarpFinish implements sim.Provider.
func (b *Baseline) OnWarpFinish(*sim.Warp) {}
