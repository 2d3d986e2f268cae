// Package rf implements the non-RegLess register storage schemes the paper
// compares against: the baseline banked register file, RFV (register file
// virtualization, Jeon et al. [19]), and RFH (the compile-time managed
// register file hierarchy, Gebhart et al. [11]). Each is a plain
// sim.Provider — a register file that always has the operands — so the SM
// never ticks, drains or asks one whether a warp may issue.
package rf

import (
	"repro/internal/exec"
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

// NewBaseline returns the baseline provider.
func NewBaseline() *Baseline { return &Baseline{} }

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
	in := info.Insn
	var banks [BaselineBanks]bool
	conflicts := 0
	for i := 0; i < in.Op.NumSrc(); i++ {
		r := in.Src[i]
		if !r.Valid() {
			continue
		}
		b.st.StructReads++
		b.st.BackingAccesses++
		bank := (int(r) + w.ID) % BaselineBanks
		if banks[bank] {
			conflicts++
		}
		banks[bank] = true
	}
	if in.Op.HasDst() && in.Dst.Valid() {
		b.st.StructWrites++
		b.st.BackingAccesses++
	}
	b.st.BankConflicts += uint64(conflicts)
	return conflicts
}

// OnWarpFinish implements sim.Provider.
func (b *Baseline) OnWarpFinish(*sim.Warp) {}
