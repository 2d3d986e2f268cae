package rf

import (
	"repro/internal/arena"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/sim"
)

// RFH models the compile-time managed register file hierarchy (Gebhart et
// al. [11]): a last-result file (LRF) capturing immediate producer-to-
// consumer forwarding, a small per-warp operand register file (ORF), and
// the full-size main register file (MRF) behind them. Reads and writes are
// classified by which level serves them; MRF traffic is the backing-store
// access count compared in Figure 3. The scheme is designed around the
// two-level warp scheduler (the experiments run it with
// sim.SchedTwoLevel, which is why its geomean trails the GTO baseline,
// §6.4).
type RFH struct {
	sm *sim.SM
	st *sim.ProviderStats

	// ORFEntries is the per-warp operand buffer capacity (8-entry
	// scratchpad in Figure 3's configuration).
	ORFEntries int

	lastDst []isa.Reg   // per warp: destination of the previous instruction
	orf     [][]isa.Reg // per warp: LRU list of buffered registers
}

var _ sim.Provider = (*RFH)(nil)

// NewRFH builds the provider with the given per-warp ORF capacity,
// allocated from a (nil: the heap).
func NewRFH(a *arena.Arena, orfEntries int) *RFH {
	h := arena.New[RFH](a)
	h.ORFEntries = orfEntries
	return h
}

// Name implements sim.Provider.
func (h *RFH) Name() string { return "rfh" }

// Attach implements sim.Provider.
func (h *RFH) Attach(sm *sim.SM) error {
	h.sm = sm
	h.st = &sm.Prov
	h.lastDst = arena.Make[isa.Reg](sm.Arena(), len(sm.Warps))
	for i := range h.lastDst {
		h.lastDst[i] = isa.NoReg
	}
	h.orf = arena.Make[[]isa.Reg](sm.Arena(), len(sm.Warps))
	return nil
}

// orfHit reports whether r is buffered for warp w, refreshing LRU order.
func (h *RFH) orfHit(w int, r isa.Reg) bool {
	lst := h.orf[w]
	for i, x := range lst {
		if x == r {
			copy(lst[1:i+1], lst[:i])
			lst[0] = r
			return true
		}
	}
	return false
}

// orfInsert buffers r for warp w, spilling the LRU entry to the MRF.
func (h *RFH) orfInsert(w int, r isa.Reg) {
	if h.orfHit(w, r) {
		return
	}
	lst := h.orf[w]
	if len(lst) < h.ORFEntries {
		if lst == nil {
			lst = arena.Make[isa.Reg](h.sm.Arena(), h.ORFEntries)[:0]
		}
		lst = append(lst, r)
		copy(lst[1:], lst)
		lst[0] = r
		h.orf[w] = lst
		return
	}
	// Evict LRU to the main register file.
	h.st.MRFAccesses++
	h.st.BackingAccesses++
	copy(lst[1:], lst[:len(lst)-1])
	lst[0] = r
}

// OnIssue classifies each operand access by hierarchy level.
func (h *RFH) OnIssue(w *sim.Warp, info *exec.StepInfo) int {
	rec := info.D
	for _, r := range rec.Srcs() {
		h.st.StructReads++
		switch {
		case r == h.lastDst[w.ID]:
			h.st.LRFAccesses++
		case h.orfHit(w.ID, r):
			h.st.ORFAccesses++
		default:
			h.st.MRFAccesses++
			h.st.BackingAccesses++
			h.orfInsert(w.ID, r)
		}
	}
	if dst := rec.Dst; dst != isa.NoReg {
		h.st.StructWrites++
		// Writes land in the ORF (compiler-allocated); eviction later
		// costs an MRF access.
		h.orfInsert(w.ID, dst)
		h.lastDst[w.ID] = dst
	} else {
		h.lastDst[w.ID] = isa.NoReg
	}
	return 0
}

// OnWarpFinish implements sim.Provider.
func (h *RFH) OnWarpFinish(w *sim.Warp) { h.orf[w.ID] = nil }
