package rf

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/cfg"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/sim"
)

// RFV models register file virtualization (Jeon et al. [19]): a half-size
// physical register file with renaming. Dead values' physical registers
// are released at their last read (compiler last-use annotations) and
// writes allocate physical registers on demand. When the pool is
// exhausted, the oldest resident mapping is victimized to the memory
// system and must be refilled (with a latency penalty and extra backing
// traffic) before its next use — the register-pressure cost the paper
// reports for dwt2d and hotspot (§6.3).
type RFV struct {
	sm *sim.SM
	lv *cfg.Liveness
	st *sim.ProviderStats

	physRegs int
	free     int

	// mapped[w][r]: (warp w, arch reg r) holds a physical register.
	mapped [][]bool
	// spilled[w][r]: the value was victimized and lives in memory.
	spilled [][]bool
	// fifo orders resident mappings for victim selection.
	fifo victimFIFO

	// SpillPenalty is the issue-stall charged to refill a spilled value.
	SpillPenalty int
	spills       uint64
	refills      uint64
}

// rfvEntry is four bytes: every allocation queues one, and a mapping
// released at its last read leaves its entry queued until it reaches the
// head, so with a pool that never runs dry the queue grows by one entry
// per register write for the whole run.
type rfvEntry struct {
	warp uint16
	reg  isa.Reg
}

// victimFIFO is a ring buffer of mappings, oldest first. Under register
// pressure every allocation pops a victim and pushes the new mapping, so
// the queue must not pay for its length on either end: popping by
// reslicing from the front made append regrow the array again and again.
// The ring doubles when full and allocates nothing in steady state.
type victimFIFO struct {
	buf     []rfvEntry // len is a power of two
	head, n int
	a       *arena.Arena // what the ring grows in (nil: the heap)
}

var (
	entryT = arena.Of[rfvEntry]()
	boolT  = arena.Of[bool]()
	boolsT = arena.Of[[]bool]()
)

func (q *victimFIFO) push(e rfvEntry) {
	if q.n == len(q.buf) {
		grown := entryT.Make(q.a, max(2*len(q.buf), 256))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *victimFIFO) pop() rfvEntry {
	e := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return e
}

// NewRFV builds the provider with the given physical pool size (the paper
// assumes half the baseline register file).
func NewRFV(physRegs int) *RFV {
	return &RFV{physRegs: physRegs, SpillPenalty: 40}
}

// Name implements sim.Provider.
func (v *RFV) Name() string { return "rfv" }

// Attach implements sim.Provider.
func (v *RFV) Attach(sm *sim.SM) error {
	if len(sm.Warps) > 1<<16 {
		return fmt.Errorf("rf: RFV indexes at most %d warps, SM has %d", 1<<16, len(sm.Warps))
	}
	a, warps, regs := sm.Arena(), len(sm.Warps), sm.K.NumRegs
	v.sm = sm
	v.st = &sm.Prov
	_, v.lv = cfg.For(sm.K)
	v.free = v.physRegs
	v.fifo.a = a
	v.mapped, v.spilled = boolsT.Make(a, warps), boolsT.Make(a, warps)
	bits := boolT.Make(a, 2*warps*regs)
	for i := range v.mapped {
		v.mapped[i], bits = bits[:regs:regs], bits[regs:]
		v.spilled[i], bits = bits[:regs:regs], bits[regs:]
	}
	return nil
}

// alloc maps (w, r), victimizing the oldest resident mapping if needed,
// and returns the penalty incurred.
func (v *RFV) alloc(w int, r isa.Reg) int {
	penalty := 0
	if v.free == 0 {
		// Victimize the oldest resident mapping: its value moves to
		// the memory system (costing a backing write) and must be
		// refilled before reuse.
		for v.fifo.n > 0 {
			e := v.fifo.pop()
			if v.mapped[e.warp][e.reg] {
				v.mapped[e.warp][e.reg] = false
				v.spilled[e.warp][e.reg] = true
				v.free++
				v.spills++
				v.st.Evictions++
				v.st.BackingAccesses++
				break
			}
		}
		if v.free == 0 {
			// Pool smaller than one instruction's needs; charge the
			// penalty and proceed (degenerate configuration).
			v.st.StallCycles++
			return v.SpillPenalty
		}
	}
	v.free--
	v.mapped[w][r] = true
	v.fifo.push(rfvEntry{warp: uint16(w), reg: r})
	return penalty
}

// touch ensures (w, r) is resident before an access, refilling spills.
func (v *RFV) touch(w int, r isa.Reg) int {
	if v.mapped[w][r] {
		return 0
	}
	penalty := v.alloc(w, r)
	if v.spilled[w][r] {
		v.spilled[w][r] = false
		v.refills++
		v.st.BackingAccesses++ // refill read from the memory system
		penalty += v.SpillPenalty
	}
	return penalty
}

// OnIssue performs renaming, access counting, last-use release, and
// spill/refill accounting.
func (v *RFV) OnIssue(w *sim.Warp, info *exec.StepInfo) int {
	in := info.Insn
	gi := v.sm.G.GlobalIndex(info.PC)
	penalty := 0
	for i := 0; i < in.Op.NumSrc(); i++ {
		r := in.Src[i]
		if !r.Valid() {
			continue
		}
		v.st.StructReads++
		penalty += v.touch(w.ID, r)
		// Release at last read (renaming reclaims dead values).
		if v.lv.IsLastUse(gi, r) && v.mapped[w.ID][r] {
			v.mapped[w.ID][r] = false
			v.free++
		}
	}
	if in.Op.HasDst() && in.Dst.Valid() {
		v.st.StructWrites++
		if !v.mapped[w.ID][in.Dst] {
			// A fresh write does not refill: the old value dies.
			v.spilled[w.ID][in.Dst] = false
			penalty += v.alloc(w.ID, in.Dst)
		}
	}
	if penalty > 0 {
		v.st.StallCycles += uint64(penalty)
	}
	return penalty
}

// OnWriteback implements sim.Provider.
func (v *RFV) OnWriteback(*sim.Warp, isa.Reg) {}

// OnWarpFinish releases the warp's remaining physical registers.
func (v *RFV) OnWarpFinish(w *sim.Warp) {
	for r, m := range v.mapped[w.ID] {
		if m {
			v.mapped[w.ID][r] = false
			v.free++
		}
		v.spilled[w.ID][r] = false
	}
}

// Tick implements sim.Provider.
func (v *RFV) Tick() {}

// Drained implements sim.Provider.
func (v *RFV) Drained() bool { return true }

// LiveMapped returns the currently mapped physical register count (tests).
func (v *RFV) LiveMapped() int { return v.physRegs - v.free }

// Spills returns the victimization count (tests and experiments).
func (v *RFV) Spills() uint64 { return v.spills }

// HotHints implements sim.HintedProvider: RFV has no per-cycle machinery
// or writeback work. (It never gates issue — pressure shows up as
// spill/refill penalties from OnIssue — so it publishes no issue mask.)
func (v *RFV) HotHints() sim.HotPathHints {
	return sim.HotPathHints{PassiveTick: true, PassiveWriteback: true}
}
