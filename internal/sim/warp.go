package sim

import (
	"math/bits"

	"repro/internal/exec"
	"repro/internal/isa"
)

// Warp flag bits in SM.wFlags (struct-of-arrays hot state).
const (
	warpFinished  uint8 = 1 << 0
	warpAtBarrier uint8 = 1 << 1
)

// Warp is the timing-level wrapper around a functional warp. The state
// readiness is made of — finished/barrier flags, stall timers, the
// pending-register scoreboard, and the decoded next instruction — lives
// in packed per-SM arrays (SM.wFlags and friends), summarized per
// scheduler group by the ready masks pick reads; Warp keeps only the
// identity and the cold bookkeeping.
type Warp struct {
	ID    int
	Group int // scheduler group (shard) the warp belongs to

	Exec *exec.Warp

	sm *SM

	// mword and mbit locate the warp in the SM's per-group ready masks
	// (readymask.go).
	mword int
	mbit  uint64

	// pendingMem counts outstanding global-load destinations (used by
	// the two-level scheduler to demote stalled warps).
	pendingMem int
	// pendingTotal counts all outstanding writes (region draining).
	pendingTotal int

	// lastIssue is the cycle this warp last issued (GTO tiebreak).
	lastIssue uint64
}

// Finished reports whether every lane has exited.
func (w *Warp) Finished() bool { return w.sm.wFlags[w.ID]&warpFinished != 0 }

// AtBarrier reports whether the warp is waiting at a CTA barrier.
func (w *Warp) AtBarrier() bool { return w.sm.wFlags[w.ID]&warpAtBarrier != 0 }

// NextGI returns the next instruction's global index.
func (w *Warp) NextGI() int { return w.sm.G.GlobalIndex(w.Exec.PC()) }

// PendingWrites reports outstanding writes (draining condition).
func (w *Warp) PendingWrites() int { return w.pendingTotal }

// sbReady reports that no pending write overlaps warp id's next
// instruction: the cached register-need mask against the scoreboard
// bitmask. Pending counts per register are provably 0 or 1 (the
// scoreboard refuses to reissue a destination with an outstanding
// write), so one bit per register suffices.
func (sm *SM) sbReady(id int) bool {
	if sm.maskWords == 1 {
		return sm.wPending[id]&sm.wNeed[id] == 0
	}
	base := id * sm.maskWords
	for i := 0; i < sm.maskWords; i++ {
		if sm.wPending[base+i]&sm.wNeed[base+i] != 0 {
			return false
		}
	}
	return true
}

func (w *Warp) addPending(r isa.Reg, memOp bool) {
	sm := w.sm
	sm.wPending[w.ID*sm.maskWords+int(r)>>6] |= 1 << (uint(r) & 63)
	w.pendingTotal++
	if memOp {
		w.pendingMem++
	}
}

func (w *Warp) completePending(r isa.Reg, memOp bool) {
	sm := w.sm
	sm.wPending[w.ID*sm.maskWords+int(r)>>6] &^= 1 << (uint(r) & 63)
	w.pendingTotal--
	if memOp {
		w.pendingMem--
	}
	if sm.mSB[w.mword]&w.mbit != 0 {
		sm.refreshSB(w) // a write landing can only unblock
	}
	if !sm.passiveWB {
		sm.Provider.OnWriteback(w, r)
	}
}

// pendingCount returns the number of registers with outstanding writes
// (sanitizer cross-check against pendingTotal).
func (sm *SM) pendingCount(id int) int {
	base := id * sm.maskWords
	n := 0
	for i := 0; i < sm.maskWords; i++ {
		n += bits.OnesCount64(sm.wPending[base+i])
	}
	return n
}

// MemoryBlocked reports the warp is waiting on an outstanding global load
// whose destination its next instruction needs.
func (w *Warp) MemoryBlocked() bool {
	return w.pendingMem > 0 && !w.Finished() && w.sm.mSB[w.mword]&w.mbit != 0
}

// refreshInsn re-derives warp w's cached decode — next instruction,
// class (with its two class-mask bits), and scoreboard need mask — after
// its PC moved (issue) or it finished. The need mask covers valid sources
// plus the destination: the same register set the map-based scoreboard
// walked.
func (sm *SM) refreshInsn(w *Warp) {
	id := w.ID
	base := id * sm.maskWords
	for i := 0; i < sm.maskWords; i++ {
		sm.wNeed[base+i] = 0
	}
	sm.mGlobal[w.mword] &^= w.mbit
	sm.mSFU[w.mword] &^= w.mbit
	if sm.wFlags[id]&warpFinished != 0 {
		sm.wInsn[id] = nil
		sm.wClass[id] = isa.ClassALU
		return
	}
	in := w.Exec.Insn()
	sm.wInsn[id] = in
	cls := in.Op.ClassOf()
	sm.wClass[id] = cls
	switch cls {
	case isa.ClassMemGlobal:
		sm.mGlobal[w.mword] |= w.mbit
	case isa.ClassSFU:
		sm.mSFU[w.mword] |= w.mbit
	}
	for i := 0; i < in.Op.NumSrc(); i++ {
		if r := in.Src[i]; r.Valid() {
			sm.wNeed[base+int(r)>>6] |= 1 << (uint(r) & 63)
		}
	}
	if in.Op.HasDst() && in.Dst.Valid() {
		sm.wNeed[base+int(in.Dst)>>6] |= 1 << (uint(in.Dst) & 63)
	}
}
