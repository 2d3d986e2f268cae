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

	// lastIssue is the cycle this warp last issued, for the Diagnostic's
	// per-warp rows.
	lastIssue uint64
}

// Finished reports whether every lane has exited.
func (w *Warp) Finished() bool { return w.sm.wFlags[w.ID]&warpFinished != 0 }

// AtBarrier reports whether the warp is waiting at a CTA barrier.
func (w *Warp) AtBarrier() bool { return w.sm.wFlags[w.ID]&warpAtBarrier != 0 }

// NextGI returns the next instruction's global index.
func (w *Warp) NextGI() int { return w.Exec.GI() }

// PendingWrites reports outstanding writes (draining condition).
func (w *Warp) PendingWrites() int { return w.sm.pendingCount(w.ID) }

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
	if memOp {
		w.pendingMem++
		sm.mMem[w.mword] |= w.mbit
		sm.moved(w)
	}
}

func (w *Warp) completePending(r isa.Reg, memOp bool) {
	sm := w.sm
	sm.wPending[w.ID*sm.maskWords+int(r)>>6] &^= 1 << (uint(r) & 63)
	if memOp {
		if w.pendingMem--; w.pendingMem == 0 {
			sm.mMem[w.mword] &^= w.mbit
			sm.moved(w)
		}
	}
	if sm.mSB[w.mword]&w.mbit != 0 {
		sm.refreshSB(w) // a write landing can only unblock
	}
	if sm.stager != nil {
		sm.stager.OnWriteback(w, r)
	}
}

// pendingCount returns the number of registers with outstanding writes:
// a register has at most one, so this is the warp's pending-write count.
func (sm *SM) pendingCount(id int) int {
	base := id * sm.maskWords
	n := 0
	for i := 0; i < sm.maskWords; i++ {
		n += bits.OnesCount64(sm.wPending[base+i])
	}
	return n
}

// nextClass is warp id's next instruction class, read from its decoded
// record (ALU for a finished warp, which has none).
func (sm *SM) nextClass(id int) isa.Class {
	if sm.wFlags[id]&warpFinished != 0 {
		return isa.ClassALU
	}
	return sm.Warps[id].Exec.Decoded().Class
}

// refreshInsn re-reads warp w's cached decode — the two class-mask bits
// and the scoreboard need mask — from its next instruction's decoded
// record after its PC moved (issue) or it finished. The need mask
// covers the sources plus the destination: the same register set the
// map-based scoreboard walked.
func (sm *SM) refreshInsn(w *Warp) {
	id := w.ID
	sm.moved(w)
	need := sm.wNeed[id*sm.maskWords : (id+1)*sm.maskWords]
	sm.mGlobal[w.mword] &^= w.mbit
	sm.mSFU[w.mword] &^= w.mbit
	if sm.wFlags[id]&warpFinished != 0 {
		clear(need)
		return
	}
	rec := w.Exec.Decoded()
	switch rec.Class {
	case isa.ClassMemGlobal:
		sm.mGlobal[w.mword] |= w.mbit
	case isa.ClassSFU:
		sm.mSFU[w.mword] |= w.mbit
	}
	for i, v := range rec.Need {
		need[i] = v
	}
}
