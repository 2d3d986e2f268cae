package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// Ready masks: per scheduler group, three bit-per-warp sets that answer
// "who could issue?" without re-deriving every warp's state each cycle.
// Position p of group g is warp g + p*Schedulers (the order the linear
// pick scans walked); a group spans grpWords 64-bit words, so any -warps
// value fits.
//
//	mLive   wFlags == 0 (neither finished nor at a barrier) — exact
//	mSB     the scoreboard blocks the next instruction
//	        (wPending & wNeed != 0) — exact
//	mStall  a stall timer was armed — a superset of wStallUntil > cycle;
//	        expired bits are dropped lazily by the next pick that meets
//	        them (expireStalls)
//
// The masks are written only where the state under them is written; that
// list is the contract (DESIGN.md §12) and the sanitizer's sim/readymask
// check recomputes all of it from the SoA arrays every cycle:
//
//	issue            barrier/exit flags (setLive), the provider's penalty
//	                 stall (armStall), and refreshSB once after refreshInsn
//	completePending  the wheel's and the LSU's writebacks both end here
//	releaseBarriers  barrier flag cleared
//	twoLevel.pick    the promotion-latency stall (armStall)
//
// unfinished counts warps without warpFinished, so allDone is a compare.

// initMasks sizes the masks for the SM's group geometry; New then marks
// every warp live as it is built.
func (sm *SM) initMasks() {
	perGroup := sm.Cfg.Warps / sm.Cfg.Schedulers
	sm.grpWords = (perGroup + 63) / 64
	if sm.grpWords < 1 {
		sm.grpWords = 1
	}
	n := sm.Cfg.Schedulers * sm.grpWords
	sm.mLive = make([]uint64, n)
	sm.mSB = make([]uint64, n)
	sm.mStall = make([]uint64, n)
}

// setLive mirrors a wFlags write into the live mask.
func (sm *SM) setLive(w *Warp) {
	if sm.wFlags[w.ID] == 0 {
		sm.mLive[w.mword] |= w.mbit
	} else {
		sm.mLive[w.mword] &^= w.mbit
	}
}

// armStall is the only way wStallUntil is written: the timer and its
// armed bit move together.
func (sm *SM) armStall(w *Warp, until uint64) {
	sm.wStallUntil[w.ID] = until
	sm.mStall[w.mword] |= w.mbit
}

// refreshSB re-derives w's scoreboard bit after its need mask or pending
// set changed.
func (sm *SM) refreshSB(w *Warp) {
	if sm.sbReady(w.ID) {
		sm.mSB[w.mword] &^= w.mbit
	} else {
		sm.mSB[w.mword] |= w.mbit
	}
}

// expireStalls drops the armed bits of mask word i (group g, word w)
// whose timers have run out.
func (sm *SM) expireStalls(g, w, i int) {
	for m := sm.mStall[i]; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if sm.wStallUntil[sm.groups[g][w<<6+b].ID] <= sm.cycle {
			sm.mStall[i] &^= 1 << uint(b)
		}
	}
}

// scan is the pick primitive every scheduler issues through: the first
// warp among group g's positions [lo, hi), in position order, that can
// issue this cycle, or nil. Warps that are not live or still stalled are
// passed over for free; a scoreboard-blocked warp met before the pick is
// a scoreboard rejection, charged in bulk by popcount; the rest get the
// structural check (LSU room, SFU interval) and then the provider
// consult, one call per warp in order because CanIssue counts its own
// refusals. The charges are exactly those of testing the same warps one
// at a time in the same order, which is what the schedulers did before
// the masks (the test oracle still does).
func (sm *SM) scan(g, lo, hi int) *Warp {
	base, warps := g*sm.grpWords, sm.groups[g]
	for w := lo >> 6; w<<6 < hi; w++ {
		span := ^uint64(0)
		if s := lo - w<<6; s > 0 {
			span <<= uint(s)
		}
		if e := hi - w<<6; e < 64 {
			span &= 1<<uint(e) - 1
		}
		i := base + w
		if sm.mStall[i]&span != 0 {
			sm.expireStalls(g, w, i)
		}
		cand := sm.mLive[i] &^ sm.mStall[i] & span
		blocked := cand & sm.mSB[i]
		for free := cand &^ blocked; free != 0; free &= free - 1 {
			b := bits.TrailingZeros64(free)
			if wp := warps[w<<6+b]; sm.issuable(wp) {
				sm.chargeScoreboard(g, bits.OnesCount64(blocked&(1<<uint(b)-1)))
				return wp
			}
		}
		sm.chargeScoreboard(g, bits.OnesCount64(blocked))
	}
	return nil
}

// scanWarp is scan over w's one position — GTO's greedy check, the
// two-level active set — as straight bit tests.
func (sm *SM) scanWarp(w *Warp) bool {
	i, bit := w.mword, w.mbit
	if sm.mLive[i]&bit == 0 {
		return false
	}
	if sm.mStall[i]&bit != 0 {
		if sm.wStallUntil[w.ID] > sm.cycle {
			return false
		}
		sm.mStall[i] &^= bit
	}
	if sm.mSB[i]&bit != 0 {
		sm.chargeScoreboard(w.Group, 1)
		return false
	}
	return sm.issuable(w)
}

func (sm *SM) chargeScoreboard(g, n int) {
	if n > 0 {
		sm.mScoreboard[g].Add(uint64(n))
		sm.scanSB[g] += uint32(n)
	}
}

// issuable runs the checks the masks do not cover for a live, unstalled,
// scoreboard-clear warp: room in its execution unit, then the provider.
func (sm *SM) issuable(w *Warp) bool {
	switch sm.wClass[w.ID] {
	case isa.ClassMemGlobal:
		if !sm.lsu.hasRoom() {
			return false
		}
	case isa.ClassSFU:
		if sm.sfuNextIssue[w.Group] > sm.cycle {
			return false
		}
	}
	if !sm.alwaysIssuable && !sm.Provider.CanIssue(w) {
		sm.Stats.IssueStalls++
		sm.mProviderStall[w.Group].Inc()
		sm.scanProv[w.Group]++
		return false
	}
	return true
}

// checkMasks is the sanitizer's sim/readymask invariant: the masks and
// the unfinished count recomputed from the SoA arrays they summarize.
func (sm *SM) checkMasks() error {
	unfinished := 0
	for _, w := range sm.Warps {
		id := w.ID
		if sm.wFlags[id]&warpFinished == 0 {
			unfinished++
		}
		if live := sm.mLive[w.mword]&w.mbit != 0; live != (sm.wFlags[id] == 0) {
			return fmt.Errorf("warp %d: live bit %v but flags %#x", id, live, sm.wFlags[id])
		}
		if blocked := sm.mSB[w.mword]&w.mbit != 0; blocked == sm.sbReady(id) {
			return fmt.Errorf("warp %d: scoreboard bit %v but pending&need says %v", id, blocked, !blocked)
		}
		if sm.wStallUntil[id] > sm.cycle && sm.mStall[w.mword]&w.mbit == 0 {
			return fmt.Errorf("warp %d: stalled until cycle %d but its stall bit is not armed",
				id, sm.wStallUntil[id])
		}
	}
	if unfinished != sm.unfinished {
		return fmt.Errorf("%d warps unfinished but the live count is %d", unfinished, sm.unfinished)
	}
	return nil
}
