package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// Ready masks: per scheduler group, bit-per-warp sets that answer "who
// could issue?" without re-deriving every warp's state each cycle.
// Position p of group g is warp g + p*Schedulers (the order the linear
// pick scans walked); a group spans grpWords 64-bit words, so any -warps
// value fits.
//
//	mLive    wFlags == 0 (neither finished nor at a barrier) — exact
//	mSB      the scoreboard blocks the next instruction
//	         (wPending & wNeed != 0) — exact
//	mStall   a stall timer was armed — a superset of wStallUntil > cycle;
//	         expired bits are dropped lazily by the next pick that meets
//	         them (expireStalls)
//	mGlobal  the next instruction is a global memory access (wClass ==
//	         ClassMemGlobal) — exact
//	mSFU     the next instruction is an SFU op (wClass == ClassSFU) — exact
//	mProv    the provider lets the warp issue — a Stager's own words
//	         (Stager.IssueMask), exact by its contract; all ones for a
//	         register file
//
// The masks are written only where the state under them is written; that
// list is the contract (DESIGN.md §12) and the sanitizer's sim/readymask
// check recomputes all of it from the SoA arrays every cycle:
//
//	issue            barrier/exit flags (setLive), the provider's penalty
//	                 stall (armStall), and refreshSB once after refreshInsn
//	refreshInsn      the class masks, beside wClass
//	completePending  the wheel's and the LSU's writebacks both end here
//	releaseBarriers  barrier flag cleared
//	twoLevel.pick    the promotion-latency stall (armStall)
//	the provider     mProv, at its own state transitions (for RegLess the
//	                 capacity manager's setState)
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
	// One span cut in five: a pick reads all five masks of its group, and
	// side by side they share cache lines instead of holding one each.
	n := sm.Cfg.Schedulers * sm.grpWords
	m := wordT.Make(sm.a, 5*n)
	cut := func(i int) []uint64 { return m[i*n : (i+1)*n : (i+1)*n] }
	sm.mLive, sm.mSB, sm.mStall, sm.mGlobal, sm.mSFU = cut(0), cut(1), cut(2), cut(3), cut(4)
}

// bindIssueMask fetches a Stager's issue mask, one slice per group, after
// Attach. A register file is always issuable: every group shares one
// all-ones slice.
func (sm *SM) bindIssueMask() error {
	sm.mProv = wordsT.Make(sm.a, sm.Cfg.Schedulers)
	if sm.stager == nil {
		open := wordT.Make(sm.a, sm.grpWords)
		for i := range open {
			open[i] = ^uint64(0)
		}
		for g := range sm.mProv {
			sm.mProv[g] = open
		}
		return nil
	}
	for g := range sm.mProv {
		if sm.mProv[g] = sm.stager.IssueMask(g); len(sm.mProv[g]) != sm.grpWords {
			return fmt.Errorf("sim: provider %q issue mask for group %d has %d words, want %d",
				sm.Provider.Name(), g, len(sm.mProv[g]), sm.grpWords)
		}
	}
	return nil
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

// scan is GTO's oldest-first pick: the first warp of group g, in position
// order, that can issue this cycle, or nil — as mask arithmetic, a word
// of warps at a time. Warps that are not live or still stalled are passed
// over for free, and so are those whose next instruction has no room in
// its unit this cycle (LSU full, SFU interval running): one test per scan
// drops the whole class. The pick is the first bit left that the provider
// lets through. Two kinds of warp met before it are rejections, charged
// in bulk by popcount: scoreboard-blocked warps, and free warps the
// provider refused. The charges are exactly those of testing the same
// warps one at a time in the same order, which is what the schedulers
// did before the masks (the test oracle still does).
func (sm *SM) scan(g int) *Warp {
	base, prov := g*sm.grpWords, sm.mProv[g]
	lsuFull := !sm.lsu.hasRoom()
	sfuBusy := sm.sfuNextIssue[g] > sm.cycle
	for w := 0; w < sm.grpWords; w++ {
		i := base + w
		if sm.mStall[i] != 0 {
			sm.expireStalls(g, w, i)
		}
		cand := sm.mLive[i] &^ sm.mStall[i]
		blocked := cand & sm.mSB[i]
		free := cand &^ blocked
		if lsuFull {
			free &^= sm.mGlobal[i]
		}
		if sfuBusy {
			free &^= sm.mSFU[i]
		}
		refused := free &^ prov[w]
		if pick := free & prov[w]; pick != 0 {
			b := bits.TrailingZeros64(pick)
			below := uint64(1)<<uint(b) - 1
			sm.chargeScoreboard(g, bits.OnesCount64(blocked&below))
			sm.chargeProvider(g, bits.OnesCount64(refused&below))
			return sm.groups[g][w<<6+b]
		}
		sm.chargeScoreboard(g, bits.OnesCount64(blocked))
		sm.chargeProvider(g, bits.OnesCount64(refused))
	}
	return nil
}

// scanWarp is scan over w's one position — GTO's greedy check, the
// two-level active set — as straight bit tests.
func (sm *SM) scanWarp(w *Warp) bool {
	i, bit, g := w.mword, w.mbit, w.Group
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
		sm.chargeScoreboard(g, 1)
		return false
	}
	if sm.mGlobal[i]&bit != 0 && !sm.lsu.hasRoom() {
		return false
	}
	if sm.mSFU[i]&bit != 0 && sm.sfuNextIssue[g] > sm.cycle {
		return false
	}
	if sm.mProv[g][i-g*sm.grpWords]&bit == 0 {
		sm.chargeProvider(g, 1)
		return false
	}
	return true
}

func (sm *SM) chargeScoreboard(g, n int) {
	if n > 0 {
		sm.grp[g].Scoreboard += uint64(n)
		sm.scanSB[g] += uint32(n)
	}
}

// chargeProvider counts n provider refusals.
func (sm *SM) chargeProvider(g, n int) {
	if n > 0 {
		sm.Stats.IssueStalls += uint64(n)
		sm.Prov.StallCycles += uint64(n)
		sm.grp[g].ProviderStall += uint64(n)
		sm.scanProv[g] += uint32(n)
	}
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
		cls := sm.wClass[id]
		if global := sm.mGlobal[w.mword]&w.mbit != 0; global != (cls == isa.ClassMemGlobal) {
			return fmt.Errorf("warp %d: global-access bit %v but next instruction class is %v", id, global, cls)
		}
		if sfu := sm.mSFU[w.mword]&w.mbit != 0; sfu != (cls == isa.ClassSFU) {
			return fmt.Errorf("warp %d: SFU bit %v but next instruction class is %v", id, sfu, cls)
		}
		open := sm.mProv[w.Group][w.mword-w.Group*sm.grpWords]&w.mbit != 0
		if want := sm.stager == nil || sm.stager.CanIssueQuiet(w); open != want {
			return fmt.Errorf("warp %d: provider issue bit %v but CanIssueQuiet says %v", id, open, want)
		}
	}
	if unfinished != sm.unfinished {
		return fmt.Errorf("%d warps unfinished but the live count is %d", unfinished, sm.unfinished)
	}
	return nil
}
