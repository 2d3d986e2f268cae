package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/arena"
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
//	mGlobal  the next instruction is a global memory access (its decoded
//	         class is ClassMemGlobal) — exact
//	mSFU     the next instruction is an SFU op (class ClassSFU) — exact
//	mMem     a global load of the warp is outstanding (pendingMem > 0) —
//	         exact; mMem & mSB is "blocked on memory", the two-level
//	         scheduler's demotion test
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
//	refreshInsn      the class masks, from the next decoded record
//	addPending       a global load's destination (mMem)
//	completePending  the wheel's and the LSU's writebacks both end here
//	                 (mSB, and mMem when a warp's last load lands)
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
	// One span cut in six: a pick reads the masks of its group, and side
	// by side they share cache lines instead of holding one each.
	n := sm.Cfg.Schedulers * sm.grpWords
	m := arena.Make[uint64](sm.a, 6*n)
	cut := func(i int) []uint64 { return m[i*n : (i+1)*n : (i+1)*n] }
	sm.mLive, sm.mSB, sm.mStall, sm.mGlobal, sm.mSFU, sm.mMem = cut(0), cut(1), cut(2), cut(3), cut(4), cut(5)
}

// bindIssueMask fetches a Stager's issue mask, one slice per group, after
// Attach. A register file is always issuable: every group shares one
// all-ones slice.
func (sm *SM) bindIssueMask() error {
	sm.mProv = arena.Make[[]uint64](sm.a, sm.Cfg.Schedulers)
	if sm.stager == nil {
		open := arena.Make[uint64](sm.a, sm.grpWords)
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
	sm.moved(w)
	if sm.wFlags[w.ID] == 0 {
		sm.mLive[w.mword] |= w.mbit
	} else {
		sm.mLive[w.mword] &^= w.mbit
	}
}

// armStall is the only way wStallUntil is written: the timer and its
// armed bit move together.
func (sm *SM) armStall(w *Warp, until uint64) {
	sm.moved(w)
	sm.wStallUntil[w.ID] = until
	sm.mStall[w.mword] |= w.mbit
}

// refreshSB re-derives w's scoreboard bit after its need mask or pending
// set changed.
func (sm *SM) refreshSB(w *Warp) {
	sm.moved(w)
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

// verdict is the pick's reading of word p of group g, a word of warps at
// a time: armed stalls that have run out are dropped, then ready is the
// warps that can issue this cycle, blocked those the scoreboard stops
// and refused those the provider does not let through. Warps that are
// not live or still stalled are in none of the three, and so are those
// whose next instruction has no room in its unit this cycle (LSU full,
// SFU interval running): one test per word drops the whole class.
// Meeting a blocked or a refused warp before the pick is a rejection;
// the picks charge them.
func (sm *SM) verdict(g, p int) (ready, blocked, refused uint64) {
	i := g*sm.grpWords + p
	if sm.mStall[i] != 0 {
		sm.expireStalls(g, p, i)
	}
	cand := sm.mLive[i] &^ sm.mStall[i]
	blocked = cand & sm.mSB[i]
	free := cand &^ blocked
	if !sm.lsu.hasRoom() {
		free &^= sm.mGlobal[i]
	}
	if sm.sfuNextIssue[g] > sm.cycle {
		free &^= sm.mSFU[i]
	}
	prov := sm.mProv[g][p]
	return free & prov, blocked, free &^ prov
}

// scan is GTO's oldest-first pick: the position of the first warp of
// group g, in position order, that can issue this cycle, or -1 — the
// verdicts a word at a time, word known's (v) handed in by the greedy
// check that read it already (known -1: none). The blocked and refused
// warps met before the pick are charged in bulk by popcount: exactly the
// charges of testing the same warps one at a time in the same order,
// which is what the schedulers did before the masks (the test oracle
// still does).
func (sm *SM) scan(g, known int, v [3]uint64) int {
	for p := 0; p < sm.grpWords; p++ {
		ready, blocked, refused := v[0], v[1], v[2]
		if p != known {
			ready, blocked, refused = sm.verdict(g, p)
		}
		if ready != 0 {
			b := bits.TrailingZeros64(ready)
			below := uint64(1)<<uint(b) - 1
			sm.chargeScoreboard(g, bits.OnesCount64(blocked&below))
			sm.chargeProvider(g, bits.OnesCount64(refused&below))
			return p<<6 + b
		}
		sm.chargeScoreboard(g, bits.OnesCount64(blocked))
		sm.chargeProvider(g, bits.OnesCount64(refused))
	}
	return -1
}

// scanList is scan over the warps of list in list order (the two-level
// active set, whose order is its own), read off their words' verdicts:
// the first that can issue, charging the blocked and refused ones met
// before it, as testing them one at a time charged.
func (sm *SM) scanList(g int, list []*Warp) *Warp {
	word := -1
	var ready, blocked, refused uint64
	for _, w := range list {
		if p := w.mword - g*sm.grpWords; p != word {
			word = p
			ready, blocked, refused = sm.verdict(g, p)
		}
		switch b := w.mbit; {
		case ready&b != 0:
			return w
		case blocked&b != 0:
			sm.chargeScoreboard(g, 1)
		case refused&b != 0:
			sm.chargeProvider(g, 1)
		}
	}
	return nil
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
		cls := sm.nextClass(id)
		if global := sm.mGlobal[w.mword]&w.mbit != 0; global != (cls == isa.ClassMemGlobal) {
			return fmt.Errorf("warp %d: global-access bit %v but next instruction class is %v", id, global, cls)
		}
		if sfu := sm.mSFU[w.mword]&w.mbit != 0; sfu != (cls == isa.ClassSFU) {
			return fmt.Errorf("warp %d: SFU bit %v but next instruction class is %v", id, sfu, cls)
		}
		if loads := sm.mMem[w.mword]&w.mbit != 0; loads != (w.pendingMem > 0) {
			return fmt.Errorf("warp %d: outstanding-load bit %v but %d loads pending", id, loads, w.pendingMem)
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
