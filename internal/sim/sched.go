package sim

import "repro/internal/arena"

// scheduler picks the warp a scheduler group issues from each cycle.
// candidates exposes the warps pick actually considered this cycle so
// stall attribution classifies the same set (the two-level scheduler
// restricts issue to its active set). frozen reports that a failed pick
// on a machine whose warp state cannot change mutates no scheduler
// state — the cycle-skip fast-forward may only jump a group whose
// scheduler is frozen, or the post-skip pick order diverges from a
// stepped run's, and a failed pick is replayed only when it is (replay.go).
//
// Both policies — the paper's GTO and two-level — test warps through the
// ready masks (readymask.go): GTO scans its whole group (SM.scan), the
// two-level scheduler only its active set (SM.scanList).
type scheduler interface {
	pick(group int, sm *SM) *Warp
	candidates(group int) []*Warp
	frozen(group int, sm *SM) bool
}

// The SM's pickFn for each policy.
func pickGTO(g int, sm *SM) *Warp      { return sm.gto.pick(g, sm) }
func pickTwoLevel(g int, sm *SM) *Warp { return sm.twoLevel.pick(g, sm) }

// gto is greedy-then-oldest: keep issuing from the current warp until it
// stalls, then switch to the oldest ready warp (smallest ID — all warps
// launch together).
type gto struct {
	current []int32 // per group: the current warp's position; -1 when unset
	groups  [][]*Warp
}

func newGTO(a *arena.Arena, groups [][]*Warp) *gto {
	s := arena.New[gto](a)
	s.current, s.groups = arena.Make[int32](a, len(groups)), groups
	for g := range s.current {
		s.current[g] = -1
	}
	return s
}

func (s *gto) candidates(g int) []*Warp { return s.groups[g] }

// frozen: a failed GTO pick leaves current untouched.
func (s *gto) frozen(int, *SM) bool { return true }

// pick tests current on its own and, when that fails, again inside the
// oldest-first scan: a blocked current warp is charged twice. Every
// stored result carries that count, so it stays. The scan reuses the
// verdict of current's word.
func (s *gto) pick(g int, sm *SM) *Warp {
	known, v := -1, [3]uint64{}
	if cur := s.current[g]; cur >= 0 {
		known = int(cur >> 6)
		v[0], v[1], v[2] = sm.verdict(g, known)
		switch b := uint64(1) << (cur & 63); {
		case v[0]&b != 0:
			return s.groups[g][cur]
		case v[1]&b != 0:
			sm.chargeScoreboard(g, 1)
		case v[2]&b != 0:
			sm.chargeProvider(g, 1)
		}
	}
	p := sm.scan(g, known, v)
	if p < 0 {
		return nil
	}
	s.current[g] = int32(p)
	return s.groups[g][p]
}

// twoLevel keeps a small active set per group; only active warps may
// issue. A warp blocked on a long-latency memory operation is demoted to
// the pending queue and the next pending warp promoted (Gebhart et al.
// [9]; used by RFH and the Figure 2 comparison).
//
// The lists hold the order — the active set is tested and the pending
// queue promoted from in list order — and actBits/pendBits the same sets
// as bits in the SM's ready-mask geometry (readymask.go), so every
// per-cycle question (is a demotion due, is anything promotable, which
// active warps can issue) is mask arithmetic over the group's words, and
// a list is walked only to act on an answer. A warp only finishes by
// issuing, which only an active warp does, and a finished warp is never
// queued again, so no pending warp is ever finished.
type twoLevel struct {
	active  [][]*Warp
	pending [][]*Warp
	size    int

	actBits, pendBits []uint64
}

func newTwoLevel(a *arena.Arena, sm *SM, size int) *twoLevel {
	s := arena.New[twoLevel](a)
	s.size = size
	s.active, s.pending = arena.Make[[]*Warp](a, len(sm.groups)), arena.Make[[]*Warp](a, len(sm.groups))
	s.actBits = arena.Make[uint64](a, len(sm.mLive))
	s.pendBits = arena.Make[uint64](a, len(sm.mLive))
	for i, g := range sm.groups {
		n := min(size, len(g))
		// Room for the most either can hold: the active set is capped at
		// size, and with it empty every warp of the group is pending.
		s.active[i] = append(arena.Make[*Warp](a, size)[:0], g[:n]...)
		s.pending[i] = append(arena.Make[*Warp](a, len(g))[:0], g[n:]...)
		for _, w := range g[:n] {
			s.actBits[w.mword] |= w.mbit
		}
		for _, w := range g[n:] {
			s.pendBits[w.mword] |= w.mbit
		}
	}
	return s
}

// candidates returns the post-pick active set: pick runs first each
// cycle, so demotions and promotions have already settled.
func (s *twoLevel) candidates(g int) []*Warp { return s.active[g] }

// stays is the set of warps in mask word i an active slot keeps: live
// and not waiting on a global load their next instruction reads.
func (sm *SM) stays(i int) uint64 { return sm.mLive[i] &^ (sm.mMem[i] & sm.mSB[i]) }

// demotionDue reports that an active warp of group g has to leave its
// slot: it finished, waits at a barrier or is blocked on memory.
func (s *twoLevel) demotionDue(g int, sm *SM) bool {
	for i := g * sm.grpWords; i < (g+1)*sm.grpWords; i++ {
		if s.actBits[i]&^sm.stays(i) != 0 {
			return true
		}
	}
	return false
}

// promotable reports that promote would find a pending warp of group g
// that is not blocked on memory.
func (s *twoLevel) promotable(g int, sm *SM) bool {
	for i := g * sm.grpWords; i < (g+1)*sm.grpWords; i++ {
		if s.pendBits[i]&^(sm.mMem[i]&sm.mSB[i]) != 0 {
			return true
		}
	}
	return false
}

// frozen reports that the next pick will not demote or promote anything.
// Not guaranteed even on a fully stalled machine: promote admits warps
// that are at a barrier (it only filters memory blocking), and pick
// demotes them again next cycle, so barrier-heavy groups rotate pending
// order every cycle without issuing. All inputs (finished, barrier,
// scoreboard) are fixed while no warp issues and no event fires, so one
// check covers the whole prospective skip span.
func (s *twoLevel) frozen(g int, sm *SM) bool {
	return !s.demotionDue(g, sm) && (len(s.active[g]) == s.size || !s.promotable(g, sm))
}

func (s *twoLevel) pick(g int, sm *SM) *Warp {
	// Demote active warps that are finished or stalled on long-latency
	// events (memory, barriers); promotable pending warps replace them.
	act := s.active[g]
	if s.demotionDue(g, sm) {
		for i := 0; i < len(act); i++ {
			w := act[i]
			if sm.stays(w.mword)&w.mbit != 0 {
				continue
			}
			s.actBits[w.mword] &^= w.mbit
			if next := s.promote(g, sm); next != nil {
				s.refill(sm, next)
				act[i] = next
			} else {
				// Nothing promotable now: drop the slot (it is refilled
				// below once a pending warp unblocks).
				act = append(act[:i], act[i+1:]...)
				i--
			}
			if !w.Finished() {
				s.pending[g] = append(s.pending[g], w)
				s.pendBits[w.mword] |= w.mbit
			}
		}
	}
	// Refill the active set from pending as warps unblock; promoted
	// warps pay the pipeline-refill latency before issuing.
	for len(act) < s.size {
		next := s.promote(g, sm)
		if next == nil {
			break
		}
		s.refill(sm, next)
		act = append(act, next)
	}
	s.active[g] = act
	return sm.scanList(g, act)
}

// refill charges a promoted warp the pipeline-refill latency.
func (s *twoLevel) refill(sm *SM, w *Warp) {
	s.actBits[w.mword] |= w.mbit
	if lat := uint64(sm.Cfg.PromoteLatency); lat > 0 {
		if t := sm.cycle + lat; t > sm.wStallUntil[w.ID] {
			sm.armStall(w, t)
		}
	}
}

// promote pops the first pending warp that is not blocked on memory. The
// masks answer whether there is one; only then is the queue walked for
// it. Removal is in place (order-preserving copy-down).
func (s *twoLevel) promote(g int, sm *SM) *Warp {
	if !s.promotable(g, sm) {
		return nil
	}
	pend := s.pending[g]
	for i, w := range pend {
		if sm.mMem[w.mword]&sm.mSB[w.mword]&w.mbit == 0 {
			copy(pend[i:], pend[i+1:])
			s.pending[g] = pend[:len(pend)-1]
			s.pendBits[w.mword] &^= w.mbit
			return w
		}
	}
	return nil
}
