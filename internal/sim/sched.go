package sim

import "repro/internal/arena"

var (
	gtoT      = arena.Of[gto]()
	twoLevelT = arena.Of[twoLevel]()
	lrrT      = arena.Of[lrr]()
)

// scheduler picks the warp a scheduler group issues from each cycle.
// candidates exposes the warps pick actually considered this cycle so
// stall attribution classifies the same set (the two-level scheduler
// restricts issue to its active set). frozen reports that a failed pick
// on a machine whose warp state cannot change mutates no scheduler
// state — the cycle-skip fast-forward may only jump a group whose
// scheduler is frozen, or the post-skip pick order diverges from a
// stepped run's.
//
// Every policy finds its warp through SM.scan over the ready masks
// (readymask.go); what differs is which positions it offers and in what
// order.
type scheduler interface {
	pick(group int, sm *SM) *Warp
	candidates(group int) []*Warp
	frozen(group int, sm *SM) bool
}

// gto is greedy-then-oldest: keep issuing from the current warp until it
// stalls, then switch to the oldest ready warp (smallest ID — all warps
// launch together).
type gto struct {
	current []*Warp // per group; nil when unset
	groups  [][]*Warp
}

func newGTO(a *arena.Arena, groups [][]*Warp) *gto {
	s := gtoT.New(a)
	s.current, s.groups = warpPtrT.Make(a, len(groups)), groups
	return s
}

func (s *gto) candidates(g int) []*Warp { return s.groups[g] }

// frozen: a failed GTO pick leaves current untouched.
func (s *gto) frozen(int, *SM) bool { return true }

// pick tests current on its own and, when that fails, again inside the
// oldest-first scan: a blocked current warp is charged twice. Every
// stored result carries that count, so it stays.
func (s *gto) pick(g int, sm *SM) *Warp {
	if cur := s.current[g]; cur != nil && sm.scanWarp(cur) {
		return cur
	}
	w := sm.scan(g, 0, len(s.groups[g]))
	if w != nil {
		s.current[g] = w
	}
	return w
}

// twoLevel keeps a small active set per group; only active warps may
// issue. A warp blocked on a long-latency memory operation is demoted to
// the pending queue and the next pending warp promoted (Gebhart et al.
// [9]; used by RFH and the Figure 2 comparison).
type twoLevel struct {
	active  [][]*Warp
	pending [][]*Warp
	size    int
}

func newTwoLevel(a *arena.Arena, groups [][]*Warp, size int) *twoLevel {
	s := twoLevelT.New(a)
	s.size = size
	s.active, s.pending = groupT.Make(a, len(groups)), groupT.Make(a, len(groups))
	for i, g := range groups {
		n := min(size, len(g))
		// Room for the most either can hold: the active set is capped at
		// size, and with it empty every warp of the group is pending.
		s.active[i] = append(warpPtrT.Make(a, size)[:0], g[:n]...)
		s.pending[i] = append(warpPtrT.Make(a, len(g))[:0], g[n:]...)
	}
	return s
}

// candidates returns the post-pick active set: pick runs first each
// cycle, so demotions and promotions have already settled.
func (s *twoLevel) candidates(g int) []*Warp { return s.active[g] }

// frozen reports that the next pick will not demote or promote anything.
// Not guaranteed even on a fully stalled machine: promote admits warps
// that are at a barrier (it only filters memory blocking), and pick
// demotes them again next cycle, so barrier-heavy groups rotate pending
// order every cycle without issuing. All inputs (finished, barrier,
// scoreboard) are fixed while no warp issues and no event fires, so one
// check covers the whole prospective skip span.
func (s *twoLevel) frozen(g int, sm *SM) bool {
	act := s.active[g]
	for _, w := range act {
		if sm.mLive[w.mword]&w.mbit == 0 || w.MemoryBlocked() {
			return false // a demotion is due next pick
		}
	}
	if len(act) < s.size {
		for _, w := range s.pending[g] {
			if w.Finished() || !w.MemoryBlocked() {
				return false // promote would remove or pop this warp
			}
		}
	}
	return true
}

func (s *twoLevel) pick(g int, sm *SM) *Warp {
	// Demote active warps that are finished or stalled on long-latency
	// events (memory, barriers); promotable pending warps replace them.
	act := s.active[g]
	for i := 0; i < len(act); i++ {
		w := act[i]
		if sm.mLive[w.mword]&w.mbit != 0 && !w.MemoryBlocked() {
			continue
		}
		if next := s.promote(g); next != nil {
			s.refill(sm, next)
			act[i] = next
			if !w.Finished() {
				s.pending[g] = append(s.pending[g], w)
			}
		} else {
			// Nothing promotable now: drop the slot (it is refilled
			// below once a pending warp unblocks).
			if !w.Finished() {
				s.pending[g] = append(s.pending[g], w)
			}
			act = append(act[:i], act[i+1:]...)
			i--
		}
	}
	// Refill the active set from pending as warps unblock; promoted
	// warps pay the pipeline-refill latency before issuing.
	for len(act) < s.size {
		next := s.promote(g)
		if next == nil {
			break
		}
		s.refill(sm, next)
		act = append(act, next)
	}
	s.active[g] = act
	for _, w := range act {
		if sm.scanWarp(w) {
			return w
		}
	}
	return nil
}

// refill charges a promoted warp the pipeline-refill latency.
func (s *twoLevel) refill(sm *SM, w *Warp) {
	if lat := uint64(sm.Cfg.PromoteLatency); lat > 0 {
		if t := sm.cycle + lat; t > sm.wStallUntil[w.ID] {
			sm.armStall(w, t)
		}
	}
}

// promote pops the first pending warp that can make progress. Removal is
// in place (order-preserving copy-down) — the full-slice-expression append
// it replaced allocated a fresh backing array per promotion.
func (s *twoLevel) promote(g int) *Warp {
	pend := s.pending[g]
	for i, w := range pend {
		if w.Finished() {
			copy(pend[i:], pend[i+1:])
			s.pending[g] = pend[:len(pend)-1]
			return s.promote(g)
		}
		if !w.MemoryBlocked() {
			copy(pend[i:], pend[i+1:])
			s.pending[g] = pend[:len(pend)-1]
			return w
		}
	}
	return nil
}

// lrr is loose round-robin: each cycle starts the scan one past the last
// issuer, giving every ready warp an equal share of issue slots.
type lrr struct {
	next   []int // per group: the position the next scan starts at
	groups [][]*Warp
}

func newLRR(a *arena.Arena, groups [][]*Warp) *lrr {
	s := lrrT.New(a)
	s.next, s.groups = intT.Make(a, len(groups)), groups
	return s
}

func (s *lrr) candidates(g int) []*Warp { return s.groups[g] }

// frozen: a failed LRR pick leaves next untouched.
func (s *lrr) frozen(int, *SM) bool { return true }

func (s *lrr) pick(g int, sm *SM) *Warp {
	n := len(s.groups[g])
	w := sm.scan(g, s.next[g], n)
	if w == nil {
		w = sm.scan(g, 0, s.next[g])
	}
	if w != nil {
		s.next[g] = (w.ID/sm.Cfg.Schedulers + 1) % n
	}
	return w
}
