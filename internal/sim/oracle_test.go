package sim

import "repro/internal/isa"

// The linear oracle: warp readiness re-derived from the SoA arrays for
// every candidate every cycle, and the three schedulers written against
// it — the pick path the ready masks (readymask.go) replaced, kept as the
// reference the differential tests run the production pick against. It
// reads no mask; it only writes them where production does (armStall), so
// the rest of the machine — fast-forward's wake target, the sanitizer —
// sees the same state under either pick.

// readyLinear reports whether warp id (in scheduler group g) can issue
// this cycle, charging a scoreboard or provider rejection as it goes. The
// provider is asked about the one warp through CanIssueQuiet, the
// definition its issue mask must agree with, and each refusal is charged
// on the spot — the per-warp consult production replaced with a popcount.
func (sm *SM) readyLinear(g int, id int32) bool {
	if sm.wFlags[id] != 0 || sm.wStallUntil[id] > sm.cycle {
		return false
	}
	if !sm.sbReady(int(id)) {
		sm.grp[g].Scoreboard++
		sm.scanSB[g]++
		return false
	}
	switch sm.wClass[id] {
	case isa.ClassMemGlobal:
		if !sm.lsu.hasRoom() {
			return false
		}
	case isa.ClassSFU:
		if sm.sfuNextIssue[g] > sm.cycle {
			return false
		}
	}
	if sm.prober != nil && !sm.prober.CanIssueQuiet(sm.Warps[id]) {
		sm.Stats.IssueStalls++
		sm.Prov.StallCycles++
		sm.grp[g].ProviderStall++
		sm.scanProv[g]++
		return false
	}
	return true
}

// memoryBlockedLinear is Warp.MemoryBlocked without the scoreboard bit.
func (sm *SM) memoryBlockedLinear(w *Warp) bool {
	return w.pendingMem > 0 && !w.Finished() && !sm.sbReady(w.ID)
}

type gtoLinear struct {
	current []int32 // per group; -1 when unset
	groups  [][]*Warp
}

func (s *gtoLinear) candidates(g int) []*Warp { return s.groups[g] }
func (s *gtoLinear) frozen(int, *SM) bool     { return true }

func (s *gtoLinear) pick(g int, sm *SM) *Warp {
	if cur := s.current[g]; cur >= 0 && sm.readyLinear(g, cur) {
		return sm.Warps[cur]
	}
	for _, w := range s.groups[g] {
		if sm.readyLinear(g, int32(w.ID)) {
			s.current[g] = int32(w.ID)
			return w
		}
	}
	return nil
}

type twoLevelLinear struct {
	active  [][]*Warp
	pending [][]*Warp
	size    int
}

func (s *twoLevelLinear) candidates(g int) []*Warp { return s.active[g] }

func (s *twoLevelLinear) frozen(g int, sm *SM) bool {
	act := s.active[g]
	for _, w := range act {
		if sm.wFlags[w.ID] != 0 || sm.memoryBlockedLinear(w) {
			return false
		}
	}
	if len(act) < s.size {
		for _, w := range s.pending[g] {
			if w.Finished() || !sm.memoryBlockedLinear(w) {
				return false
			}
		}
	}
	return true
}

func (s *twoLevelLinear) pick(g int, sm *SM) *Warp {
	stall := func(next *Warp) {
		if lat := uint64(sm.Cfg.PromoteLatency); lat > 0 {
			if t := sm.cycle + lat; t > sm.wStallUntil[next.ID] {
				sm.armStall(next, t)
			}
		}
	}
	act := s.active[g]
	for i := 0; i < len(act); i++ {
		w := act[i]
		if sm.wFlags[w.ID] == 0 && !sm.memoryBlockedLinear(w) {
			continue
		}
		if next := s.promote(g, sm); next != nil {
			stall(next)
			act[i] = next
			if !w.Finished() {
				s.pending[g] = append(s.pending[g], w)
			}
		} else {
			if !w.Finished() {
				s.pending[g] = append(s.pending[g], w)
			}
			act = append(act[:i], act[i+1:]...)
			i--
		}
	}
	for len(act) < s.size {
		next := s.promote(g, sm)
		if next == nil {
			break
		}
		stall(next)
		act = append(act, next)
	}
	s.active[g] = act
	for _, w := range act {
		if sm.readyLinear(g, int32(w.ID)) {
			return w
		}
	}
	return nil
}

func (s *twoLevelLinear) promote(g int, sm *SM) *Warp {
	pend := s.pending[g]
	for i, w := range pend {
		if w.Finished() {
			copy(pend[i:], pend[i+1:])
			s.pending[g] = pend[:len(pend)-1]
			return s.promote(g, sm)
		}
		if !sm.memoryBlockedLinear(w) {
			copy(pend[i:], pend[i+1:])
			s.pending[g] = pend[:len(pend)-1]
			return w
		}
	}
	return nil
}

type lrrLinear struct {
	next   []int
	groups [][]*Warp
}

func (s *lrrLinear) candidates(g int) []*Warp { return s.groups[g] }
func (s *lrrLinear) frozen(int, *SM) bool     { return true }

func (s *lrrLinear) pick(g int, sm *SM) *Warp {
	ws := s.groups[g]
	n := len(ws)
	for i := 0; i < n; i++ {
		w := ws[(s.next[g]+i)%n]
		if sm.readyLinear(g, int32(w.ID)) {
			s.next[g] = (s.next[g] + i + 1) % n
			return w
		}
	}
	return nil
}

// UseLinearOracle swaps the SM's scheduler for the linear reference of
// the same policy. Call before the first cycle.
func (sm *SM) UseLinearOracle() {
	switch sm.Cfg.Sched {
	case SchedTwoLevel:
		tl := newTwoLevel(nil, sm.groups, sm.Cfg.ActiveSet) // for the initial sets
		s := &twoLevelLinear{active: tl.active, pending: tl.pending, size: tl.size}
		sm.sched, sm.pickFn = s, s.pick
	case SchedLRR:
		s := &lrrLinear{next: make([]int, len(sm.groups)), groups: sm.groups}
		sm.sched, sm.pickFn = s, s.pick
	default:
		cur := make([]int32, len(sm.groups))
		for i := range cur {
			cur[i] = -1
		}
		s := &gtoLinear{current: cur, groups: sm.groups}
		sm.sched, sm.pickFn = s, s.pick
	}
}

// Pick is one issue decision: group g chose warp at cycle.
type Pick struct {
	Cycle   uint64
	G, Warp int
}

// LogPicks appends every successful pick to *log.
func (sm *SM) LogPicks(log *[]Pick) {
	pick := sm.pickFn
	sm.pickFn = func(g int, sm *SM) *Warp {
		w := pick(g, sm)
		if w != nil {
			*log = append(*log, Pick{sm.cycle, g, w.ID})
		}
		return w
	}
}
