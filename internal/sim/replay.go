package sim

import "repro/internal/arena"

// Pick replay: a scheduler group whose pick failed, and whose pick inputs
// have not moved since, fails again with the same rejections — so it
// charges them again instead of asking the masks, the way replicateSkip
// charges a whole frozen SM's skipped cycles.
//
// Soundness argument. A failed pick is a pure function of its group's
// ready-mask words (mLive, mStall against the clock, mSB, mGlobal, mSFU,
// mMem, mProv), the LSU's room, the group's SFU interval and the
// scheduler's own structure. Every SM-side mask write goes through a
// writer that marks the warp's group moved (setLive, armStall, refreshSB,
// refreshInsn, and the load-mask writes in addPending/completePending);
// the provider's words, which it writes itself, are compared with a copy;
// the LSU's room and the SFU interval are compared as the booleans the
// pick reads. The clock enters only through armed stall timers, so a
// pick is replayable only when no live warp of the group has one armed.
// The scheduler's structure is left alone by a failed pick exactly when
// it reports frozen (GTO always; two-level when no demotion or promotion
// is due), the same question fast-forward asks of it. Replays are off
// with fast-forward (Cfg.NoFastForward) and under fault injection, so
// fast-forward on ≡ off holds them to stepping.
type pickReplay struct {
	// ok: the last pick failed and may be replayed, and no mask writer
	// has touched a warp of the group since (moved clears it).
	ok      bool
	lsuRoom bool
	sfuBusy bool
	sb      uint32 // the failed pick's scoreboard rejections
	prov    uint32 // and provider refusals
}

// initReplay sizes the per-group replay state.
func (sm *SM) initReplay() {
	sm.replay = arena.Make[pickReplay](sm.a, sm.Cfg.Schedulers)
	sm.replayProv = arena.Make[uint64](sm.a, sm.Cfg.Schedulers*sm.grpWords)
}

// pick is group g's pick for this cycle: a replay while what the last
// failed pick read still holds, else the scheduler's, whose failure is
// recorded for the next cycle.
func (sm *SM) pick(g int) *Warp {
	r := &sm.replay[g]
	if r.ok && r.lsuRoom == sm.lsu.hasRoom() && r.sfuBusy == (sm.sfuNextIssue[g] > sm.cycle) &&
		(sm.stager == nil || sm.provSame(g)) {
		sm.chargeScoreboard(g, int(r.sb))
		sm.chargeProvider(g, int(r.prov))
		return nil
	}
	w := sm.pickFn(g, sm)
	if r.ok = w == nil && sm.replayable(g); r.ok {
		*r = pickReplay{ok: true, lsuRoom: sm.lsu.hasRoom(), sfuBusy: sm.sfuNextIssue[g] > sm.cycle,
			sb: sm.scanSB[g], prov: sm.scanProv[g]}
		copy(sm.replayProv[g*sm.grpWords:(g+1)*sm.grpWords], sm.mProv[g])
	}
	return w
}

// replayable reports that group g's failed pick may be replayed while
// its inputs stand: replays are on, no live warp of the group has a
// stall timer armed, and the scheduler is frozen.
func (sm *SM) replayable(g int) bool {
	if sm.Cfg.NoFastForward || sm.flt != nil {
		return false
	}
	for i := g * sm.grpWords; i < (g+1)*sm.grpWords; i++ {
		if sm.mStall[i]&sm.mLive[i] != 0 {
			return false
		}
	}
	return sm.sched.frozen(g, sm)
}

// provSame reports that the provider's issue words for group g are what
// they were when the replay was recorded.
func (sm *SM) provSame(g int) bool {
	for p, v := range sm.mProv[g] {
		if sm.replayProv[g*sm.grpWords+p] != v {
			return false
		}
	}
	return true
}

// moved marks w's group's pick inputs as changed: its last pick is not
// replayed.
func (sm *SM) moved(w *Warp) { sm.replay[w.Group].ok = false }
