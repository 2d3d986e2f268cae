package sim

import (
	"math/bits"

	"repro/internal/events"
)

// Cycle-skip fast-forward: when a stepped cycle issues nothing and every
// component is provably frozen, the SM jumps straight to the cycle before
// the earliest wakeup instead of stepping the inert span cycle by cycle.
//
// Soundness argument. A cycle's observable work comes from (a) due timing
// events — the SM wheel (writebacks, provider callbacks) and the memory
// hierarchy's event heap, (b) the LSU injecting lines, (c) the provider's
// Tick machinery, and (d) the issue scan. After a zero-issue cycle the
// scan's outcome is a pure function of state that only (a)-(c) can change:
// barrier releases and window tracking need an issue, GTO mutates its
// structure only on a successful pick, and per-warp stall timers
// are compared against the clock. The two-level scheduler is the
// exception — its demote/promote pass can rotate pending order on
// zero-issue cycles (barrier-stalled warps churn through the active set)
// — so each group's scheduler must additionally report frozen() before a
// skip. So the machine stays frozen until the earliest of:
// the next wheel event, the next memory event (or data-port retry slot
// when the LSU is waiting), the first warp stall timer to expire, and the
// first SFU issue interval to expire. The skip stops one cycle short of
// that minimum and the next stepped cycle performs the wakeup normally.
//
// The skipped cycles still happened architecturally: every per-cycle
// counter the stepped span would have bumped is replicated (the frozen
// scan repeats the same scoreboard/provider rejections every cycle — the
// step captured them in scanSB/scanProv), metrics windows are closed at
// every WindowSize boundary the skip crosses, the LSU's one rejected
// injection per cycle is charged, attributed stall events are replayed
// per cycle when a recorder listens, and the watchdog trip cycle caps the
// jump so a hung machine diagnoses at the same cycle it would have when
// stepped. A byte-identical run, minus the time.

// noWake is the "no wakeup source" sentinel for the target computation.
const noWake = ^uint64(0)

// fastForward attempts one coordinated cycle skip across lockstep SMs
// (one SM is the degenerate case): every unfinished SM must be provably
// frozen, and the jump target is the minimum wake cycle across them — an
// SM may not skip past another SM's wakeup because the waker's new
// L2/DRAM traffic changes the bank-port and bandwidth arbitration every
// sleeper would see. It stops one cycle short of that minimum, so the
// next stepped cycle performs the wakeup normally. Per-SM watchdog trips
// and MaxCycles already cap each SM's wake target, so abnormal runs keep
// their stepped-run cycle numbers.
func fastForward(sms []*SM) bool {
	target := noWake
	for _, sm := range sms {
		if !sm.ffEligible() {
			// A finished SM no longer takes part; an unfinished one that
			// is not frozen vetoes the jump.
			if sm.Done() {
				continue
			}
			return false
		}
		t := sm.wakeTarget()
		if t == noWake {
			// Nothing will ever wake this SM: a hang, which only the
			// stepped path may diagnose (the watchdog target is included,
			// so this needs the watchdog disabled).
			return false
		}
		if t <= sm.cycle+1 {
			return false
		}
		if t < target {
			target = t
		}
	}
	if target == noWake {
		return false
	}
	for _, sm := range sms {
		if !sm.Done() {
			sm.Stats.FFSkippedCycles += target - 1 - sm.cycle
			sm.Stats.FFJumps++
			sm.replicateSkip(target - 1)
		}
	}
	return true
}

// ffEligible reports whether this SM is provably frozen after the cycle
// just stepped, and worth skipping from. Gates, cheapest first: the
// feature is on, no fault injector is armed (faults fire on wall-clock
// cycles inside provider ticks), this cycle issued nothing (an issue
// moves architectural state: windows, barriers, scheduler structures);
// nothing is due next cycle on either calendar — the refusal that ends
// nine attempts in ten, and exactly the one fastForward would make of
// wakeTarget's answer after the costlier questions below, whose only
// effect is the provider's does-not-fit memo; the provider is provably
// idle — a register file always is, a Stager reports TickIdle on its
// current state; the SM is not finished; and every group's scheduler is
// mutation-free on failed picks (two-level demote/promote churns on
// zero-issue cycles).
func (sm *SM) ffEligible() bool {
	if sm.Cfg.NoFastForward || sm.flt != nil || sm.lastProgress == sm.cycle {
		return false
	}
	if sm.wheel.Due(sm.cycle + 1) {
		return false
	}
	if t, ok := sm.Mem.NextWake(!sm.lsu.empty()); ok && t <= sm.cycle+1 {
		return false
	}
	if sm.stager != nil && !sm.stager.TickIdle() {
		return false
	}
	if sm.Done() {
		return false
	}
	for g := 0; g < sm.Cfg.Schedulers; g++ {
		if !sm.sched.frozen(g, sm) {
			return false
		}
	}
	return true
}

// wakeTarget computes the earliest future cycle at which the frozen
// machine can change state, capped by the watchdog trip cycle and the
// MaxCycles abort so abnormal terminations keep their stepped-run cycle
// numbers. Sources may be conservative (an early wakeup just steps one
// inert cycle and fast-forwards again); missing one would be unsound.
func (sm *SM) wakeTarget() uint64 {
	target := noWake
	if t, ok := sm.wheel.NextCycle(sm.cycle); ok && t < target {
		target = t
	}
	if t, ok := sm.Mem.NextWake(!sm.lsu.empty()); ok && t < target {
		target = t
	}
	// Warp stall timers: only live, non-barrier warps can wake this way
	// (a barrier release needs another warp's issue, which needs one of
	// the other wakeup sources first).
	for i, armed := range sm.mStall {
		for m := armed & sm.mLive[i]; m != 0; m &= m - 1 {
			w := sm.groups[i/sm.grpWords][i%sm.grpWords<<6+bits.TrailingZeros64(m)]
			if t := sm.wStallUntil[w.ID]; t > sm.cycle && t < target {
				target = t
			}
		}
	}
	for _, t := range sm.sfuNextIssue {
		if t > sm.cycle && t < target {
			target = t
		}
	}
	if wd := sm.Cfg.WatchdogCycles; wd > 0 && !sm.allDone() {
		if trip := sm.lastProgress + wd + 1; trip < target {
			target = trip
		}
	}
	if mc := sm.Cfg.MaxCycles; mc > 0 && target > mc {
		target = mc
	}
	return target
}

// replicateSkip advances sm.cycle to end, replaying everything the
// stepped span would have recorded: per-group no-issue and rejection
// counters (the frozen scan tallies times the span length), provider
// stall accounting, the LSU's one rejected data injection per cycle,
// metrics-window closes at every boundary crossed, and per-cycle stall
// attribution events when a recorder listens.
func (sm *SM) replicateSkip(end uint64) {
	var sumProv uint64
	for g := 0; g < sm.Cfg.Schedulers; g++ {
		sumProv += uint64(sm.scanProv[g])
	}
	lsuWaiting := !sm.lsu.empty()

	recSched := sm.Rec.Enabled(events.MaskSched)
	if recSched {
		if sm.ffReason == nil {
			sm.ffReason = reasonT.Make(sm.a, sm.Cfg.Schedulers)
			sm.ffCulprit = intT.Make(sm.a, sm.Cfg.Schedulers)
		}
		// The attribution is a pure function of the frozen state:
		// compute it once (sm.cycle still on the stepped cycle) and
		// replay it for every skipped cycle.
		for g := 0; g < sm.Cfg.Schedulers; g++ {
			sm.ffReason[g], sm.ffCulprit[g] = sm.stallReason(g)
		}
	}

	for sm.cycle < end {
		next := min(end, sm.nextWindow)
		seg := next - sm.cycle
		for g := 0; g < sm.Cfg.Schedulers; g++ {
			sm.grp[g].NoIssue += seg
			sm.grp[g].Scoreboard += seg * uint64(sm.scanSB[g])
			sm.grp[g].ProviderStall += seg * uint64(sm.scanProv[g])
		}
		sm.Stats.IssueStalls += seg * sumProv
		sm.Prov.StallCycles += seg * sumProv
		if lsuWaiting {
			// Each stepped cycle would have retried queue-head injection
			// exactly once and been rejected (the wake target stops short
			// of the cycle the port or queue frees).
			sm.Mem.Stats.DataRejects += seg
		}
		if recSched {
			for c := sm.cycle + 1; c <= next; c++ {
				sm.Rec.SetCycle(c)
				for g := 0; g < sm.Cfg.Schedulers; g++ {
					sm.Rec.Stall(g, sm.ffReason[g], sm.ffCulprit[g])
				}
			}
		}
		sm.cycle = next
		sm.sampleWindow()
	}
	sm.Mem.FastForwardTo(end)
}
