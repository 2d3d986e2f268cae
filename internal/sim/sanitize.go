package sim

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/sanitizer"
)

// AttachSanitizer wires the cycle-level invariant checker through the
// machine: the SM registers its scoreboard/warp-state check and a Stager
// adds its own (OSU partition, CM reservations and transitions,
// staged-count agreement). Call once, before Run; a nil sanitizer leaves
// checking disabled at one branch per cycle.
func (sm *SM) AttachSanitizer(s *sanitizer.Sanitizer) {
	sm.san = s
	sm.Metrics.CheckNames() // a sanitized run also holds its cell names unique
	s.Register("sim/warps", sm.checkWarps)
	s.Register("sim/readymask", sm.checkMasks)
	if sm.stager != nil {
		sm.stager.AttachSanitizer(s)
	}
}

// AttachFaults hands the fault injector to every layer that can host
// faults: the memory hierarchy (delayed/dropped L1 responses) and a
// Stager (OSU/compressor/metadata corruption). Call once, before Run.
func (sm *SM) AttachFaults(in *faults.Injector) {
	sm.flt = in
	sm.Mem.SetFaults(in)
	if sm.stager != nil {
		sm.stager.SetFaults(in)
	}
}

// ReportFault records an invariant violation detected inside a layer
// without an error return path (provider hooks, writeback callbacks).
// The first report wins; Run surfaces it as a Diagnostic at the end of
// the current cycle instead of panicking mid-callback.
func (sm *SM) ReportFault(component, violation string, warp int) {
	if sm.fault != nil {
		return
	}
	sm.fault = &sanitizer.Diagnostic{
		Component: component,
		Violation: violation,
		Cycle:     sm.cycle,
		Warp:      warp,
	}
}

// checkHealth inspects the machine after a step: a latched fault report,
// the forward-progress watchdog, then the sanitizer sweep. It returns a
// fully-populated Diagnostic error on the first problem. The healthy
// path costs two nil checks and one compare.
func (sm *SM) checkHealth() error {
	if sm.fault != nil {
		return sm.diagnose(sm.fault)
	}
	if wd := sm.Cfg.WatchdogCycles; wd > 0 && sm.cycle-sm.lastProgress > wd && !sm.allDone() {
		return sm.diagnose(&sanitizer.Diagnostic{
			Component: "sim/watchdog",
			Violation: fmt.Sprintf("no warp issued for %d cycles (last issue at cycle %d, %d insns retired)",
				sm.cycle-sm.lastProgress, sm.lastProgress, sm.Stats.DynInsns),
			Cycle: sm.cycle,
			Warp:  -1,
		})
	}
	if d := sm.san.Check(sm.cycle); d != nil {
		return sm.diagnose(d)
	}
	return nil
}

// checkWarps is the SM's own invariant: no warp waits on more loads than
// it has registers pending, and none is in an impossible state.
func (sm *SM) checkWarps() error {
	for _, w := range sm.Warps {
		if n := sm.pendingCount(w.ID); w.pendingMem < 0 || w.pendingMem > n {
			return fmt.Errorf("warp %d: pending mem writes %d outside [0,%d]",
				w.ID, w.pendingMem, n)
		}
		if w.Finished() && w.AtBarrier() {
			return fmt.Errorf("warp %d: finished while waiting at a barrier", w.ID)
		}
	}
	return nil
}

// diagEvents is how many trailing recorded events a bundle carries.
const diagEvents = 64

// diagnose completes a Diagnostic with the machine context: run
// identity, applied faults, per-warp state (a Stager's capacity phase),
// the attributed stall breakdown, a metrics snapshot, and the last
// recorded events.
func (sm *SM) diagnose(d *sanitizer.Diagnostic) *sanitizer.Diagnostic {
	d.Kernel = sm.K.Name
	d.Provider = sm.Provider.Name()
	d.FaultsApplied = sm.flt.Applied()
	var counts [events.NumStallReasons]int
	for _, w := range sm.Warps {
		wd := sanitizer.WarpDiag{
			ID:            w.ID,
			Group:         w.Group,
			Region:        -1,
			Finished:      w.Finished(),
			AtBarrier:     w.AtBarrier(),
			PendingWrites: sm.pendingCount(w.ID),
			LastIssue:     w.lastIssue,
		}
		if sm.stager != nil {
			wd.State, wd.Region = sm.stager.WarpDiag(w.ID)
		}
		d.Warps = append(d.Warps, wd)
		if !w.Finished() {
			counts[sm.classifyWarp(w)]++
		}
	}
	for r := events.StallReason(0); r < events.NumStallReasons; r++ {
		if counts[r] > 0 {
			d.Stalls = append(d.Stalls, sanitizer.StallCount{Reason: r.String(), Warps: counts[r]})
		}
	}
	for _, s := range sm.Metrics.Snapshot() {
		d.Metrics = append(d.Metrics, sanitizer.Metric{Name: s.Name, Value: s.Value})
	}
	for _, e := range sm.Rec.Tail(diagEvents) {
		d.Events = append(d.Events, sanitizer.EventRecord{
			Cycle:  e.Cycle,
			Kind:   e.Kind.String(),
			Warp:   int(e.Warp),
			Detail: eventDetail(e),
		})
	}
	return d
}

// eventDetail renders an event's per-kind payload for the bundle.
func eventDetail(e events.Event) string {
	switch e.Kind {
	case events.KindIssue:
		return fmt.Sprintf("group %d gi %d", e.B, e.Arg)
	case events.KindStall:
		return fmt.Sprintf("group %d %s", e.B, events.StallReason(e.A))
	case events.KindWarpState:
		return fmt.Sprintf("shard %d -> %s region %d", e.B, events.Phase(e.A), e.Region())
	case events.KindBarrier:
		if e.A == 1 {
			return "enter"
		}
		return "release"
	case events.KindPreloadIssue:
		return fmt.Sprintf("shard %d r%d", e.B, e.Arg)
	case events.KindPreloadFill:
		return fmt.Sprintf("shard %d r%d from %s", e.B, e.Arg, events.PreloadSrc(e.A))
	case events.KindOSUAlloc, events.KindOSUActivate, events.KindOSUDemote, events.KindOSUEvict, events.KindOSUErase:
		return fmt.Sprintf("shard %d r%d %s", e.B, e.Arg, events.LineState(e.A))
	case events.KindCompress:
		return fmt.Sprintf("shard %d pattern %d hit=%d", e.B, e.A, e.Arg)
	case events.KindL1Access:
		return fmt.Sprintf("addr %#x flags %d", e.Arg, e.A)
	default:
		return ""
	}
}
