package sim

import (
	"repro/internal/events"
	"repro/internal/isa"
)

// AttachRecorder wires an event recorder through the whole machine: the
// SM's scheduler (issue/stall/barrier/exit events), the memory hierarchy
// (backing-store L1 accesses), and a Stager's internals. Call once,
// before Run; a nil recorder detaches.
func (sm *SM) AttachRecorder(r *events.Recorder) {
	sm.Rec = r
	sm.Mem.SetRecorder(r)
	if sm.stager != nil {
		sm.stager.AttachRecorder(r)
	}
}

// stallReason attributes a no-issue cycle in group g: every candidate
// warp is classified by how close it came to issuing and the cycle is
// charged to the highest reason present (StallReason values are ordered
// by proximity to issue). Returns the charged warp (-1 when idle).
//
// Candidates are the warps the scheduler actually considered (the
// two-level scheduler only scans its active set); when none of them has
// a reason — e.g. an empty active set while demoted warps wait on
// memory — the whole group is scanned so the cycle is still explained.
func (sm *SM) stallReason(g int) (events.StallReason, int) {
	best, bestWarp := classifyScan(sm, sm.sched.candidates(g))
	if best == events.StallIdle {
		best, bestWarp = classifyScan(sm, sm.groups[g])
	}
	return best, bestWarp
}

func classifyScan(sm *SM, warps []*Warp) (events.StallReason, int) {
	best := events.StallIdle
	bestWarp := -1
	for _, w := range warps {
		if r := sm.classifyWarp(w); r > best {
			best, bestWarp = r, w.ID
		}
	}
	return best, bestWarp
}

// classifyWarp mirrors ready()'s hazard checks without its counter side
// effects: the first failing check, in issue order, is the warp's reason.
func (sm *SM) classifyWarp(w *Warp) events.StallReason {
	id := w.ID
	if sm.wFlags[id]&warpFinished != 0 {
		return events.StallIdle
	}
	if sm.wFlags[id]&warpAtBarrier != 0 {
		return events.StallBarrier
	}
	if sm.wStallUntil[id] > sm.cycle {
		return events.StallConflict
	}
	if !sm.sbReady(id) {
		if w.pendingMem > 0 {
			return events.StallMemory
		}
		return events.StallScoreboard
	}
	switch sm.nextClass(id) {
	case isa.ClassMemGlobal:
		if !sm.lsu.hasRoom() {
			return events.StallLSU
		}
	case isa.ClassSFU:
		if sm.sfuNextIssue[w.Group] > sm.cycle {
			return events.StallSFU
		}
	}
	if sm.stager != nil && !sm.stager.CanIssueQuiet(w) {
		return events.StallCapacity
	}
	// Every hazard clear yet the scheduler skipped the group: does not
	// happen with the shipped policies (they issue any ready warp), but
	// classify it as a scoreboard conflict rather than lose the cycle.
	return events.StallScoreboard
}
