// Package trace renders warp-state timelines — the view a RegLess
// designer needs to see the capacity manager breathing: warps cycling
// through inactive/preloading/active/draining as regions stage, and
// issue slots filling or starving.
//
// A timeline is a fold over the event recording of a finished run (any
// run: the package knows nothing of the simulator): capacity phases from
// KindWarpState transitions, barriers and exits from the scheduler events
// every scheme emits, instructions from KindIssue. The same recorder
// doubles as the source for Perfetto export and stall-attribution
// analysis.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/events"
)

// State is the per-warp condition in one bucket.
type State byte

// Timeline glyphs: each bucket shows the state the warp spent the most
// cycles in.
const (
	// StateIdle: not issuing, no capacity state (baseline schemes).
	StateIdle State = '.'
	// StateInactive: on the RegLess warp stack.
	StateInactive State = '-'
	// StatePreloading: inputs being staged.
	StatePreloading State = 'p'
	// StateActive: eligible to issue.
	StateActive State = 'A'
	// StateDraining: waiting for final writebacks.
	StateDraining State = 'd'
	// StateBarrier: waiting at a CTA barrier.
	StateBarrier State = 'b'
	// StateFinished: warp exited.
	StateFinished State = ' '
)

// Sample is one time bucket's view of the machine.
type Sample struct {
	StartCycle uint64
	// Warp[i] is warp i's dominant state in the bucket.
	Warp []State
	// Insns is the number of instructions issued in the bucket.
	Insns uint64
}

// Result is one SM's timeline.
type Result struct {
	Bucket int
	// FirstWarp is the global ID of the SM's warp 0 (row labels).
	FirstWarp int
	Samples   []Sample
}

// Fold buckets one SM's finished run every `bucket` (at least 1) cycles:
// rec is the recorder that observed it (it must have kept
// events.MaskTimeline), cycles the SM's cycle count, warps its warp count
// and firstWarp its first global warp ID.
func Fold(rec *events.Recorder, cycles uint64, warps, firstWarp, bucket int) *Result {
	hists, insns := histograms(rec, cycles, warps, uint64(bucket))
	res := &Result{Bucket: bucket, FirstWarp: firstWarp, Samples: make([]Sample, len(hists))}
	for k, h := range hists {
		s := Sample{StartCycle: uint64(k) * uint64(bucket), Warp: make([]State, warps), Insns: insns[k]}
		for w := range h {
			s.Warp[w] = dominant(&h[w])
		}
		res.Samples[k] = s
	}
	return res
}

// histograms is the fold proper. Cycle stamps run 1..cycles, so bucket k
// holds the stamps in (k*b, (k+1)*b] (the last one may be short);
// hists[k][w][c] is how many of them warp w spent in class c (a
// stateOrder index) and insns[k] how many instructions issued in them. A
// warp's class changes only where a state, barrier or exit event is
// stamped and holds from that cycle until the next one, so each stretch
// is charged to the buckets it overlaps by interval arithmetic: a span
// the run fast-forwarded over needs no special case, because nothing
// fires inside it.
func histograms(rec *events.Recorder, cycles uint64, warps int, b uint64) (hists [][][7]int, insns []uint64) {
	hists = make([][][7]int, (cycles+b-1)/b)
	for k := range hists {
		hists[k] = make([][7]int, warps)
	}
	insns = make([]uint64, len(hists))
	// A warp's state events and its barrier/exit events may sit in
	// different buffers (shard vs. scheduler group), each in cycle order:
	// collect them and merge by cycle. They set independent fields, so the
	// order within one cycle does not matter.
	var changes []events.Event
	rec.ForEach(func(e events.Event) {
		switch e.Kind {
		case events.KindIssue:
			insns[(e.Cycle-1)/b]++
		case events.KindWarpState, events.KindBarrier, events.KindExit:
			changes = append(changes, e)
		}
	})
	sort.SliceStable(changes, func(i, j int) bool { return changes[i].Cycle < changes[j].Cycle })

	ws := make([]warpFold, warps)
	// charge books warp w's current class for its uncharged cycles before
	// `before`.
	charge := func(w int, before uint64) {
		wf := &ws[w]
		c := wf.class()
		for wf.charged+1 < before {
			k := wf.charged / b
			end := min((k+1)*b, before-1)
			hists[k][w][c] += int(end - wf.charged)
			wf.charged = end
		}
	}
	for _, e := range changes {
		// The event's own cycle already reads the new class.
		charge(int(e.Warp), e.Cycle)
		ws[e.Warp].apply(e)
	}
	for w := range ws {
		charge(w, cycles+1)
	}
	return hists, insns
}

var stateOrder = [7]State{StateIdle, StateInactive, StatePreloading,
	StateActive, StateDraining, StateBarrier, StateFinished}

func dominant(hist *[7]int) State {
	best, n := 0, -1
	for i, c := range hist {
		if c > n {
			best, n = i, c
		}
	}
	return stateOrder[best]
}

// warpFold is one warp in mid-fold: what its events so far add up to, and
// the last cycle already charged to a bucket.
type warpFold struct {
	finished, barrier bool
	phased            bool // a WarpState event has arrived (never, on baseline schemes)
	phase             events.Phase
	charged           uint64
}

func (wf *warpFold) apply(e events.Event) {
	switch e.Kind {
	case events.KindWarpState:
		wf.phased, wf.phase = true, events.Phase(e.A)
	case events.KindBarrier:
		wf.barrier = e.A == 1
	case events.KindExit:
		wf.finished = true
	}
}

// class returns the warp's stateOrder index with the timeline's
// priority: finished beats barrier beats capacity phase; a warp that
// never emitted a phase reads as Idle.
func (wf *warpFold) class() int {
	switch {
	case wf.finished:
		return 6 // StateFinished
	case wf.barrier:
		return 5 // StateBarrier
	case !wf.phased:
		return 0 // StateIdle
	}
	switch wf.phase {
	case events.PhaseInactive:
		return 1
	case events.PhasePreloading:
		return 2
	case events.PhaseActive:
		return 3
	case events.PhaseDraining:
		return 4
	default:
		return 6
	}
}

// Render draws the timeline: one row per warp, one column per bucket,
// with an IPC footer. maxCols clips long runs (0 = no clip).
func (r *Result) Render(maxCols int) string {
	var b strings.Builder
	cols := len(r.Samples)
	if maxCols > 0 && cols > maxCols {
		cols = maxCols
	}
	if cols == 0 {
		return "(empty trace)\n"
	}
	warps := len(r.Samples[0].Warp)
	fmt.Fprintf(&b, "warp-state timeline: %d buckets x %d cycles  (A=active p=preloading d=draining -=inactive b=barrier)\n",
		cols, r.Bucket)
	for w := 0; w < warps; w++ {
		fmt.Fprintf(&b, "w%02d |", r.FirstWarp+w)
		for c := 0; c < cols; c++ {
			b.WriteByte(byte(r.Samples[c].Warp[w]))
		}
		b.WriteByte('\n')
	}
	b.WriteString("ipc |")
	for c := 0; c < cols; c++ {
		ipc := float64(r.Samples[c].Insns) / float64(r.Bucket)
		b.WriteByte(ipcGlyph(ipc))
	}
	b.WriteByte('\n')
	return b.String()
}

func ipcGlyph(ipc float64) byte {
	switch {
	case ipc >= 3:
		return '#'
	case ipc >= 2:
		return '='
	case ipc >= 1:
		return '+'
	case ipc > 0:
		return '.'
	default:
		return ' '
	}
}

// CSV emits the samples as comma-separated rows: cycle, insns, then one
// state column per warp.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("cycle,insns")
	if len(r.Samples) > 0 {
		for w := range r.Samples[0].Warp {
			fmt.Fprintf(&b, ",w%d", r.FirstWarp+w)
		}
	}
	b.WriteByte('\n')
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "%d,%d", s.StartCycle, s.Insns)
		for _, st := range s.Warp {
			fmt.Fprintf(&b, ",%c", st)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
