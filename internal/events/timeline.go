package events

import (
	"fmt"
	"sort"
	"strings"
)

// Glyph is a warp's timeline character in one bucket: the condition it
// spent the most cycles in.
type Glyph byte

// Timeline glyphs.
const (
	// GlyphIdle: not issuing, no capacity state (baseline schemes).
	GlyphIdle Glyph = '.'
	// GlyphInactive: on the RegLess warp stack.
	GlyphInactive Glyph = '-'
	// GlyphPreloading: inputs being staged.
	GlyphPreloading Glyph = 'p'
	// GlyphActive: eligible to issue.
	GlyphActive Glyph = 'A'
	// GlyphDraining: waiting for final writebacks.
	GlyphDraining Glyph = 'd'
	// GlyphBarrier: waiting at a CTA barrier.
	GlyphBarrier Glyph = 'b'
	// GlyphFinished: warp exited.
	GlyphFinished Glyph = ' '
)

// TimelineSample is one time bucket's view of the machine.
type TimelineSample struct {
	StartCycle uint64
	// Warp[i] is warp i's dominant glyph in the bucket.
	Warp []Glyph
	// Insns is the number of instructions issued in the bucket.
	Insns uint64
}

// Timeline is one SM's warp-state timeline — the view a RegLess designer
// needs to see the capacity manager breathing: warps cycling through
// inactive/preloading/active/draining as regions stage, and issue slots
// filling or starving. Like Analyze it is a fold over the recording of a
// finished run: capacity phases from KindWarpState transitions, barriers
// and exits from the scheduler events every scheme emits, instructions
// from KindIssue.
type Timeline struct {
	Bucket int
	// FirstWarp is the global ID of the SM's warp 0 (row labels).
	FirstWarp int
	Samples   []TimelineSample
}

// FoldTimeline buckets one SM's finished run every `bucket` (at least 1)
// cycles: rec is the recorder that observed it (it must have kept
// MaskTimeline), cycles the SM's cycle count, warps its warp count and
// firstWarp its first global warp ID.
func FoldTimeline(rec *Recorder, cycles uint64, warps, firstWarp, bucket int) *Timeline {
	hists, insns := histograms(rec, cycles, warps, uint64(bucket))
	res := &Timeline{Bucket: bucket, FirstWarp: firstWarp, Samples: make([]TimelineSample, len(hists))}
	for k, h := range hists {
		s := TimelineSample{StartCycle: uint64(k) * uint64(bucket), Warp: make([]Glyph, warps), Insns: insns[k]}
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
// glyphOrder index) and insns[k] how many instructions issued in them. A
// warp's class changes only where a state, barrier or exit event is
// stamped and holds from that cycle until the next one, so each stretch
// is charged to the buckets it overlaps by interval arithmetic: a span
// the run fast-forwarded over needs no special case, because nothing
// fires inside it.
func histograms(rec *Recorder, cycles uint64, warps int, b uint64) (hists [][][7]int, insns []uint64) {
	hists = make([][][7]int, (cycles+b-1)/b)
	for k := range hists {
		hists[k] = make([][7]int, warps)
	}
	insns = make([]uint64, len(hists))
	// A warp's state events and its barrier/exit events may sit in
	// different buffers (shard vs. scheduler group), each in cycle order:
	// collect them and merge by cycle. They set independent fields, so the
	// order within one cycle does not matter.
	var changes []Event
	rec.ForEach(func(e Event) {
		switch e.Kind {
		case KindIssue:
			insns[(e.Cycle-1)/b]++
		case KindWarpState, KindBarrier, KindExit:
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

var glyphOrder = [7]Glyph{GlyphIdle, GlyphInactive, GlyphPreloading,
	GlyphActive, GlyphDraining, GlyphBarrier, GlyphFinished}

func dominant(hist *[7]int) Glyph {
	best, n := 0, -1
	for i, c := range hist {
		if c > n {
			best, n = i, c
		}
	}
	return glyphOrder[best]
}

// warpFold is one warp in mid-fold: what its events so far add up to, and
// the last cycle already charged to a bucket.
type warpFold struct {
	finished, barrier bool
	phased            bool // a WarpState event has arrived (never, on baseline schemes)
	phase             Phase
	charged           uint64
}

func (wf *warpFold) apply(e Event) {
	switch e.Kind {
	case KindWarpState:
		wf.phased, wf.phase = true, Phase(e.A)
	case KindBarrier:
		wf.barrier = e.A == 1
	case KindExit:
		wf.finished = true
	}
}

// class returns the warp's glyphOrder index with the timeline's
// priority: finished beats barrier beats capacity phase; a warp that
// never emitted a phase reads as Idle.
func (wf *warpFold) class() int {
	switch {
	case wf.finished:
		return 6 // GlyphFinished
	case wf.barrier:
		return 5 // GlyphBarrier
	case !wf.phased:
		return 0 // GlyphIdle
	}
	switch wf.phase {
	case PhaseInactive:
		return 1
	case PhasePreloading:
		return 2
	case PhaseActive:
		return 3
	case PhaseDraining:
		return 4
	default:
		return 6
	}
}

// Render draws the timeline: one row per warp, one column per bucket,
// with an IPC footer. maxCols clips long runs (0 = no clip).
func (r *Timeline) Render(maxCols int) string {
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
func (r *Timeline) CSV() string {
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
