package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// TraceMeta labels an exported trace.
type TraceMeta struct {
	Bench      string
	Scheme     string
	Warps      int
	Schedulers int
	Cycles     uint64
	// SM is this recording's SM index on the chip (0 on a chip of
	// one); WarpIDBase is the SM's first global warp ID. Events carry
	// SM-local warp IDs — these place the SM's tracks in the right
	// process group and turn its warps' IDs into global ones.
	SM         int
	WarpIDBase int
	// PatternNames optionally names compressor pattern IDs (A field of
	// KindCompress events); unnamed IDs render as "pat<N>".
	PatternNames []string
}

// pidStride spaces the per-SM process-ID blocks in a chip export: SM i
// owns pids [1+i*pidStride, 5+i*pidStride], so Perfetto's process
// groups cluster by SM.
const pidStride = 8

// Track process IDs in the exported trace. Perfetto renders each pid as
// a collapsible process group; tids within it are rows.
const (
	pidScheduler = 1 // per-group issue/stall spans
	pidWarps     = 2 // per-warp capacity-phase and barrier spans
	pidPreloads  = 3 // per-warp preload (issue -> fill) spans
	pidOSU       = 4 // per-shard occupancy counters
	pidCompress  = 5 // per-shard compressor decisions (instants)
)

// TraceEvent is one Chrome trace-event JSON object. Ts/Dur are in
// microseconds; the cycle-level exporters map one simulated cycle to
// 1 us so Perfetto's time axis reads directly in cycles, while the
// service-level exporter (internal/obs) records real wall microseconds.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace streams one Chrome trace-event JSON document: header
// (displayTimeUnit + otherData), comma-separated events, footer. Both
// the cycle-level exporters here and the service-level span exporter in
// internal/obs write through it, so every trace this repo produces opens
// in the same viewer (ui.perfetto.dev or chrome://tracing).
type ChromeTrace struct {
	w     *bufio.Writer
	first bool
	err   error
}

// NewChromeTrace writes the document header. otherData must be a
// rendered JSON object describing the trace ("" writes {}).
func NewChromeTrace(w io.Writer, otherData string) *ChromeTrace {
	bw := bufio.NewWriterSize(w, 1<<16)
	if otherData == "" {
		otherData = "{}"
	}
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\n\"otherData\":%s,\n\"traceEvents\":[\n", otherData)
	return &ChromeTrace{w: bw, first: true}
}

// Emit appends one event. Errors stick; Close reports the first.
func (ct *ChromeTrace) Emit(ev TraceEvent) {
	if ct.err != nil {
		return
	}
	raw, err := json.Marshal(ev)
	if err != nil {
		ct.err = err
		return
	}
	if !ct.first {
		ct.w.WriteString(",\n")
	}
	ct.first = false
	_, ct.err = ct.w.Write(raw)
}

// Meta appends a metadata event (process/thread naming).
func (ct *ChromeTrace) Meta(pid, tid int, key, value string, args map[string]any) {
	if args == nil {
		args = map[string]any{}
	}
	args["name"] = value
	ct.Emit(TraceEvent{Name: key, Ph: "M", Pid: pid, Tid: tid, Args: args})
}

// Close writes the document footer and flushes, returning the first
// error encountered by any Emit or write.
func (ct *ChromeTrace) Close() error {
	ct.w.WriteString("\n]}\n")
	if ct.err != nil {
		return ct.err
	}
	return ct.w.Flush()
}

// WriteChipPerfetto exports one recording per SM as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
// scheduler groups as merged issue/stall spans, warps as capacity-phase
// tracks, preload spans, OSU occupancy counters, and compressor
// decisions. Each SM's five track families live in their own process-ID
// block, so Perfetto's process groups cluster by SM and warp tracks carry
// global warp IDs. metas[i] labels recs[i]; otherData comes from metas[0].
func WriteChipPerfetto(w io.Writer, recs []*Recorder, metas []TraceMeta) error {
	if len(recs) == 0 || len(recs) != len(metas) {
		return fmt.Errorf("events: %d recorders with %d metas", len(recs), len(metas))
	}
	m0 := metas[0]
	other := fmt.Sprintf("{\"bench\":%q,\"scheme\":%q,\"sms\":%d,\"warps\":%d,\"schedulers\":%d,\"cycles\":%d,\"unit\":\"1us = 1 cycle\"}",
		m0.Bench, m0.Scheme, len(recs), m0.Warps, m0.Schedulers, m0.Cycles)
	pw := NewChromeTrace(w, other)

	for i, rec := range recs {
		meta := metas[i]
		base := meta.SM * pidStride
		prefix := ""
		if len(recs) > 1 {
			prefix = fmt.Sprintf("SM%d ", meta.SM)
		}
		pw.Meta(base+pidScheduler, 0, "process_name", prefix+"scheduler groups", map[string]any{"sort_index": base + pidScheduler})
		pw.Meta(base+pidWarps, 0, "process_name", prefix+"warp states", map[string]any{"sort_index": base + pidWarps})
		pw.Meta(base+pidPreloads, 0, "process_name", prefix+"preloads", map[string]any{"sort_index": base + pidPreloads})
		pw.Meta(base+pidOSU, 0, "process_name", prefix+"osu occupancy", map[string]any{"sort_index": base + pidOSU})
		pw.Meta(base+pidCompress, 0, "process_name", prefix+"compressor", map[string]any{"sort_index": base + pidCompress})
		for g := 0; g < rec.NumShards(); g++ {
			pw.Meta(base+pidScheduler, g, "thread_name", fmt.Sprintf("group %d", g), nil)
			pw.Meta(base+pidOSU, g, "thread_name", fmt.Sprintf("shard %d", g), nil)
			pw.Meta(base+pidCompress, g, "thread_name", fmt.Sprintf("shard %d", g), nil)
		}
		for w := meta.WarpIDBase; w < meta.WarpIDBase+meta.Warps; w++ {
			pw.Meta(base+pidWarps, w, "thread_name", fmt.Sprintf("w%02d", w), nil)
			pw.Meta(base+pidPreloads, w, "thread_name", fmt.Sprintf("w%02d", w), nil)
		}

		if rec != nil {
			for s := 0; s <= rec.NumShards(); s++ {
				exportShard(pw, rec, s, meta, base)
			}
		}
	}

	return pw.Close()
}

// exportShard walks one shard's buffer once, maintaining the small
// per-track run/span state needed to merge per-cycle events into spans.
// Events name warps by their SM-local ID; everything written — warp and
// preload track tids, the warp named on a scheduler span or a compressor
// decision — carries the global one (gid), which is what
// WriteChipPerfetto named the tracks by.
func exportShard(pw *ChromeTrace, rec *Recorder, s int, meta TraceMeta, pidBase int) {
	gid := func(warp int32) int { return meta.WarpIDBase + int(warp) }

	// Scheduler track: merge consecutive same-labelled cycles into spans.
	type run struct {
		name    string
		isStall bool
		start   uint64
		end     uint64 // last cycle included
		n       int
	}
	var sched *run
	flushSched := func() {
		if sched == nil {
			return
		}
		args := map[string]any{"cycles": sched.n}
		ph := "issue"
		if sched.isStall {
			ph = "stall"
		}
		args["kind"] = ph
		pw.Emit(TraceEvent{Name: sched.name, Ph: "X", Ts: sched.start,
			Dur: sched.end - sched.start + 1, Pid: pidBase + pidScheduler, Tid: s, Args: args})
		sched = nil
	}
	schedStep := func(name string, isStall bool, cycle uint64) {
		if sched != nil && sched.name == name && sched.isStall == isStall && cycle == sched.end+1 {
			sched.end = cycle
			sched.n++
			return
		}
		flushSched()
		sched = &run{name: name, isStall: isStall, start: cycle, end: cycle, n: 1}
	}

	// Warp-state spans: one open phase span per warp on this shard.
	type openSpan struct {
		ph     Phase
		region int
		start  uint64
	}
	phases := map[int]*openSpan{}
	flushPhase := func(w int, until uint64) {
		sp := phases[w]
		if sp == nil {
			return
		}
		delete(phases, w)
		if sp.ph == PhaseInactive || sp.ph == PhaseFinished {
			return // gaps read as inactive; don't clutter the track
		}
		args := map[string]any{}
		if sp.region >= 0 {
			args["region"] = sp.region
		}
		dur := until - sp.start
		if dur == 0 {
			dur = 1
		}
		pw.Emit(TraceEvent{Name: sp.ph.String(), Ph: "X", Ts: sp.start,
			Dur: dur, Pid: pidBase + pidWarps, Tid: w, Args: args})
	}
	barriers := map[int]uint64{}
	preloads := map[uint64]uint64{} // (warp,reg) -> issue cycle

	// OSU occupancy counter, emitted on change (coalesced per cycle).
	active, evictable := 0, 0
	lastCounterCycle := ^uint64(0)
	dirtyCounter := false
	flushCounter := func(cycle uint64) {
		if !dirtyCounter || lastCounterCycle == ^uint64(0) {
			return
		}
		pw.Emit(TraceEvent{Name: "osu lines", Ph: "C", Ts: lastCounterCycle,
			Pid: pidBase + pidOSU, Tid: s, Args: map[string]any{"active": active, "evictable": evictable}})
		dirtyCounter = false
	}
	bumpCounter := func(cycle uint64, dActive, dEvictable int) {
		if cycle != lastCounterCycle {
			flushCounter(cycle)
			lastCounterCycle = cycle
		}
		active += dActive
		evictable += dEvictable
		dirtyCounter = true
	}

	patName := func(id uint8) string {
		if int(id) < len(meta.PatternNames) {
			return meta.PatternNames[id]
		}
		return fmt.Sprintf("pat%d", id)
	}

	var lastCycle uint64
	rec.ShardEvents(s, func(e Event) {
		lastCycle = e.Cycle
		switch e.Kind {
		case KindIssue:
			schedStep(fmt.Sprintf("w%02d", gid(e.Warp)), false, e.Cycle)
		case KindStall:
			schedStep(StallReason(e.A).String(), true, e.Cycle)
		case KindWarpState:
			w := gid(e.Warp)
			flushPhase(w, e.Cycle)
			phases[w] = &openSpan{ph: Phase(e.A), region: e.Region(), start: e.Cycle}
		case KindBarrier:
			w := gid(e.Warp)
			if e.A == 1 {
				barriers[w] = e.Cycle
			} else if start, ok := barriers[w]; ok {
				delete(barriers, w)
				dur := e.Cycle - start
				if dur == 0 {
					dur = 1
				}
				pw.Emit(TraceEvent{Name: "barrier", Ph: "X", Ts: start, Dur: dur,
					Pid: pidBase + pidWarps, Tid: w, Args: map[string]any{"kind": "barrier"}})
			}
		case KindExit:
			flushPhase(gid(e.Warp), e.Cycle)
		case KindPreloadIssue:
			preloads[uint64(e.Warp)<<32|uint64(e.Arg)] = e.Cycle
		case KindPreloadFill:
			key := uint64(e.Warp)<<32 | uint64(e.Arg)
			if start, ok := preloads[key]; ok {
				delete(preloads, key)
				dur := e.Cycle - start
				if dur == 0 {
					dur = 1
				}
				pw.Emit(TraceEvent{Name: fmt.Sprintf("R%d", e.Arg), Ph: "X", Ts: start,
					Dur: dur, Pid: pidBase + pidPreloads, Tid: gid(e.Warp),
					Args: map[string]any{"src": PreloadSrc(e.A).String()}})
			}
		case KindOSUAlloc:
			bumpCounter(e.Cycle, 1, 0)
		case KindOSUActivate:
			if LineState(e.A) != LineActive {
				bumpCounter(e.Cycle, 1, -1)
			}
		case KindOSUDemote:
			bumpCounter(e.Cycle, -1, 1)
		case KindOSUEvict:
			bumpCounter(e.Cycle, 0, -1)
		case KindOSUErase:
			if LineState(e.A) == LineActive {
				bumpCounter(e.Cycle, -1, 0)
			} else {
				bumpCounter(e.Cycle, 0, -1)
			}
		case KindCompress:
			name := patName(e.A)
			if e.Arg == 0 {
				name = "miss"
			}
			pw.Emit(TraceEvent{Name: name, Ph: "i", Ts: e.Cycle, S: "t",
				Pid: pidBase + pidCompress, Tid: s, Args: map[string]any{"warp": gid(e.Warp)}})
		}
	})
	flushSched()
	flushCounter(lastCycle + 1)
	for w := range phases {
		flushPhase(w, lastCycle)
	}
}
