package events

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestNilRecorderIsNoOp: a nil *Recorder must absorb every call — the
// disabled fast path instrumented code relies on.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	if r.Enabled(MaskAll) {
		t.Fatal("nil recorder claims enabled")
	}
	r.SetCycle(5)
	r.Issue(0, 1, 2)
	r.Stall(0, StallMemory, 3)
	r.State(0, 1, PhaseActive, 2)
	r.Barrier(0, 1, true)
	r.Exit(0, 1)
	r.PreloadIssue(0, 1, 3)
	r.PreloadFill(0, 1, 3, SrcL1)
	r.OSULine(KindOSUAlloc, 0, 1, 3, LineActive)
	r.Compress(0, 1, 2, true)
	r.L1(true, false, 99)
	if r.Len() != 0 || r.Count(KindIssue) != 0 || r.NumShards() != 0 {
		t.Fatal("nil recorder reports recorded state")
	}
	r.ForEach(func(Event) { t.Fatal("nil ForEach visited an event") })

	rep := Analyze(nil, 100, 4)
	if rep.IssueSlots != 400 || rep.Issued != 0 {
		t.Fatalf("Analyze(nil) = %+v", rep)
	}
}

// TestMaskFiltering: families outside the mask are dropped at the emit
// call, not recorded-then-hidden.
func TestMaskFiltering(t *testing.T) {
	r := NewRecorder(2, MaskSched)
	r.SetCycle(1)
	r.Issue(0, 3, 10)
	r.Stall(1, StallLSU, 4)
	r.State(0, 3, PhaseActive, 0)                // MaskStates: dropped
	r.PreloadIssue(0, 3, 1)                      // MaskPreloads: dropped
	r.OSULine(KindOSUAlloc, 0, 3, 1, LineActive) // MaskOSU: dropped
	r.Compress(0, 3, 1, true)                    // MaskCompress: dropped
	r.L1(false, true, 7)                         // MaskMem: dropped

	if got := r.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if r.Count(KindIssue) != 1 || r.Count(KindStall) != 1 {
		t.Fatalf("sched events missing: issue=%d stall=%d", r.Count(KindIssue), r.Count(KindStall))
	}
	for _, k := range []Kind{KindWarpState, KindPreloadIssue, KindOSUAlloc, KindCompress, KindL1Access} {
		if r.Count(k) != 0 {
			t.Fatalf("masked-out kind %v recorded", k)
		}
	}
	if !r.Enabled(MaskSched) || r.Enabled(MaskOSU) {
		t.Fatal("Enabled does not reflect the mask")
	}
}

// TestChunkGrowth: buffers must grow past the chunk size without losing
// or reordering events, across appends that land mid-chunk and appends
// that span several chunk boundaries.
func TestChunkGrowth(t *testing.T) {
	r := NewRecorder(1, MaskSched)
	emitted := 0
	for _, n := range []int{chunkEvents + 17, 5, 3*chunkEvents - 2} {
		for i := 0; i < n; i++ {
			r.SetCycle(uint64(emitted))
			r.Issue(0, emitted%64, emitted)
			emitted++
		}
		if r.Len() != emitted || r.Count(KindIssue) != uint64(emitted) {
			t.Fatalf("Len=%d Count=%d, want %d", r.Len(), r.Count(KindIssue), emitted)
		}
		next := 0
		r.ForEach(func(e Event) {
			if e.Cycle != uint64(next) || int(e.Arg) != next {
				t.Fatalf("event %d is cycle %d insn %d", next, e.Cycle, e.Arg)
			}
			next++
		})
		if next != emitted {
			t.Fatalf("ForEach visited %d, want %d", next, emitted)
		}
	}
}

// synthRecording builds a small hand-written run on one scheduler group:
//
//	cycle 1: w0 starts preloading region 7 (one fetch), group stalls on
//	         scoreboard
//	cycle 2: w1 activates region 2 immediately; group issues; w0's fetch
//	         fills from L1 (latency 1)
//	cycle 3: w0 turns active; group issues
//	cycle 4: group stalls on capacity, charged to w0
//	cycle 5: w0 starts preloading region 9; group issues
//
// 5 cycles x 1 scheduler = 5 slots: 3 issues + 2 stalls.
func synthRecording() *Recorder {
	r := NewRecorder(1, MaskAll)
	r.SetCycle(1)
	r.State(0, 0, PhasePreloading, 7)
	r.PreloadIssue(0, 0, 3)
	r.Stall(0, StallScoreboard, 0)
	r.SetCycle(2)
	r.State(0, 1, PhaseActive, 2)
	r.Issue(0, 1, 5)
	r.PreloadFill(0, 0, 3, SrcL1)
	r.SetCycle(3)
	r.State(0, 0, PhaseActive, 7)
	r.Issue(0, 0, 6)
	r.SetCycle(4)
	r.Stall(0, StallCapacity, 0)
	r.SetCycle(5)
	r.State(0, 0, PhasePreloading, 9)
	r.Issue(0, 1, 7)
	return r
}

// TestAnalyzeSynthetic checks the analyzer's arithmetic on a recording
// small enough to verify by hand.
func TestAnalyzeSynthetic(t *testing.T) {
	rep := Analyze(synthRecording(), 5, 1)

	if rep.IssueSlots != 5 || rep.Issued != 3 {
		t.Fatalf("slots=%d issued=%d, want 5/3", rep.IssueSlots, rep.Issued)
	}
	if !rep.TilesExactly() {
		t.Fatalf("breakdown does not tile: %+v", rep)
	}
	if rep.Stalls[StallScoreboard] != 1 || rep.Stalls[StallCapacity] != 1 {
		t.Fatalf("stalls = %v", rep.Stalls)
	}
	if rep.Preloads != 1 || rep.FillsBySrc[SrcL1] != 1 {
		t.Fatalf("preloads=%d fills=%v", rep.Preloads, rep.FillsBySrc)
	}
	if rep.LatencySum != 1 || rep.LatencyMax != 1 {
		t.Fatalf("latency sum=%d max=%d, want 1/1", rep.LatencySum, rep.LatencyMax)
	}
	// w0 preloaded over (1,3]: 2 cycles, no group stall inside -> fully
	// hidden. w1's immediate activation and w0's reactivation at cycle 5
	// are region instances without spans.
	if rep.RegionInstances != 3 || rep.PreloadSpans != 1 {
		t.Fatalf("instances=%d spans=%d, want 3/1", rep.RegionInstances, rep.PreloadSpans)
	}
	if rep.PreloadCycles != 2 || rep.HiddenCycles != 2 || rep.FullyHidden != 1 {
		t.Fatalf("hiding: %d/%d cycles, %d full", rep.HiddenCycles, rep.PreloadCycles, rep.FullyHidden)
	}
	if rate := rep.HidingRate(); rate != 1.0 {
		t.Fatalf("hiding rate %v, want 1.0", rate)
	}
	// The capacity stall at cycle 4 charges w0's next activation: region 9.
	if len(rep.TopRegions) != 1 || rep.TopRegions[0] != (RegionStall{9, 1, 1}) {
		t.Fatalf("top regions = %+v", rep.TopRegions)
	}

	out := rep.Render(0)
	for _, want := range []string{"5 issue slots", "capacity", "scoreboard", "100.0% of 2 preloading cycles", "region 9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Fatalf("tiling report carries a warning:\n%s", out)
	}
}

// TestAnalyzeWarnsWhenNotTiling: a breakdown that misses slots must say so.
func TestAnalyzeWarnsWhenNotTiling(t *testing.T) {
	rep := Analyze(synthRecording(), 50, 1) // claim 50 cycles, record 5
	if rep.TilesExactly() {
		t.Fatal("short recording claims to tile")
	}
	if !strings.Contains(rep.Render(0), "WARNING") {
		t.Fatal("non-tiling report has no warning")
	}
}

// TestWritePerfettoParses: the exporter's output must be valid JSON with
// the spans a hand-checkable recording implies.
func TestWritePerfettoParses(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChipPerfetto(&buf, []*Recorder{synthRecording()}, []TraceMeta{{
		Bench: "synthetic", Scheme: "regless", Warps: 2, Schedulers: 1, Cycles: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		OtherData struct {
			Bench  string `json:"bench"`
			Cycles uint64 `json:"cycles"`
		} `json:"otherData"`
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   uint64         `json:"ts"`
			Dur  uint64         `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if tf.OtherData.Bench != "synthetic" || tf.OtherData.Cycles != 5 {
		t.Fatalf("otherData = %+v", tf.OtherData)
	}
	spans := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name] = true
			if ev.Dur == 0 {
				t.Fatalf("zero-duration span %q", ev.Name)
			}
		}
	}
	// Phase span for w0's first preloading, its preload fetch, the merged
	// issue run, and both attributed stall spans.
	for _, want := range []string{"preloading", "R3", "w00", "scoreboard", "capacity"} {
		if !spans[want] {
			t.Fatalf("missing span %q; have %v", want, spans)
		}
	}
}

// TestEventRegionRoundTrip: the NoRegion encoding must decode to -1.
func TestEventRegionRoundTrip(t *testing.T) {
	r := NewRecorder(1, MaskStates)
	r.State(0, 0, PhaseInactive, -1)
	r.State(0, 0, PhasePreloading, 12)
	var regions []int
	r.ForEach(func(e Event) { regions = append(regions, e.Region()) })
	if len(regions) != 2 || regions[0] != -1 || regions[1] != 12 {
		t.Fatalf("regions = %v", regions)
	}
}

// TestStateNames pins the names the capacity manager's warp states
// (cm.State) and the OSU's line states (osu.State) print as: diagnostic
// bundles carry both, and Perfetto names a warp's phase spans by them.
func TestStateNames(t *testing.T) {
	phases := []string{"inactive", "preloading", "active", "draining", "finished"}
	if len(phases) != int(NumPhases) {
		t.Fatalf("%d phase names for %d phases", len(phases), NumPhases)
	}
	for p, want := range phases {
		if got := Phase(p).String(); got != want {
			t.Errorf("Phase(%d) = %q, want %q", p, got, want)
		}
	}
	for s, want := range []string{"active", "clean", "dirty"} {
		if got := LineState(s).String(); got != want {
			t.Errorf("LineState(%d) = %q, want %q", s, got, want)
		}
	}
}
