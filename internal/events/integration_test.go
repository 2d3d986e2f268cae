package events_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// tracedRun simulates one benchmark under a scheme with every event
// family recorded, returning the recorder, the run's stats and the SM
// for its metrics registry.
func tracedRun(t *testing.T, scheme experiments.Scheme) (*events.Recorder, *sim.Stats, *sim.SM) {
	t.Helper()
	k, err := kernels.Load("nw")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := experiments.Assemble(nil, k, scheme, 1, experiments.SimSetup{
		Capacity: experiments.DefaultCapacity, Warps: 8, MaxCycles: 5_000_000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	smv := g.SMs[0]
	rec := events.NewRecorder(smv.Cfg.Schedulers, events.MaskAll)
	smv.AttachRecorder(rec)
	st, err := smv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles == 0 || rec.Len() == 0 {
		t.Fatal("empty traced run")
	}
	return rec, st, smv
}

func metric(t *testing.T, smv *sim.SM, name string) uint64 {
	t.Helper()
	v, ok := smv.Metrics.Value(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return v
}

// TestSchedEventsReconcileAcrossSchemes proves, for every scheme, the
// analyzer's core invariant against independently-maintained counters:
// issue/stall events tile Cycles x Schedulers exactly and agree with the
// per-group issue_cycles/stall_cycles metrics the scheduler loop bumps.
func TestSchedEventsReconcileAcrossSchemes(t *testing.T) {
	for _, scheme := range []experiments.Scheme{
		experiments.SchemeBaseline,
		experiments.SchemeBaseline2L,
		experiments.SchemeRFV,
		experiments.SchemeRFH,
		experiments.SchemeRegLess,
		experiments.SchemeRegLessNC,
	} {
		t.Run(string(scheme), func(t *testing.T) {
			rec, st, smv := tracedRun(t, scheme)
			schedulers := rec.NumShards()

			var mIssued, mStalled uint64
			for g := 0; g < schedulers; g++ {
				mIssued += metric(t, smv, fmt.Sprintf("sim/sched/g%d/issue_cycles", g))
				mStalled += metric(t, smv, fmt.Sprintf("sim/sched/g%d/stall_cycles", g))
			}
			if got := rec.Count(events.KindIssue); got != mIssued {
				t.Errorf("issue events %d != issue_cycles metric %d", got, mIssued)
			}
			if got := rec.Count(events.KindStall); got != mStalled {
				t.Errorf("stall events %d != stall_cycles metric %d", got, mStalled)
			}

			rep := events.Analyze(rec, st.Cycles, schedulers)
			if !rep.TilesExactly() {
				var total uint64
				for _, s := range rep.Stalls {
					total += s
				}
				t.Errorf("stall breakdown does not tile: issued %d + stalls %d != %d slots",
					rep.Issued, total, rep.IssueSlots)
			}
			if rep.Issued != mIssued {
				t.Errorf("report issued %d != metric %d", rep.Issued, mIssued)
			}
		})
	}
}

// TestNonRegLessSchemesEmitNoStagingEvents: schemes without a capacity
// manager must produce scheduler events only — no phantom RegLess spans.
func TestNonRegLessSchemesEmitNoStagingEvents(t *testing.T) {
	for _, scheme := range []experiments.Scheme{
		experiments.SchemeBaseline,
		experiments.SchemeRFV,
		experiments.SchemeRFH,
	} {
		t.Run(string(scheme), func(t *testing.T) {
			rec, _, _ := tracedRun(t, scheme)
			for _, k := range []events.Kind{
				events.KindWarpState, events.KindPreloadIssue, events.KindPreloadFill,
				events.KindOSUAlloc, events.KindOSUActivate, events.KindOSUDemote,
				events.KindOSUEvict, events.KindOSUErase, events.KindCompress,
			} {
				if n := rec.Count(k); n != 0 {
					t.Errorf("%s emitted %d %v events", scheme, n, k)
				}
			}
			if rec.Count(events.KindExit) == 0 {
				t.Error("no exit events: timelines cannot mark finished warps")
			}
		})
	}
}

// TestRegLessEventsReconcileWithFig17 checks the preload-span events
// against the provider's Figure 17 source counters, the capacity stall
// attribution against the provider's own stall count, and the staging
// lifecycle's internal consistency.
func TestRegLessEventsReconcileWithFig17(t *testing.T) {
	rec, st, smv := tracedRun(t, experiments.SchemeRegLess)
	rep := events.Analyze(rec, st.Cycles, rec.NumShards())

	for src, name := range map[events.PreloadSrc]string{
		events.SrcOSU:        "provider/preload_from_osu",
		events.SrcCompressor: "provider/preload_from_compressor",
		events.SrcL1:         "provider/preload_from_l1",
		events.SrcL2DRAM:     "provider/preload_from_l2dram",
	} {
		if got, want := rep.FillsBySrc[src], metric(t, smv, name); got != want {
			t.Errorf("fills from %v = %d, metric %s = %d", src, got, name, want)
		}
	}
	if issued, filled := rec.Count(events.KindPreloadIssue), rec.Count(events.KindPreloadFill); issued != filled {
		t.Errorf("preload spans leak: %d issued, %d filled", issued, filled)
	}
	if rep.Preloads == 0 || rep.RegionInstances == 0 {
		t.Fatalf("regless run staged nothing: %+v", rep)
	}

	// Each capacity-attributed slot required at least one provider
	// rejection that cycle, so the attribution is bounded by the
	// provider-reject count.
	if capStalls, rejects := rep.Stalls[events.StallCapacity], st.IssueStalls; capStalls > rejects {
		t.Errorf("capacity stalls %d exceed provider rejects %d", capStalls, rejects)
	}

	// Every capacity stall lands in some region's tally.
	var attributed uint64
	for _, reg := range rep.TopRegions {
		attributed += reg.StallCycles
	}
	if attributed != rep.Stalls[events.StallCapacity] {
		t.Errorf("region attribution %d != capacity stalls %d", attributed, rep.Stalls[events.StallCapacity])
	}

	// OSU line lifecycle: every allocation is eventually erased or still
	// resident at exit; erases+evicts cannot exceed allocs+activations.
	allocs := rec.Count(events.KindOSUAlloc)
	erases := rec.Count(events.KindOSUErase)
	if allocs == 0 || erases == 0 {
		t.Errorf("OSU lifecycle missing: %d allocs, %d erases", allocs, erases)
	}
	if erases > allocs {
		t.Errorf("more erases (%d) than allocations (%d)", erases, allocs)
	}
}

// TestChipPerfettoSpansSitOnNamedTracks exports a four-SM run and holds
// every span to a track a thread_name record names. Events carry SM-local
// warp IDs while the warp and preload tracks are named by global ID, so
// an exporter that files spans under the ID as recorded leaves the named
// tracks of every SM but the first empty, with the spans on anonymous
// rows (it did). Every SM's warp-state process must also show spans on
// tracks of its own warps.
func TestChipPerfettoSpansSitOnNamedTracks(t *testing.T) {
	const sms, warps = 4, 8
	inst, err := experiments.SimulateInstrumented(context.Background(), "nw", experiments.SchemeRegLess, sms,
		experiments.SimSetup{Capacity: experiments.DefaultCapacity, Warps: warps, MaxCycles: 5_000_000}, events.MaskAll)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]events.TraceMeta, len(inst.Recs))
	for i := range inst.Recs {
		metas[i] = events.TraceMeta{Bench: "nw", Scheme: "regless", Warps: inst.Warps[i],
			Schedulers: inst.Schedulers[i], Cycles: inst.Cycles[i], SM: i, WarpIDBase: inst.FirstWarp[i]}
	}
	var buf bytes.Buffer
	if err := events.WriteChipPerfetto(&buf, inst.Recs, metas); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type track struct{ pid, tid int }
	named := map[track]string{}
	warpPids := map[int]int{} // pid of "SM<i> warp states" -> i
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			continue
		}
		name, _ := ev.Args["name"].(string)
		switch ev.Name {
		case "thread_name":
			named[track{ev.Pid, ev.Tid}] = name
		case "process_name":
			var sm int
			if _, err := fmt.Sscanf(name, "SM%d warp states", &sm); err == nil {
				warpPids[ev.Pid] = sm
			}
		}
	}
	if len(warpPids) != sms {
		t.Fatalf("%d warp-state processes, want %d", len(warpPids), sms)
	}
	spansOn := map[int]int{} // SM -> warp-state spans
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		name, ok := named[track{ev.Pid, ev.Tid}]
		if !ok {
			t.Fatalf("span %q on pid %d tid %d, which no thread_name record names", ev.Name, ev.Pid, ev.Tid)
		}
		if sm, ok := warpPids[ev.Pid]; ok {
			if lo := sm * warps; ev.Tid < lo || ev.Tid >= lo+warps || name != fmt.Sprintf("w%02d", ev.Tid) {
				t.Fatalf("SM %d warp-state span on tid %d (%q), want a warp of %d..%d", sm, ev.Tid, name, lo, lo+warps-1)
			}
			spansOn[sm]++
		}
	}
	for sm := 0; sm < sms; sm++ {
		if spansOn[sm] == 0 {
			t.Errorf("SM %d: no warp-state spans on its named tracks", sm)
		}
	}
}
