package trace

import (
	"testing"

	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestFastForwardTraceParity: the traced run — timeline buckets, CSV,
// and the stall-attribution report built from the recorded event stream —
// must be identical whether the run fast-forwards frozen spans or steps
// every cycle, for every scheme the CLI exposes.
func TestFastForwardTraceParity(t *testing.T) {
	schemes := []experiments.Scheme{
		experiments.SchemeBaseline,
		experiments.SchemeBaseline2L,
		experiments.SchemeRFV,
		experiments.SchemeRFH,
		experiments.SchemeRegLess,
		experiments.SchemeRegLessNC,
	}
	k, err := kernels.Load("hotspot")
	if err != nil {
		t.Fatal(err)
	}
	var skipped uint64
	for _, scheme := range schemes {
		run := func(noFF bool) (traced, *sim.SM) {
			g, _, err := experiments.Assemble(nil, k, scheme, 1, experiments.SimSetup{
				Capacity:      experiments.DefaultCapacity,
				Warps:         16,
				MaxCycles:     5_000_000,
				NoFastForward: noFF,
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return foldRun(t, g.SMs[0], 50, events.MaskAll), g.SMs[0]
		}
		ff, ffSM := run(false)
		st, _ := run(true)

		if ff.Stats.Cycles != st.Stats.Cycles {
			t.Errorf("%s: cycles %d (ff) vs %d (stepped)", scheme, ff.Stats.Cycles, st.Stats.Cycles)
		}
		if got, want := ff.Render(0), st.Render(0); got != want {
			t.Errorf("%s: timelines differ\nff:\n%s\nstepped:\n%s", scheme, got, want)
		}
		if got, want := ff.CSV(), st.CSV(); got != want {
			t.Errorf("%s: CSV outputs differ", scheme)
		}
		ffRep := events.Analyze(ff.Events, ff.Stats.Cycles, ffSM.Cfg.Schedulers).Render(10)
		stRep := events.Analyze(st.Events, st.Stats.Cycles, ffSM.Cfg.Schedulers).Render(10)
		if ffRep != stRep {
			t.Errorf("%s: stall-attribution reports differ\nff:\n%s\nstepped:\n%s", scheme, ffRep, stRep)
		}
		if st.Stats.FFSkippedCycles != 0 {
			t.Errorf("%s: stepped run skipped %d cycles", scheme, st.Stats.FFSkippedCycles)
		}
		skipped += ff.Stats.FFSkippedCycles
	}
	if skipped == 0 {
		t.Fatal("fast-forward never engaged under the recorder — parity proved nothing")
	}
}
