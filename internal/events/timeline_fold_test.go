package events_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/gen/bare"
	"repro/internal/kernels"
	"repro/internal/sim"
)

const foldBench, foldWarps, foldBucket = "hotspot", 16, 50

func instrumented(t *testing.T, scheme experiments.Scheme, sms int) *experiments.Instrumented {
	t.Helper()
	inst, err := experiments.SimulateInstrumented(context.Background(), foldBench, scheme, sms,
		experiments.SimSetup{Capacity: experiments.DefaultCapacity, Warps: foldWarps, MaxCycles: 5_000_000},
		events.MaskTimeline)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestFoldProperties holds the fold, on every scheme, to what the second
// cycle loop it replaced got by construction: every warp is in exactly
// one class every cycle, every issued instruction lands in exactly one
// bucket, and the timeline of a run does not depend on who built the
// machine — a chip of one out of Assemble and an arena folds to what a
// bare sim.New SM does.
func TestFoldProperties(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Warps, cfg.MaxCycles = foldWarps, 5_000_000
	for _, scheme := range experiments.Schemes() {
		smv, err := bare.SM(string(scheme), 512, kernels.MustLoad(foldBench), cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := foldRun(t, smv, foldBucket, events.MaskTimeline)

		hists, insns := events.Histograms(ref.Events, ref.Stats.Cycles, foldWarps, foldBucket)
		var issued uint64
		for k, h := range hists {
			want := min(uint64(foldBucket), ref.Stats.Cycles-uint64(k*foldBucket))
			for w := range h {
				var sum uint64
				for _, n := range h[w] {
					sum += uint64(n)
				}
				if sum != want {
					t.Fatalf("%s: bucket %d warp %d accounts for %d cycles of %d", scheme, k, w, sum, want)
				}
			}
			issued += insns[k]
		}
		if issued != ref.Stats.DynInsns || issued == 0 {
			t.Errorf("%s: buckets hold %d instructions, the run issued %d", scheme, issued, ref.Stats.DynInsns)
		}
		var sampled uint64
		for _, s := range ref.Samples {
			sampled += s.Insns
		}
		if sampled != ref.Stats.DynInsns {
			t.Errorf("%s: samples hold %d instructions, the run issued %d", scheme, sampled, ref.Stats.DynInsns)
		}

		inst := instrumented(t, scheme, 1)
		chip := events.FoldTimeline(inst.Recs[0], inst.Cycles[0], inst.Warps[0], inst.FirstWarp[0], foldBucket)
		if !reflect.DeepEqual(chip, ref.Timeline) {
			t.Errorf("%s: chip of one folds differently from the bare SM:\n%s\n%s", scheme, chip.Render(0), ref.Render(0))
		}
	}
}

// TestFoldPerSMOnChip: on a chip each SM's recorder folds to that SM's
// warps, labelled with their global IDs, and the per-SM instruction
// totals add up to the chip's.
func TestFoldPerSMOnChip(t *testing.T) {
	const sms = 4
	inst := instrumented(t, experiments.SchemeRegLess, sms)
	if len(inst.Recs) != sms {
		t.Fatalf("%d recorders for %d SMs", len(inst.Recs), sms)
	}
	var insns uint64
	for i, rec := range inst.Recs {
		if inst.Warps[i] != foldWarps || inst.FirstWarp[i] != i*foldWarps {
			t.Fatalf("SM %d: %d warps from %d, want %d from %d", i, inst.Warps[i], inst.FirstWarp[i], foldWarps, i*foldWarps)
		}
		tl := events.FoldTimeline(rec, inst.Cycles[i], inst.Warps[i], inst.FirstWarp[i], foldBucket)
		if want := (inst.Cycles[i] + foldBucket - 1) / foldBucket; uint64(len(tl.Samples)) != want {
			t.Errorf("SM %d: %d buckets over %d cycles, want %d", i, len(tl.Samples), inst.Cycles[i], want)
		}
		var smInsns uint64
		for _, s := range tl.Samples {
			if len(s.Warp) != foldWarps {
				t.Fatalf("SM %d: a sample has %d warp rows, want %d", i, len(s.Warp), foldWarps)
			}
			smInsns += s.Insns
		}
		if smInsns != inst.Run.Chip.PerSM[i].DynInsns {
			t.Errorf("SM %d: timeline holds %d instructions, the SM issued %d", i, smInsns, inst.Run.Chip.PerSM[i].DynInsns)
		}
		insns += smInsns
		first, last := i*foldWarps, (i+1)*foldWarps-1
		rows := strings.Split(tl.Render(0), "\n")
		if !strings.HasPrefix(rows[1], fmt.Sprintf("w%02d |", first)) || !strings.HasPrefix(rows[foldWarps], fmt.Sprintf("w%02d |", last)) {
			t.Errorf("SM %d: timeline rows are not warps %d..%d:\n%s", i, first, last, tl.Render(0))
		}
		head := strings.Split(strings.SplitN(tl.CSV(), "\n", 2)[0], ",")
		if head[2] != fmt.Sprintf("w%d", first) || head[len(head)-1] != fmt.Sprintf("w%d", last) {
			t.Errorf("SM %d: CSV columns are not warps %d..%d: %v", i, first, last, head)
		}
	}
	if insns != inst.Run.Stats.DynInsns {
		t.Errorf("per-SM timelines hold %d instructions, the chip issued %d", insns, inst.Run.Stats.DynInsns)
	}
}
