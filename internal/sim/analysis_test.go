package sim_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// describeAnalysis writes out everything a consumer can read of a
// kernel's graph and liveness: every exported field of the Graph and
// every per-instruction and per-block set of the Liveness, one line each.
func describeAnalysis(g *cfg.Graph, lv *cfg.Liveness) string {
	var b strings.Builder
	fmt.Fprintf(&b, "succs %v\npreds %v\nrpo %v\nrponum %v\nidom %v\nipdom %v\nback edges %v\nin loop %v\nsoft defs %v\n",
		g.Succs, g.Preds, g.RPO, g.RPONum, g.IDom, g.IPDom, g.BackEdges, g.InLoop, lv.SoftDef)
	for gi := 0; gi < g.NumInsns(); gi++ {
		fmt.Fprintf(&b, "insn %d (%v): live in %v out %v\n", gi, g.PCOf(gi), lv.LiveIn(gi), lv.LiveOut(gi))
	}
	for blk := range g.Succs {
		fmt.Fprintf(&b, "block %d: live in %v\n", blk, lv.BlockLiveIn(blk))
	}
	return b.String()
}

// firstDifference names the first line two descriptions disagree on.
func firstDifference(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range la {
		if i >= len(lb) || la[i] != lb[i] {
			other := "<end>"
			if i < len(lb) {
				other = lb[i]
			}
			return fmt.Sprintf("%q vs %q", la[i], other)
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(la), len(lb))
}

func suiteKernels(t *testing.T) []*isa.Kernel {
	t.Helper()
	var ks []*isa.Kernel
	for _, name := range kernels.Names() {
		k, err := kernels.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, k)
	}
	return ks
}

// TestMemoizedAnalysisEqualsFresh: what cfg.For hands every consumer is,
// field by field, what cfg.New and cfg.ComputeLiveness compute for that
// kernel from scratch — on the 21 suite kernels and on 50 generated ones
// (the differential's seeds: hammocks, counted loops with divergent
// exits, barriers) — and it is the same pair every time it is asked for.
func TestMemoizedAnalysisEqualsFresh(t *testing.T) {
	ks := suiteKernels(t)
	for seed := int64(1); seed <= 50; seed++ {
		k, err := genKernel(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ks = append(ks, k)
	}
	for _, k := range ks {
		g, lv := cfg.For(k)
		if g2, lv2 := cfg.For(k); g2 != g || lv2 != lv {
			t.Fatalf("%s: a second cfg.For returned another analysis", k.Name)
		}
		fresh := cfg.New(k)
		memo, want := describeAnalysis(g, lv), describeAnalysis(fresh, cfg.ComputeLiveness(fresh))
		if memo != want {
			t.Fatalf("%s: memoized analysis differs from a fresh one: %s", k.Name, firstDifference(memo, want))
		}
	}
}

// TestSharedAnalysisIsNeverWritten: every SM, every RFV register file and
// every region compile of a kernel reads the one graph and liveness
// cfg.For built, so nothing may write them. The description of all 21
// kernels' analyses is taken; every table of the paper is assembled on a
// suite that runs eight simulations at a time — the budget matrix's seven
// scheme points and the capacity sweep's other four, on all 21 kernels,
// so the readers also overlap in time, which makes this the test that
// holds the sharing to the race detector (scripts/check.sh runs every
// package under -race) — then a sanitized run with a fault injected, the
// path that inspects the most state; and the description must not have
// moved. The suite runs at 16 warps per SM, not the budget's 64: who
// touches the analyses does not depend on the warp count, and the race
// gate pays for every simulated cycle tenfold.
func TestSharedAnalysisIsNeverWritten(t *testing.T) {
	ks := suiteKernels(t)
	describeAll := func() []string {
		out := make([]string, len(ks))
		for i, k := range ks {
			out[i] = describeAnalysis(cfg.For(k))
		}
		return out
	}
	before := describeAll()

	opts := experiments.Default()
	opts.Warps, opts.Parallelism = 16, 8
	if _, err := experiments.All(experiments.NewSuite(opts)); err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Parse("mem-drop@200; seed=3")
	if err != nil {
		t.Fatal(err)
	}
	su := experiments.SimSetup{Capacity: 128, Warps: 8, MaxCycles: 5_000_000, Watchdog: 20_000, Sanitize: true, Faults: plan}
	// Tolerated or detected, the run has walked the machine either way.
	_, _ = experiments.SimulateKernel(ks[0], experiments.SchemeRegLess, su, nil)

	for i, after := range describeAll() {
		if after != before[i] {
			t.Errorf("%s: the shared analysis changed under its readers: %s", ks[i].Name, firstDifference(before[i], after))
		}
	}
}
