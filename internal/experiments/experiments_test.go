package experiments

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/gen/machine"
)

func quickSuite() *Suite { return NewSuite(Quick()) }

// runByID makes one experiment's table the way the CLI does: the planner
// warms and fetches what it declares, then its runner assembles.
func runByID(s *Suite, id string) (*Table, error) {
	fn, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	return fn(s)
}

func TestRunCacheMemoizes(t *testing.T) {
	s := quickSuite()
	a, err := s.Get("bfs", SchemeBaseline, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Get("bfs", SchemeBaseline, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache returned distinct runs")
	}
	if a.Stats.Cycles == 0 {
		t.Fatal("empty run")
	}
}

// TestGetCtxPreCanceledSimulatesOnce: a suite run's result is every later
// caller's, so it is never canceled — a GetCtx handed a context that is
// already done simulates the key once, to completion (cancelOpts' run
// polls its context ~100 times), and a later Get shares that Run.
func TestGetCtxPreCanceledSimulatesOnce(t *testing.T) {
	s := NewSuite(cancelOpts())
	simulations := 0
	s.OnSimulate = func(string, Scheme, int) { simulations++ }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := s.GetCtx(ctx, "nw", SchemeRegLess, 512)
	if err != nil || a == nil {
		t.Fatalf("GetCtx with a canceled ctx = %v, %v; want the run", a, err)
	}
	b, err := s.Get("nw", SchemeRegLess, 512)
	if err != nil || b != a {
		t.Fatalf("Get after it = %p, %v; want the same *Run %p", b, err, a)
	}
	if simulations != 1 {
		t.Fatalf("%d simulations, want 1", simulations)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "figX", Title: "demo", Header: []string{"A", "B"}}
	tb.AddRow("x", "1")
	tb.Note("hello %d", 7)
	text := tb.Render()
	if !strings.Contains(text, "FIGX") || !strings.Contains(text, "hello 7") {
		t.Fatalf("render output:\n%s", text)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| A | B |") {
		t.Fatalf("markdown output:\n%s", md)
	}
}

// quickInputs is what experiment id's runner sees at Quick scale, warmed
// as ByID warms it: the figure tests below check the values a table is
// computed from, not its rendered cells.
func quickInputs(t *testing.T, id string) *inputs {
	t.Helper()
	s := quickSuite()
	for _, e := range Experiments() {
		if e.ID != id {
			continue
		}
		if err := s.warm(e); err != nil {
			t.Fatal(err)
		}
		in, err := s.gather(e)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	t.Fatalf("unknown experiment %q", id)
	return nil
}

func TestFig2WorkingSetOrdering(t *testing.T) {
	in := quickInputs(t, "fig2")
	tb, err := Fig2(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(in.Benchmarks)+1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The mean 2-level working set must not exceed GTO's (the paper's
	// motivation for coordinating scheduling with allocation).
	g, two := mean(in.column(0, workingSet)), mean(in.column(1, workingSet))
	if two > g*1.05 {
		t.Fatalf("2-level working set %v above GTO %v", two, g)
	}
}

func TestFig3Ordering(t *testing.T) {
	in := quickInputs(t, "fig3")
	// Baseline >> RegLess over the whole run (Figure 3's point).
	base, rgl := backingPerWindow(in.Runs[0][0]), backingPerWindow(in.Runs[0][2])
	if base <= rgl*2 {
		t.Fatalf("baseline backing accesses (%v) not well above RegLess (%v)", base, rgl)
	}
}

func TestFig13SweepShape(t *testing.T) {
	in := quickInputs(t, "fig13")
	tb, err := Fig13(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(fig13Capacities) {
		t.Fatal("missing points")
	}
	// point is one capacity's geomean run time and GPU energy.
	point := func(capacity int) (runTime, gpuEnergy float64) {
		j := 1 + slices.Index(fig13Capacities, capacity)
		return GeoMean(in.ratios(j, cycles)), GeoMean(in.ratios(j, in.gpuEnergy))
	}
	// 512's run time within a few percent of the baseline (the paper's
	// design goal), 128 no faster, and both below the baseline's energy.
	rt128, e128 := point(128)
	rt512, e512 := point(512)
	if rt512 == 0 || rt512 > 1.10 {
		t.Fatalf("RegLess-512 geomean run time %.3f, want ~1.0", rt512)
	}
	if rt128 < rt512*0.95 {
		t.Fatalf("128-capacity faster than 512: %.3f vs %.3f", rt128, rt512)
	}
	if e128 >= 1.0 || e512 >= 1.0 {
		t.Fatalf("GPU energy not below baseline: %.3f at 128, %.3f at 512", e128, e512)
	}
}

func TestFig14Ordering(t *testing.T) {
	in := quickInputs(t, "fig14")
	rf := func(j int) float64 { return GeoMean(in.ratios(j, in.rfEnergy)) }
	rfh, rfv, rgl := rf(1), rf(2), rf(3)
	// Paper ordering: RegLess < RFH < RFV < 1.
	if !(rgl < rfh && rgl < rfv && rfh < 1 && rfv < 1) {
		t.Fatalf("RF energy ordering wrong: rfh=%v rfv=%v regless=%v", rfh, rfv, rgl)
	}
	if rgl > 0.45 {
		t.Fatalf("RegLess RF energy %.3f, want ~0.25", rgl)
	}
}

func TestFig15Bound(t *testing.T) {
	in := quickInputs(t, "fig15")
	norf, rgl := GeoMean(in.column(0, in.noRFBound)), GeoMean(in.ratios(3, in.gpuEnergy))
	if !(norf < rgl && rgl < 1.0) {
		t.Fatalf("bound violated: norf=%v regless=%v", norf, rgl)
	}
}

func TestFig17SourcesSane(t *testing.T) {
	in := quickInputs(t, "fig17")
	// Over all benchmarks: the OSU serves most preloads.
	p := in.preloads(0)
	if p.Preloads() == 0 {
		t.Fatal("no preloads")
	}
	if osuPct := 100 * float64(p.PreloadFromOSU) / float64(p.Preloads()); osuPct < 50 {
		t.Fatalf("OSU serves only %.1f%% of preloads", osuPct)
	}
}

func TestFig18WithinBudget(t *testing.T) {
	in := quickInputs(t, "fig18")
	if l1 := mean(in.column(0, l1Total)); l1 > 0.25 {
		t.Fatalf("mean L1 traffic %.3f req/cycle — far above the paper's ~0.02", l1)
	}
}

// TestClaimsHold runs the claims table at full scale, the configuration
// EXPERIMENTS.md reports: every paper claim must hold and every recorded
// deviation must still depart in its recorded direction. Each figure's
// Quick-scale values are pinned byte for byte by TestSuiteGolden.
func TestClaimsHold(t *testing.T) {
	tb, err := runByID(NewSuite(Default()), "claims")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] == "FAILS" {
			t.Errorf("%s: %s: measured %s, check %s: FAILS", row[0], row[1], row[3], row[4])
		}
	}
}

// TestClaimsOverGeneratedKernels asks whether the paper's claims are
// RegLess's or the 21 tuned kernels': it makes the claims table of each
// of internal/gen's seeds 1-50 alone, at Default() scale, and counts per
// row the seeds it holds on — any verdict but FAILS, as TestClaimsHold
// reads it. The counts are pinned in testdata/claims_generated.txt; a
// change that moves results re-blesses them with -update, as it does the
// suite golden.
func TestClaimsOverGeneratedKernels(t *testing.T) {
	const seeds = 50
	exps, opts := Experiments(), Default()
	claims := exps[slices.IndexFunc(exps, func(e Experiment) bool { return e.ID == "claims" })]
	tables := make([]*Table, seeds)
	err := opts.forEach(seeds, func(i int) (err error) {
		k := machine.Generated()[i]
		in := &inputs{Opts: opts, Params: energy.DefaultParams(), Benchmarks: []string{k.Name},
			Runs: [][]*Run{make([]*Run, len(claims.Reads))}}
		for j, c := range claims.Reads {
			if in.Runs[0][j], err = SimulateKernel(k, c.scheme, opts.Setup(c.capacity), nil); err != nil {
				return err
			}
		}
		tables[i], err = claims.Run(in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# Of internal/gen's seeds 1-%d, each alone at %d warps, how many each claims row holds on.\n"+
		"# Rewrite: go test ./internal/experiments -run ClaimsOverGeneratedKernels -update\n", seeds, opts.Warps)
	for r, row := range tables[0].Rows {
		held := 0
		for _, tb := range tables {
			if tb.Rows[r][len(row)-1] != "FAILS" {
				held++
			}
		}
		fmt.Fprintf(&buf, "%2d/%d  %s  %s: %s\n", held, seeds, row[0], row[1], row[4])
	}
	matchGolden(t, "claims_generated.txt", buf.Bytes())
}

func TestAllExperimentsRun(t *testing.T) {
	s := quickSuite()
	tables, err := All(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 14 {
		t.Fatalf("got %d tables, want 14", len(tables))
	}
	seen := map[string]bool{}
	for _, tb := range tables {
		if tb.ID == "" || len(tb.Rows) == 0 {
			t.Fatalf("degenerate table %+v", tb)
		}
		if seen[tb.ID] {
			t.Fatalf("duplicate id %s", tb.ID)
		}
		seen[tb.ID] = true
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig16"); !ok {
		t.Fatal("fig16 missing")
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("fig99 should not exist")
	}
}
