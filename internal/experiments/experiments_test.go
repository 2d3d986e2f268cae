package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
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

func TestFig2WorkingSetOrdering(t *testing.T) {
	s := quickSuite()
	tb, err := runByID(s, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(s.Opts.Benchmarks)+1 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The mean 2-level working set must not exceed GTO's (the paper's
	// motivation for coordinating scheduling with allocation).
	mean := tb.Rows[len(tb.Rows)-1]
	var g, two float64
	if _, err := sscan(mean[1], &g); err != nil {
		t.Fatal(err)
	}
	if _, err := sscan(mean[2], &two); err != nil {
		t.Fatal(err)
	}
	if two > g*1.05 {
		t.Fatalf("2-level working set %v above GTO %v", two, g)
	}
}

func sscan(s string, f *float64) (int, error) {
	return fmtSscan(s, f)
}

func TestFig3Ordering(t *testing.T) {
	s := quickSuite()
	tb, err := runByID(s, "fig3")
	if err != nil {
		t.Fatal(err)
	}
	// Average row: baseline >> RegLess (Figure 3's point).
	last := tb.Rows[len(tb.Rows)-1]
	var base, rgl float64
	if _, err := fmtSscan(last[1], &base); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(last[3], &rgl); err != nil {
		t.Fatal(err)
	}
	if base <= rgl*2 {
		t.Fatalf("baseline backing accesses (%v) not well above RegLess (%v)", base, rgl)
	}
}

func TestFig13SweepShape(t *testing.T) {
	tb, err := runByID(quickSuite(), "fig13")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(fig13Capacities) {
		t.Fatal("missing points")
	}
	// point reads one capacity's row: geomean run time and GPU energy.
	point := func(capacity string) (runTime, gpuEnergy float64) {
		for _, row := range tb.Rows {
			if row[0] == capacity {
				fmtSscan(row[1], &runTime)
				fmtSscan(row[2], &gpuEnergy)
			}
		}
		return
	}
	// Larger capacity must not be slower and must cost more energy than
	// the smaller one saves... at minimum: both run, energy < 1.05, and
	// 512 run time within a few percent of baseline (paper's design
	// goal).
	rt128, e128 := point("128")
	rt512, e512 := point("512")
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
	s := quickSuite()
	tb, err := runByID(s, "fig14")
	if err != nil {
		t.Fatal(err)
	}
	last := tb.Rows[len(tb.Rows)-1]
	var rfh, rfv, rgl float64
	fmtSscan(last[1], &rfh)
	fmtSscan(last[2], &rfv)
	fmtSscan(last[3], &rgl)
	// Paper ordering: RegLess < RFH < RFV < 1.
	if !(rgl < rfh && rgl < rfv && rfh < 1 && rfv < 1) {
		t.Fatalf("RF energy ordering wrong: rfh=%v rfv=%v regless=%v", rfh, rfv, rgl)
	}
	if rgl > 0.45 {
		t.Fatalf("RegLess RF energy %.3f, want ~0.25", rgl)
	}
}

func TestFig15Bound(t *testing.T) {
	s := quickSuite()
	tb, err := runByID(s, "fig15")
	if err != nil {
		t.Fatal(err)
	}
	last := tb.Rows[len(tb.Rows)-1]
	var norf, rgl float64
	fmtSscan(last[1], &norf)
	fmtSscan(last[4], &rgl)
	if !(norf < rgl && rgl < 1.0) {
		t.Fatalf("bound violated: norf=%v regless=%v", norf, rgl)
	}
}

func TestFig17SourcesSane(t *testing.T) {
	s := quickSuite()
	tb, err := runByID(s, "fig17")
	if err != nil {
		t.Fatal(err)
	}
	// Mean row: OSU percentage dominates.
	last := tb.Rows[len(tb.Rows)-1]
	var osuPct float64
	fmtSscan(strings.TrimSuffix(last[1], "%"), &osuPct)
	if osuPct < 50 {
		t.Fatalf("OSU serves only %.1f%% of preloads", osuPct)
	}
}

func TestFig18WithinBudget(t *testing.T) {
	s := quickSuite()
	tb, err := runByID(s, "fig18")
	if err != nil {
		t.Fatal(err)
	}
	last := tb.Rows[len(tb.Rows)-1]
	var mean float64
	fmtSscan(last[4], &mean)
	if mean > 0.25 {
		t.Fatalf("mean L1 traffic %.3f req/cycle — far above the paper's ~0.02", mean)
	}
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
