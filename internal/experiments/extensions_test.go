package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// fmtSscan parses a table cell's leading float.
func fmtSscan(s string, f *float64) (int, error) {
	return fmt.Sscanf(s, "%f", f)
}

func extSuite() *Suite {
	s := NewSuite(Options{
		Warps:      16,
		Benchmarks: []string{"bfs", "hotspot", "dwt2d"},
		MaxCycles:  20_000_000,
	})
	return s
}

func TestAblations(t *testing.T) {
	s := extSuite()
	tb, err := runByID(s, "ablation")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(ablationVariants()) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(ablationVariants()))
	}
	// The paper-design row is the normalization point.
	var base float64
	if _, err := fmtSscan(tb.Rows[0][1], &base); err != nil {
		t.Fatal(err)
	}
	if base != 1.0 {
		t.Fatalf("paper design row = %v, want 1.000", base)
	}
	// FIFO stack must reduce staged-preload hits versus LIFO (the
	// paper's §5.1 motivation for the warp stack).
	var lifoHit, fifoHit float64
	fmtSscan(strings.TrimSuffix(tb.Rows[0][2], "%"), &lifoHit)
	for _, row := range tb.Rows {
		if row[0] == "FIFO warp stack" {
			fmtSscan(strings.TrimSuffix(row[2], "%"), &fifoHit)
		}
	}
	if fifoHit >= lifoHit {
		t.Fatalf("FIFO staged hits %.1f%% not below LIFO %.1f%%", fifoHit, lifoHit)
	}
}

func TestGPUScale(t *testing.T) {
	s := extSuite()
	s.Opts.Benchmarks = []string{"bfs"}
	s.Opts.Warps = 8
	tb, err := runByID(s, "gpuscale")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 { // 1 benchmark x 4 SM counts (1/4/8/16)
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// RegLess must stay within a sane factor of baseline at every scale.
	for _, row := range tb.Rows {
		var ratio float64
		if _, err := fmtSscan(row[4], &ratio); err != nil {
			t.Fatal(err)
		}
		if ratio > 1.5 {
			t.Fatalf("%v: chip-level RegLess ratio %v", row, ratio)
		}
	}
	// Strong scaling: the same fixed grid must finish faster on 16 SMs
	// than serialized through 1 (contention cannot eat a 16x width win).
	var one, sixteen float64
	if _, err := fmtSscan(tb.Rows[0][2], &one); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tb.Rows[3][2], &sixteen); err != nil {
		t.Fatal(err)
	}
	if sixteen >= one {
		t.Fatalf("no strong scaling: 1 SM %.0f cycles vs 16 SMs %.0f", one, sixteen)
	}
}

func TestOversubscription(t *testing.T) {
	s := extSuite()
	s.Opts.Warps = 64
	tb, err := runByID(s, "oversub")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	var speedup float64
	if _, err := fmtSscan(tb.Rows[1][4], &speedup); err != nil {
		t.Fatal(err)
	}
	// RegLess runs the same grid in fewer waves; it must win.
	if speedup <= 1.0 {
		t.Fatalf("oversubscription speedup %v — RegLess did not win", speedup)
	}
}

func TestEnergyBreakdown(t *testing.T) {
	s := extSuite()
	tb, err := runByID(s, "breakdown")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(s.Opts.Benchmarks) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Shares must sum to ~100%.
	for _, row := range tb.Rows {
		var sum float64
		for _, cell := range row[1:5] {
			var v float64
			fmtSscan(strings.TrimSuffix(cell, "%"), &v)
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Fatalf("%s: shares sum to %.1f%%", row[0], sum)
		}
	}
}

func TestSensitivity(t *testing.T) {
	s := extSuite()
	tb, err := runByID(s, "sensitivity")
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Under every perturbation the qualitative conclusion must hold:
	// RegLess RF energy well below baseline, GPU energy below baseline,
	// and above the No-RF bound.
	for _, row := range tb.Rows {
		var rf, gpu, bound float64
		fmtSscan(row[1], &rf)
		fmtSscan(row[2], &gpu)
		fmtSscan(row[3], &bound)
		if rf >= 0.6 {
			t.Fatalf("%s: RF ratio %v not well below 1", row[0], rf)
		}
		if gpu >= 1.0 || gpu <= bound {
			t.Fatalf("%s: GPU ratio %v outside (bound %v, 1)", row[0], gpu, bound)
		}
	}
}
