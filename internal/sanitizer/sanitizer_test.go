package sanitizer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestNilSanitizerIsNoOp(t *testing.T) {
	var s *Sanitizer
	s.Register("x", func() error { return errors.New("boom") })
	if s.Enabled() {
		t.Error("nil sanitizer enabled")
	}
	if d := s.Check(0); d != nil {
		t.Errorf("nil sanitizer diagnosed: %v", d)
	}
}

func TestCheckFirstViolationWins(t *testing.T) {
	s := New()
	if s.Enabled() {
		t.Error("empty sanitizer enabled")
	}
	calls := 0
	s.Register("ok", func() error { calls++; return nil })
	s.Register("first", func() error { return errors.New("broke A") })
	s.Register("second", func() error { return errors.New("broke B") })
	if !s.Enabled() {
		t.Error("registered sanitizer not enabled")
	}
	d := s.Check(42)
	if d == nil {
		t.Fatal("violation not diagnosed")
	}
	if d.Component != "first" || d.Violation != "broke A" || d.Cycle != 42 || d.Warp != -1 {
		t.Errorf("diagnostic = %+v", d)
	}
	if calls != 1 {
		t.Errorf("passing check ran %d times", calls)
	}
}

// TestChecksRunEveryCycle: a violation surfaces at the cycle it is first
// visible, so every Check runs every registered invariant.
func TestChecksRunEveryCycle(t *testing.T) {
	s := New()
	ran := 0
	s.Register("counter", func() error { ran++; return nil })
	for c := uint64(0); c < 1000; c++ {
		s.Check(c)
	}
	if ran != 1000 {
		t.Errorf("ran %d checks over 1000 cycles, want 1000", ran)
	}
}

func TestTransitionCheckerLegalPath(t *testing.T) {
	tc := NewTransitionChecker(2)
	// Warp 0 cycles through the full lifecycle twice, then exits.
	for i := 0; i < 2; i++ {
		for _, to := range []uint8{PhasePreloading, PhaseActive, PhaseDraining, PhaseInactive} {
			tc.Observe(0, to)
		}
	}
	tc.Observe(0, PhaseActive) // inactive -> active (no pending inputs)
	tc.Observe(0, PhaseFinished)
	// Warp 1 exits straight from preloading.
	tc.Observe(1, PhasePreloading)
	tc.Observe(1, PhaseFinished)
	if err := tc.Err(); err != nil {
		t.Fatalf("legal path flagged: %v", err)
	}
}

func TestTransitionCheckerIllegalEdges(t *testing.T) {
	cases := []struct {
		name string
		path []uint8
	}{
		{"inactive->draining", []uint8{PhaseDraining}},
		{"self-transition", []uint8{PhasePreloading, PhasePreloading}},
		{"active->preloading", []uint8{PhaseActive, PhasePreloading}},
		{"finished->active", []uint8{PhaseFinished, PhaseActive}},
		{"draining->active", []uint8{PhaseActive, PhaseDraining, PhaseActive}},
		{"out-of-range", []uint8{numPhases + 3}},
	}
	for _, c := range cases {
		tc := NewTransitionChecker(1)
		for _, to := range c.path {
			tc.Observe(0, to)
		}
		if tc.Err() == nil {
			t.Errorf("%s: illegal path not latched", c.name)
		}
	}
}

func TestTransitionCheckerLatchesFirst(t *testing.T) {
	tc := NewTransitionChecker(1)
	tc.Observe(0, PhaseDraining) // illegal
	first := tc.Err()
	tc.Observe(0, PhaseFinished) // would be fine, must not clear
	if tc.Err() != first {
		t.Error("latched violation changed")
	}
	if !strings.Contains(first.Error(), "inactive -> draining") {
		t.Errorf("violation text: %v", first)
	}
	// Out-of-range warp IDs are ignored, not panics.
	tc2 := NewTransitionChecker(1)
	tc2.Observe(-1, PhaseActive)
	tc2.Observe(5, PhaseActive)
	if tc2.Err() != nil {
		t.Errorf("out-of-range warp latched: %v", tc2.Err())
	}
}

func TestDiagnosticErrorAndRender(t *testing.T) {
	d := &Diagnostic{
		Component: "osu/s2",
		Violation: "line w3 r5 in bank 1, want bank 0",
		Cycle:     1234,
		Warp:      3,
		Kernel:    "nw",
		Provider:  "regless",
		FaultsApplied: []string{
			"osu-tag: shard 2 line w3 r4 -> r5 at cycle 1200",
		},
		Warps: []WarpDiag{
			{ID: 0, Group: 0, Finished: true},
			{ID: 3, Group: 1, State: "active", Region: 7, PendingWrites: 2, LastIssue: 1230},
		},
		Stalls:  []StallCount{{Reason: "scoreboard", Warps: 3}},
		Metrics: []Metric{{Name: "sim/cycles", Value: 1234}},
		Events:  []EventRecord{{Cycle: 1233, Kind: "issue", Warp: 3, Detail: "group 1"}},
	}
	var err error = d
	if !strings.Contains(err.Error(), "osu/s2 at cycle 1234") {
		t.Errorf("Error() = %q", err.Error())
	}
	r := d.Render()
	for _, want := range []string{
		"component  osu/s2", "violation  line w3", "warp       3",
		"kernel     nw (provider regless)", "fault      osu-tag",
		"scoreboard:3", "w3", "region 7", "pending=2", "issue",
	} {
		if !strings.Contains(r, want) {
			t.Errorf("Render() missing %q:\n%s", want, r)
		}
	}
	if strings.Contains(r, "w0") && strings.Contains(r, "group 0 ") {
		t.Error("finished warp rendered in unfinished list")
	}
}

func TestRenderClipsUnfinishedWarps(t *testing.T) {
	d := &Diagnostic{Component: "sim/watchdog", Violation: "stuck", Warp: -1}
	for i := 0; i < 40; i++ {
		d.Warps = append(d.Warps, WarpDiag{ID: i})
	}
	r := d.Render()
	if !strings.Contains(r, "...") {
		t.Error("40 unfinished warps rendered without clipping")
	}
	if strings.Contains(r, "w20 ") {
		t.Error("warp past the clip limit rendered")
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	d := &Diagnostic{
		Component: "cm/s0/transitions",
		Violation: "warp 4: illegal capacity transition active -> preloading",
		Cycle:     99,
		Warp:      4,
		Metrics:   []Metric{{Name: "a", Value: 1}},
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Diagnostic
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("bundle is not valid JSON: %v\n%s", err, buf.String())
	}
	if back.Component != d.Component || back.Cycle != d.Cycle || back.Warp != d.Warp {
		t.Errorf("round trip lost fields: %+v", back)
	}
}

func TestDiagnosticAsError(t *testing.T) {
	// The CLI unwraps with errors.As through fmt-wrapped chains.
	d := &Diagnostic{Component: "sim/maxcycles", Violation: "exceeded", Cycle: 10, Warp: -1}
	wrapped := fmt.Errorf("suite: bench nw: %w", d)
	var got *Diagnostic
	if !errors.As(wrapped, &got) || got != d {
		t.Error("errors.As failed to unwrap Diagnostic")
	}
}
