package sim

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/sanitizer"
)

// passiveProvider is nullProvider plus truthful hot-path hints, so the
// cycle-skip fast-forward engages (an unhinted provider without TickIdle
// keeps the simulator on the stepped path).
type passiveProvider struct{ nullProvider }

func (*passiveProvider) HotHints() HotPathHints {
	return HotPathHints{PassiveTick: true, PassiveWriteback: true}
}

// stuckPassiveProvider refuses every issue but has a passive tick: a
// livelock the fast-forward is allowed to skip across — straight into
// the watchdog window, never past it.
type stuckPassiveProvider struct{ stuckProvider }

func (*stuckPassiveProvider) HotHints() HotPathHints {
	return HotPathHints{PassiveTick: true, PassiveWriteback: true}
}

// TestFastForwardRunParity: a fast-forwarded run of the test kernel must
// finish with identical statistics to a stepped run, and must actually
// have skipped cycles (otherwise this test proves nothing).
func TestFastForwardRunParity(t *testing.T) {
	k := smallKernel(t)
	run := func(noFF bool) (*Stats, *SM) {
		cfgv := testConfig()
		cfgv.NoFastForward = noFF
		sm, err := New(cfgv, k, &passiveProvider{}, exec.NewMemory(nil))
		if err != nil {
			t.Fatal(err)
		}
		st, err := sm.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st, sm
	}
	ff, _ := run(false)
	st, _ := run(true)
	if ff.Cycles != st.Cycles || ff.DynInsns != st.DynInsns || ff.IssueStalls != st.IssueStalls {
		t.Fatalf("fast-forward diverged: cycles %d/%d insns %d/%d stalls %d/%d",
			ff.Cycles, st.Cycles, ff.DynInsns, st.DynInsns, ff.IssueStalls, st.IssueStalls)
	}
	if ff.WorkingSetKB != st.WorkingSetKB || len(ff.BackingSeries) != len(st.BackingSeries) {
		t.Fatalf("window series diverged: %v/%v windows %d/%d",
			ff.WorkingSetKB, st.WorkingSetKB, len(ff.BackingSeries), len(st.BackingSeries))
	}
	if ff.FFJumps == 0 || ff.FFSkippedCycles == 0 {
		t.Fatalf("fast-forward never engaged (jumps %d, skipped %d)", ff.FFJumps, ff.FFSkippedCycles)
	}
	if st.FFJumps != 0 || st.FFSkippedCycles != 0 {
		t.Fatalf("NoFastForward run still skipped (jumps %d, skipped %d)", st.FFJumps, st.FFSkippedCycles)
	}
}

// TestFastForwardWatchdogParity: on a livelocked machine the fast-forward
// must jump to — and not past — the watchdog window, producing the exact
// diagnostic a stepped run produces, in one jump instead of half a
// million steps.
func TestFastForwardWatchdogParity(t *testing.T) {
	k := smallKernel(t)
	run := func(noFF bool) (*sanitizer.Diagnostic, *SM) {
		cfgv := testConfig()
		cfgv.WatchdogCycles = 500
		cfgv.NoFastForward = noFF
		sm, err := New(cfgv, k, &stuckPassiveProvider{}, exec.NewMemory(nil))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sm.Run()
		return asDiagnostic(t, err), sm
	}
	ffD, ffSM := run(false)
	stD, _ := run(true)
	if ffD.Component != "sim/watchdog" || stD.Component != "sim/watchdog" {
		t.Fatalf("components: ff %q, stepped %q", ffD.Component, stD.Component)
	}
	if ffD.Cycle != stD.Cycle {
		t.Fatalf("watchdog tripped at cycle %d fast-forwarded vs %d stepped", ffD.Cycle, stD.Cycle)
	}
	if ffD.Violation != stD.Violation {
		t.Fatalf("violations differ:\nff:      %s\nstepped: %s", ffD.Violation, stD.Violation)
	}
	if ffSM.Stats.FFJumps == 0 {
		t.Fatal("fast-forward never engaged on the livelocked machine")
	}
}

// TestFastForwardWatchdogQuietOnHealthyRun: skipping long memory stalls
// must not eat into the watchdog budget — a window that a stepped run
// survives is survived fast-forwarded too.
func TestFastForwardWatchdogQuietOnHealthyRun(t *testing.T) {
	cfgv := testConfig()
	cfgv.WatchdogCycles = 10_000
	sm, err := New(cfgv, smallKernel(t), &passiveProvider{}, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sm.Run()
	if err != nil {
		t.Fatalf("healthy fast-forwarded run tripped: %v", err)
	}
	if st.FFJumps == 0 {
		t.Fatal("fast-forward never engaged; watchdog interaction untested")
	}
}

// TestFastForwardSanitizerAtSkipBoundaries: with a sanitizer attached,
// every stepped cycle is checked and every fast-forward jump lands on a
// checked cycle (the skipped interior is provably frozen, so the
// boundary check subsumes the per-cycle checks it replaces). The check
// ledger must account for every cycle of the run.
func TestFastForwardSanitizerAtSkipBoundaries(t *testing.T) {
	sm, err := New(testConfig(), smallKernel(t), &passiveProvider{}, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	san := sanitizer.New()
	var checked []uint64
	san.Register("test/ledger", func() error {
		checked = append(checked, sm.Cycle())
		return nil
	})
	sm.AttachSanitizer(san)
	st, err := sm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.FFJumps == 0 {
		t.Fatal("fast-forward never engaged; boundary checking untested")
	}
	stepped := st.Cycles - st.FFSkippedCycles
	if want := stepped + st.FFJumps; uint64(len(checked)) != want {
		t.Fatalf("sanitizer ran %d times, want %d (%d stepped cycles + %d skip boundaries)",
			len(checked), want, stepped, st.FFJumps)
	}
	var gaps, unchecked uint64
	for i := 1; i < len(checked); i++ {
		d := checked[i] - checked[i-1]
		if d == 0 {
			t.Fatalf("cycle %d checked twice", checked[i])
		}
		if d > 1 {
			gaps++
			unchecked += d - 1
		}
	}
	// A 1-cycle jump leaves no gap (its only skipped cycle is the checked
	// boundary), so gaps is bounded by — not equal to — the jump count.
	if gaps == 0 || gaps > st.FFJumps {
		t.Fatalf("%d check gaps for %d jumps", gaps, st.FFJumps)
	}
	if unchecked != st.FFSkippedCycles-st.FFJumps {
		t.Fatalf("%d cycles escaped checking, want %d (skipped minus boundary re-checks)",
			unchecked, st.FFSkippedCycles-st.FFJumps)
	}
}
