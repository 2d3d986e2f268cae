package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/sanitizer"
)

// stuckProvider refuses every issue — an issue mask with no bit set: a
// synthetic livelock (the machine ticks but no warp ever makes forward
// progress).
type stuckProvider struct{ nullStager }

func (*stuckProvider) IssueMask(int) []uint64   { return []uint64{0} }
func (*stuckProvider) CanIssueQuiet(*Warp) bool { return false }

// faultingProvider latches a fault report from inside Tick, modeling a
// layer that detects corruption in a hook with no error return.
type faultingProvider struct {
	nullStager
	sm *SM
}

func (p *faultingProvider) Attach(sm *SM) error { p.sm = sm; return nil }
func (p *faultingProvider) Tick() {
	if p.sm.Cycle() == 50 {
		p.sm.ReportFault("test/unit", "synthetic corruption", 3)
	}
}

func asDiagnostic(t *testing.T, err error) *sanitizer.Diagnostic {
	t.Helper()
	if err == nil {
		t.Fatal("run succeeded, want diagnostic")
	}
	var d *sanitizer.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("error is not a Diagnostic: %v", err)
	}
	return d
}

// TestWatchdogFiresOnLivelock: with no warp ever issuing, the
// forward-progress watchdog must produce a diagnostic shortly after its
// window — orders of magnitude before MaxCycles would abort.
func TestWatchdogFiresOnLivelock(t *testing.T) {
	cfgv := testConfig()
	cfgv.WatchdogCycles = 500
	sm, err := New(cfgv, smallKernel(t), &stuckProvider{}, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sm.Run()
	d := asDiagnostic(t, err)
	if d.Component != "sim/watchdog" {
		t.Errorf("component = %q, want sim/watchdog", d.Component)
	}
	if d.Cycle > 1000 {
		t.Errorf("watchdog tripped at cycle %d, want shortly after the %d-cycle window (MaxCycles %d)",
			d.Cycle, cfgv.WatchdogCycles, cfgv.MaxCycles)
	}
	if !strings.Contains(d.Violation, "no warp issued") {
		t.Errorf("violation = %q", d.Violation)
	}
	if len(d.Warps) != cfgv.Warps {
		t.Errorf("bundle tracks %d warps, want %d", len(d.Warps), cfgv.Warps)
	}
	if len(d.Metrics) == 0 {
		t.Error("bundle has no metrics snapshot")
	}
	if len(d.Stalls) == 0 {
		t.Error("bundle has no stall attribution")
	}
}

// TestWatchdogQuietOnHealthyRun: a tight-but-sufficient window must not
// trip while warps are genuinely progressing.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	cfgv := testConfig()
	cfgv.WatchdogCycles = 10_000
	sm, err := New(cfgv, smallKernel(t), &nullProvider{}, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Run(); err != nil {
		t.Fatalf("healthy run tripped: %v", err)
	}
}

// TestMaxCyclesProducesDiagnostic: the MaxCycles abort is a structured
// bundle naming sim/maxcycles, not a bare error — from the one cycle loop,
// so at any SM count (a chip used to return a bare "exceeded" error that
// -diag-out, serve's Diagnostic report and the breaker never saw).
func TestMaxCyclesProducesDiagnostic(t *testing.T) {
	cfgv := testConfig()
	cfgv.MaxCycles = 10
	cfgv.WatchdogCycles = 0 // isolate the MaxCycles path
	for _, n := range []int{1, 4} {
		sms := make([]*SM, n)
		for i := range sms {
			sm, err := New(cfgv, smallKernel(t), &stuckProvider{}, exec.NewMemory(nil))
			if err != nil {
				t.Fatal(err)
			}
			sms[i] = sm
		}
		var err error
		if n == 1 {
			_, err = sms[0].Run()
		} else {
			var at int
			at, err = RunLockstep(context.Background(), sms, nil)
			if at != 0 {
				t.Errorf("%d SMs: overrun attributed to SM %d, want 0 (first in index order)", n, at)
			}
		}
		d := asDiagnostic(t, err)
		if d.Component != "sim/maxcycles" {
			t.Errorf("%d SMs: component = %q, want sim/maxcycles", n, d.Component)
		}
		if d.Cycle != 10 || !strings.Contains(d.Violation, "exceeded 10 cycles") {
			t.Errorf("%d SMs: cycle %d violation = %q", n, d.Cycle, d.Violation)
		}
		if d.Kernel != "small" || d.Provider == "" {
			t.Errorf("%d SMs: bundle lacks run identity: kernel %q provider %q", n, d.Kernel, d.Provider)
		}
	}
}

// TestReportFaultSurfacesAtEndOfCycle: a hook-latched fault aborts the
// run as a completed diagnostic bundle.
func TestReportFaultSurfacesAtEndOfCycle(t *testing.T) {
	p := &faultingProvider{}
	sm, err := New(testConfig(), smallKernel(t), p, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sm.Run()
	d := asDiagnostic(t, err)
	if d.Component != "test/unit" || d.Warp != 3 {
		t.Errorf("diagnostic = %+v", d)
	}
	if d.Cycle != 50 {
		t.Errorf("fault latched at cycle %d, want 50", d.Cycle)
	}
	// Only the first report wins.
	sm.ReportFault("test/other", "later", 1)
	if sm.fault.Component != "test/unit" {
		t.Error("second ReportFault overwrote the first")
	}
}

// TestSanitizerSweepCatchesScoreboardCorruption: the SM's own registered
// invariant (scoreboard totals) turns state corruption into a diagnostic.
func TestSanitizerSweepCatchesScoreboardCorruption(t *testing.T) {
	sm, err := New(testConfig(), smallKernel(t), &nullProvider{}, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	sm.AttachSanitizer(sanitizer.New())
	if err := sm.checkHealth(); err != nil {
		t.Fatalf("fresh machine unhealthy: %v", err)
	}
	sm.Warps[2].pendingTotal = 7 // desync from the per-register counters
	err = sm.checkHealth()
	d := asDiagnostic(t, err)
	if d.Component != "sim/warps" {
		t.Errorf("component = %q, want sim/warps", d.Component)
	}
	if !strings.Contains(d.Violation, "warp 2") {
		t.Errorf("violation = %q", d.Violation)
	}
}

// TestSanitizedRunMatchesPlainRun: enabling the sanitizer must not
// perturb simulation results, only observe them.
func TestSanitizedRunMatchesPlainRun(t *testing.T) {
	k := smallKernel(t)
	plain, _ := runSim(t, k, testConfig())

	sm, err := New(testConfig(), k, &nullProvider{}, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	sm.AttachSanitizer(sanitizer.New())
	st, err := sm.Run()
	if err != nil {
		t.Fatalf("sanitized run failed: %v", err)
	}
	if st.Cycles != plain.Cycles || st.DynInsns != plain.DynInsns {
		t.Errorf("sanitizer perturbed the run: %d/%d cycles, %d/%d insns",
			st.Cycles, plain.Cycles, st.DynInsns, plain.DynInsns)
	}
}
