package experiments

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/gen/machine"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sanitizer"
)

// matrixOutcome is one fault-injected run's classification.
type matrixOutcome struct {
	diag     *sanitizer.Diagnostic // nil when the run completed
	panicked any                   // recovered value, nil when none
	stores   map[uint32]uint32     // final global stores when completed
}

// assembleChip is Assemble, on the heap, for a suite benchmark by name.
func assembleChip(t *testing.T, bench string, scheme Scheme, sms int, su SimSetup) *gpu.GPU {
	t.Helper()
	g, _, err := Assemble(nil, kernels.MustLoad(bench), scheme, sms, su, nil)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return g
}

// runFaulted executes one fault-injected, sanitized simulation of `bench`
// and classifies the result. Panics are recovered and reported as matrix
// failures rather than crashing the test binary, because the robustness
// contract is precisely "never a raw panic".
func runFaulted(t *testing.T, bench string, scheme Scheme, spec string) (out matrixOutcome) {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q) = %v", spec, err)
	}
	mm := exec.NewMemory(nil)
	defer func() {
		if r := recover(); r != nil {
			out.panicked = r
		}
	}()
	smv := assembleChip(t, bench, scheme, 1, SimSetup{
		Capacity:  DefaultCapacity,
		Warps:     8,
		MaxCycles: 2_000_000,
		Watchdog:  20_000,
		Sanitize:  true,
		Faults:    plan,
		Memory:    mm,
	}).SMs[0]
	if _, err := smv.Run(); err != nil {
		var d *sanitizer.Diagnostic
		if !errors.As(err, &d) {
			t.Fatalf("%s/%s/%s: abnormal exit is not a Diagnostic: %v", bench, scheme, spec, err)
		}
		out.diag = d
		return out
	}
	out.stores = mm.GlobalStores()
	return out
}

// refStores is the functional reference output of a benchmark's grid.
func refStores(t *testing.T, bench string, warps int) map[uint32]uint32 {
	stores, _ := reference(t, machine.Machine{Grid: warps, Ks: []*isa.Kernel{kernels.MustLoad(bench)}})
	return stores[0]
}

// TestFaultMatrixToleratedOrDetected is the robustness contract's proof:
// every fault class, injected into both a baseline and a RegLess
// simulation, either leaves the functional output byte-identical to the
// fault-free reference (tolerated) or aborts with a structured diagnostic
// naming the faulted component (detected) — never a hang (the watchdog
// bounds livelocks far below MaxCycles), never a raw panic.
func TestFaultMatrixToleratedOrDetected(t *testing.T) {
	const bench = "nw"
	ref := refStores(t, bench, 8)
	for _, scheme := range []Scheme{SchemeBaseline, SchemeRegLess} {
		for _, class := range faults.Classes() {
			// Cycle 200 lands mid-run (nw at 8 warps finishes in ~1100
			// cycles), so runtime corruption points have live targets.
			spec := fmt.Sprintf("%s@200; seed=3", class)
			t.Run(fmt.Sprintf("%s/%s", scheme, class), func(t *testing.T) {
				out := runFaulted(t, bench, scheme, spec)
				switch {
				case out.panicked != nil:
					t.Fatalf("raw panic: %v", out.panicked)
				case out.diag != nil:
					d := out.diag
					if d.Component == "" || d.Violation == "" {
						t.Fatalf("diagnostic names no component: %+v", d)
					}
					if d.Component == "sim/maxcycles" {
						t.Fatalf("run hung until MaxCycles; watchdog/sanitizer never fired: %s", d.Error())
					}
					t.Logf("detected by %s: %s", d.Component, d.Violation)
				default:
					if !maps.Equal(out.stores, ref) {
						t.Fatalf("fault silently corrupted output: %d stores vs %d reference",
							len(out.stores), len(ref))
					}
					t.Log("tolerated: output identical to fault-free reference")
				}
			})
		}
	}
}

// TestFaultMatrixDetectionPaths pins the expected detector for the
// classes whose corruption must not be silently absorbed: a dropped
// memory response trips the forward-progress watchdog, a corrupted OSU
// tag trips the OSU partition invariant, and a leaked erase annotation
// trips the drain check at region exit.
func TestFaultMatrixDetectionPaths(t *testing.T) {
	cases := []struct {
		scheme    Scheme
		spec      string
		component string // prefix match
	}{
		// nw's loads cluster at the start of the run; a drop armed from
		// cycle 0 hits a load response some warp depends on (later drops
		// land on end-of-run store acks nobody waits for — tolerated).
		{SchemeBaseline, "mem-drop@0; seed=3", "sim/watchdog"},
		{SchemeRegLess, "mem-drop@0; seed=3", "sim/watchdog"},
		{SchemeRegLess, "osu-tag@200; seed=3", "osu/"},
		// Region 0 is interior (drains mid-run); a leak in the exit
		// region would be absorbed by the warp-exit cleanup instead.
		{SchemeRegLess, "meta-erase:region=0; seed=3", "core/"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s", c.scheme, c.spec), func(t *testing.T) {
			out := runFaulted(t, "nw", c.scheme, c.spec)
			if out.panicked != nil {
				t.Fatalf("raw panic: %v", out.panicked)
			}
			if out.diag == nil {
				t.Fatal("fault was not detected")
			}
			if !strings.HasPrefix(out.diag.Component, c.component) {
				t.Fatalf("detected by %q (%s), want component %q*",
					out.diag.Component, out.diag.Violation, c.component)
			}
			if len(out.diag.FaultsApplied) == 0 {
				t.Error("bundle does not list the applied fault")
			}
			if len(out.diag.Warps) == 0 || len(out.diag.Metrics) == 0 {
				t.Error("bundle missing warp states or metrics snapshot")
			}
		})
	}
}

// TestFaultClassesTolerated pins the classes that must be absorbed
// without any functional effect: a delayed memory response and a flipped
// compressor pattern bit perturb timing only.
func TestFaultClassesTolerated(t *testing.T) {
	ref := refStores(t, "nw", 8)
	cases := []struct {
		scheme Scheme
		spec   string
	}{
		{SchemeBaseline, "mem-delay@200:delay=500; seed=3"},
		{SchemeRegLess, "mem-delay@200:delay=500; seed=3"},
		{SchemeRegLess, "compress-pattern@200; seed=3"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s", c.scheme, c.spec), func(t *testing.T) {
			out := runFaulted(t, "nw", c.scheme, c.spec)
			if out.panicked != nil {
				t.Fatalf("raw panic: %v", out.panicked)
			}
			if out.diag != nil {
				t.Fatalf("tolerable fault was flagged: %s", out.diag.Error())
			}
			if !maps.Equal(out.stores, ref) {
				t.Fatal("tolerable fault changed the functional output")
			}
		})
	}
}

// TestSanitizedSuiteMatchesPlain: on every drawn machine a sanitized,
// fault-free run reports what the plain run does, a single launch's window
// stream too — the checker observes, never perturbs.
func TestSanitizedSuiteMatchesPlain(t *testing.T) {
	t.Parallel()
	machine.Every.Each(t, func(t *testing.T, m machine.Machine) {
		sanitized := mustRun(t, m, func(su *SimSetup) { su.Sanitize = true })
		machine.Same(t, m, "sanitized and plain runs", sanitized, mustRun(t, m, nil))
	})
}
