package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/sanitizer"
	"repro/internal/sim"
)

// matrixOutcome is one fault-injected run's classification.
type matrixOutcome struct {
	diag     *sanitizer.Diagnostic // nil when the run completed
	panicked any                   // recovered value, nil when none
	stores   map[uint32]uint32     // final global stores when completed
}

// runFaulted executes one fault-injected, sanitized simulation of `bench`
// and classifies the result. Panics are recovered and reported as matrix
// failures rather than crashing the test binary, because the robustness
// contract is precisely "never a raw panic".
// assembleChip is Assemble, on the heap, for a suite benchmark by name.
func assembleChip(t *testing.T, bench string, scheme Scheme, sms int, su SimSetup) *gpu.GPU {
	t.Helper()
	k, err := kernels.Load(bench)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := Assemble(nil, k, scheme, sms, su, nil)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return g
}

// assembleSM is the lone SM of a chip of one.
func assembleSM(t *testing.T, bench string, scheme Scheme, su SimSetup) *sim.SM {
	t.Helper()
	return assembleChip(t, bench, scheme, 1, su).SMs[0]
}

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
	smv := assembleSM(t, bench, scheme, SimSetup{
		Capacity:  DefaultCapacity,
		Warps:     8,
		MaxCycles: 2_000_000,
		Watchdog:  20_000,
		Sanitize:  true,
		Faults:    plan,
		Memory:    mm,
	})
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

// refStores computes the functional reference output for a benchmark.
func refStores(t *testing.T, bench string, warps int) map[uint32]uint32 {
	t.Helper()
	k, err := kernels.Load(bench)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exec.Run(k, warps, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	return ref.Stores
}

func sameStores(a, b map[uint32]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
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
					if !sameStores(out.stores, ref) {
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
			if !sameStores(out.stores, ref) {
				t.Fatal("tolerable fault changed the functional output")
			}
		})
	}
}

// TestSanitizedSuiteMatchesPlain: a sanitized, fault-free run must
// produce the same cycle count and output as the plain run — the checker
// observes, never perturbs.
func TestSanitizedSuiteMatchesPlain(t *testing.T) {
	for _, scheme := range []Scheme{SchemeBaseline, SchemeRegLess} {
		build := func(sanitize bool) (uint64, map[uint32]uint32) {
			mm := exec.NewMemory(nil)
			smv := assembleSM(t, "nw", scheme, SimSetup{
				Capacity: DefaultCapacity, Warps: 8, MaxCycles: 2_000_000,
				Sanitize: sanitize, Memory: mm,
			})
			st, err := smv.Run()
			if err != nil {
				t.Fatal(err)
			}
			return st.Cycles, mm.GlobalStores()
		}
		plainCycles, plainStores := build(false)
		sanCycles, sanStores := build(true)
		if plainCycles != sanCycles {
			t.Errorf("%s: sanitizer changed timing: %d vs %d cycles", scheme, plainCycles, sanCycles)
		}
		if !sameStores(plainStores, sanStores) {
			t.Errorf("%s: sanitizer changed output", scheme)
		}
	}
}
