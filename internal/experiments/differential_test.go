package experiments

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen/bare"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// differentialSchemes are the providers whose timing must never change
// architectural results: every one runs each kernel to completion and
// produces bit-identical global stores versus the functional reference.
var differentialSchemes = []Scheme{SchemeBaseline, SchemeRFV, SchemeRFH, SchemeRegLess}

// diffCase is one kernel under differential test.
type diffCase struct {
	name string
	k    *isa.Kernel
}

// differentialCases returns the full Rodinia suite plus parameterized
// microkernels chosen to stress each provider differently: deep register
// pressure (RFV victimization), divergence (RFH's last-result forwarding
// across reconvergence), serial pointer chases (RegLess drain/preload
// churn), and maximal occupancy (capacity-manager contention).
func differentialCases(t *testing.T) []diffCase {
	var cases []diffCase
	for _, name := range kernels.Names() {
		k, err := kernels.Load(name)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		cases = append(cases, diffCase{name: name, k: k})
	}
	micro := []struct {
		name  string
		build func() (*isa.Kernel, error)
	}{
		{"micro_regpressure_8", func() (*isa.Kernel, error) { return kernels.MicroRegPressure(8) }},
		{"micro_regpressure_24", func() (*isa.Kernel, error) { return kernels.MicroRegPressure(24) }},
		{"micro_divergence_2", func() (*isa.Kernel, error) { return kernels.MicroDivergence(2) }},
		{"micro_divergence_4", func() (*isa.Kernel, error) { return kernels.MicroDivergence(4) }},
		{"micro_pointerchase_16", func() (*isa.Kernel, error) { return kernels.MicroPointerChase(16) }},
		{"micro_pointerchase_64", func() (*isa.Kernel, error) { return kernels.MicroPointerChase(64) }},
		{"micro_occupancy", kernels.MicroOccupancy},
	}
	for _, m := range micro {
		k, err := m.build()
		if err != nil {
			t.Fatalf("build %s: %v", m.name, err)
		}
		cases = append(cases, diffCase{name: m.name, k: k})
	}
	return cases
}

// TestDifferentialStoreEquivalence runs every kernel under every provider
// and demands bit-identical global stores versus the functional reference
// — timing models may reorder and stall, but never change architectural
// results.
func TestDifferentialStoreEquivalence(t *testing.T) {
	const warps = 16
	for _, c := range differentialCases(t) {
		for _, scheme := range differentialSchemes {
			c, scheme := c, scheme
			t.Run(fmt.Sprintf("%s/%s", c.name, scheme), func(t *testing.T) {
				t.Parallel()
				simCfg := sim.DefaultConfig()
				simCfg.Warps = warps
				simCfg.MaxCycles = 20_000_000
				mm := exec.NewMemory(nil)
				smv, err := bare.SM(string(scheme), c.k, simCfg, mm, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := smv.Run(); err != nil {
					t.Fatal(err)
				}
				ref, err := exec.Run(c.k, warps, exec.NewMemory(nil))
				if err != nil {
					t.Fatal(err)
				}
				got := ref.Stores
				sims := mm.GlobalStores()
				if len(sims) != len(got) {
					t.Fatalf("%d simulated stores vs %d reference", len(sims), len(got))
				}
				for a, v := range got {
					if sims[a] != v {
						t.Fatalf("store mismatch at %#x: simulated %d, reference %d", a, sims[a], v)
					}
				}
			})
		}
	}
}
