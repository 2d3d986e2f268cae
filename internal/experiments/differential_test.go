package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/rf"
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

// buildProviderFor mirrors schemeProvider's table for an in-memory
// kernel (microkernels have no benchmark name to Load by).
func buildProviderFor(scheme Scheme, k *isa.Kernel, simCfg *sim.Config) (sim.Provider, error) {
	switch scheme {
	case SchemeBaseline:
		return rf.NewBaseline(), nil
	case SchemeRFV:
		simCfg.Sched = sim.SchedTwoLevel
		return rf.NewRFV(RFVEntries), nil
	case SchemeRFH:
		simCfg.Sched = sim.SchedTwoLevel
		return rf.NewRFH(RFHORFEntries), nil
	case SchemeRegLess:
		return core.New(core.ConfigForCapacity(DefaultCapacity), k)
	}
	return nil, fmt.Errorf("unknown scheme %q", scheme)
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
				p, err := buildProviderFor(scheme, c.k, &simCfg)
				if err != nil {
					t.Fatal(err)
				}
				mm := exec.NewMemory(nil)
				smv, err := sim.New(simCfg, c.k, p, mm)
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
