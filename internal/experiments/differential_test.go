package experiments

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/gen/machine"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// differentialSchemes are the providers whose timing must never change
// architectural results: every one runs each kernel to completion and
// produces bit-identical global stores versus the functional reference.
var differentialSchemes = []Scheme{SchemeBaseline, SchemeRFV, SchemeRFH, SchemeRegLess}

// differentialCases returns, by name, the full Rodinia suite plus
// parameterized microkernels chosen to stress each provider differently:
// deep register pressure (RFV victimization), divergence (RFH's
// last-result forwarding across reconvergence), serial pointer chases
// (RegLess drain/preload churn), and maximal occupancy (capacity-manager
// contention).
func differentialCases(t *testing.T) map[string]*isa.Kernel {
	cases := map[string]*isa.Kernel{}
	for _, name := range kernels.Names() {
		cases[name] = kernels.MustLoad(name)
	}
	for name, build := range map[string]func() (*isa.Kernel, error){
		"micro_regpressure_8":   func() (*isa.Kernel, error) { return kernels.MicroRegPressure(8) },
		"micro_regpressure_24":  func() (*isa.Kernel, error) { return kernels.MicroRegPressure(24) },
		"micro_divergence_2":    func() (*isa.Kernel, error) { return kernels.MicroDivergence(2) },
		"micro_divergence_4":    func() (*isa.Kernel, error) { return kernels.MicroDivergence(4) },
		"micro_pointerchase_16": func() (*isa.Kernel, error) { return kernels.MicroPointerChase(16) },
		"micro_pointerchase_64": func() (*isa.Kernel, error) { return kernels.MicroPointerChase(64) },
		"micro_occupancy":       kernels.MicroOccupancy,
	} {
		k, err := build()
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		cases[name] = k
	}
	return cases
}

// TestDifferentialStoreEquivalence runs every kernel under every provider,
// and every drawn machine, and demands bit-identical global stores versus
// the functional reference — timing models may reorder and stall, but
// never change architectural results. A drawn machine that runs a kernel
// machine.RacyKernels lists is skipped; each entry's own machine must
// diverge.
func TestDifferentialStoreEquivalence(t *testing.T) {
	t.Parallel()
	check := func(t *testing.T, m machine.Machine) {
		want, insns := reference(t, m)
		got := mustRun(t, m, nil)
		machine.Same(t, m, "stores and instructions against exec.Run", []any{got.Stores, got.Res.Insns}, []any{want, insns})
	}
	machine.Stores.Each(t, check)
	for name, seed := range machine.RacyKernels {
		m := machine.Draw(seed)
		want, _ := reference(t, m)
		if !slices.Contains(m.Kernels(), kernels.MustLoad(name)) || slices.EqualFunc(mustRun(t, m, nil).Stores, want, maps.Equal) {
			t.Errorf("%s: %s no longer races here: take it off machine.RacyKernels", m, name)
		}
	}
	for name, k := range differentialCases(t) {
		for _, scheme := range differentialSchemes {
			m := machine.Machine{Scheme: string(scheme), Warps: 16, SMs: 1, Grid: 16, Standing: "cold", Seq: name, Ks: []*isa.Kernel{k}}
			if scheme.HasCapacity() {
				m.Capacity = DefaultCapacity
			}
			t.Run(fmt.Sprintf("%s/%s", name, scheme), func(t *testing.T) {
				t.Parallel()
				check(t, m)
			})
		}
	}
}
