package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gen/machine"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// TestIssueAndL1PortBounds holds every run to two sound lower bounds on
// its cycle count, independent of the timing model's own bookkeeping: a
// scheduler issues at most one warp instruction a cycle (DynInsns ≤
// Schedulers × Cycles, per SM), and an SM's one L1 port accepts at most
// one register-space operation a cycle (L1Reads + L1Writes +
// L1Invalidations, summed over the chip, ≤ SMs × Cycles). It covers the
// Quick suite and every generated kernel TestGeneratedKernelDifferential
// runs, under all six schemes, on a chip of one and of four; RegLess runs
// at 128 registers, where spills make the L1 port busiest. A violation is
// a timing bug, not a bound to loosen. The tightest ratio of each bound is
// logged: how close the model comes to it.
func TestIssueAndL1PortBounds(t *testing.T) {
	type subject struct {
		k     *isa.Kernel
		warps int
	}
	var subjects []subject
	for _, b := range experiments.Quick().Benchmarks {
		k, err := kernels.Load(b)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{k, experiments.Quick().Warps})
	}
	for _, k := range machine.Generated() {
		subjects = append(subjects, subject{k, 8})
	}
	var issueMax, portMax float64
	for _, s := range subjects {
		for _, scheme := range experiments.Schemes() {
			capacity := 0
			if scheme.HasCapacity() {
				capacity = 128
			}
			for _, sms := range []int{1, 4} {
				where := fmt.Sprintf("%s/%s/%d at %d SMs", s.k.Name, scheme, capacity, sms)
				su := experiments.SimSetup{Capacity: capacity, Warps: s.warps, MaxCycles: 20_000_000}
				g, _, err := experiments.Assemble(nil, s.k, scheme, sms, su, nil)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				res, err := g.Run()
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				var port uint64
				for i, sm := range g.SMs {
					st := res.PerSM[i]
					if slots := uint64(sm.Cfg.Schedulers) * st.Cycles; st.DynInsns > slots {
						t.Errorf("%s: SM %d issued %d warp instructions in %d cycles on %d schedulers",
							where, i, st.DynInsns, st.Cycles, sm.Cfg.Schedulers)
					} else {
						issueMax = max(issueMax, float64(st.DynInsns)/float64(slots))
					}
					port += sm.Mem.Stats.L1Reads + sm.Mem.Stats.L1Writes + sm.Mem.Stats.L1Invalidations
				}
				if slots := uint64(sms) * res.Cycles; port > slots {
					t.Errorf("%s: %d register-space L1 operations in %d cycles on %d L1 ports",
						where, port, res.Cycles, sms)
				} else {
					portMax = max(portMax, float64(port)/float64(slots))
				}
			}
		}
	}
	t.Logf("%d runs: issue slots at most %.3f used, L1 port cycles at most %.3f",
		len(subjects)*len(experiments.Schemes())*2, issueMax, portMax)
}
