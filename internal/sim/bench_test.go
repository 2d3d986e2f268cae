package sim_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/kernels"
)

// BenchmarkRun is one whole single-SM run of lud at 64 warps per scheme:
// GTO over the plain register file, the two-level scheduler over it, and
// RegLess at the paper's 512 registers — the issuing cycle under each of
// its pick and provider shapes, apart from any benchmark workload's host
// phases. ns/cycle is wall time per simulated cycle.
func BenchmarkRun(b *testing.B) {
	k, err := kernels.Load("lud")
	if err != nil {
		b.Fatal(err)
	}
	su := experiments.Default().Setup(experiments.DefaultCapacity)
	for _, scheme := range []experiments.Scheme{experiments.SchemeBaseline, experiments.SchemeBaseline2L, experiments.SchemeRegLess} {
		b.Run(string(scheme), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				run, err := experiments.SimulateKernel(k, scheme, su, nil)
				if err != nil {
					b.Fatal(err)
				}
				cycles += run.Stats.Cycles
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
		})
	}
}
