package sim_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/experiments"
	"repro/internal/gen/machine"
)

// TestGeneratedKernelDifferential holds the maintained state — ready
// masks, class masks, the provider's issue mask, the timing calendar,
// the tag index, the activation memo — to the linear oracle over
// internal/gen's kernels at 8 warps, at the nine points that differ in
// how picks are made and gated (every scheme, RegLess at four
// capacities): pick for pick, with Stats, ProviderStats, mem.Stats and
// the JSONL window stream. A failure prints the kernel as assembly, which
// internal/asm (and `kernelinfo`) read back. The relations that need no
// sim internals — fast-forward, the sanitizer, stores ≡ exec.Run,
// recycled ≡ fresh — hold on internal/gen/machine's draw, whose machines
// reach these points.
func TestGeneratedKernelDifferential(t *testing.T) {
	type point struct {
		scheme   experiments.Scheme
		capacity int
	}
	points := []point{{experiments.SchemeRegLess, 128}, {experiments.SchemeRegLess, 192}, {experiments.SchemeRegLess, 256}}
	for _, s := range experiments.Schemes() {
		points = append(points, point{s, experiments.DefaultCapacity})
	}
	for _, k := range machine.Generated() {
		for _, p := range points {
			su := experiments.SimSetup{Capacity: p.capacity, Warps: 8, MaxCycles: 5_000_000}
			if err := oracleDiverges(k, p.scheme, su, nil); err != nil {
				t.Fatalf("%s, %s@%d: %v\n%s", k.Name, p.scheme, p.capacity, err, asm.Format(k))
			}
		}
	}
}
