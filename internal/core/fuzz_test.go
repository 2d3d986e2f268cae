package core

import (
	"maps"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/regalloc"
	"repro/internal/sim"
)

// TestFuzzEquivalence runs internal/gen's kernels under RegLess at random
// capacities and asserts bit-identical final memory versus the functional
// reference — the strongest transparency check in the suite.
func TestFuzzEquivalence(t *testing.T) {
	capacities := []int{128, 256, 512, 1024}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 977))
			res, err := regalloc.Allocate(gen.Kernel(seed))
			if err != nil {
				t.Fatal(err)
			}
			k := res.Kernel
			warps := 4 * (1 + rng.Intn(4))
			capacity := capacities[rng.Intn(len(capacities))]

			cfg := ConfigForCapacity(capacity)
			cfg.EnableCompressor = rng.Intn(4) != 0
			cfg.FIFOStack = rng.Intn(4) == 0
			p, err := New(nil, cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			simCfg := sim.DefaultConfig()
			simCfg.Warps = warps
			simCfg.MaxCycles = 10_000_000
			mm := exec.NewMemory(nil)
			smv, err := sim.New(nil, simCfg, k, p, mm, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := smv.Run(); err != nil {
				t.Fatalf("seed %d warps %d capacity %d: %v", seed, warps, capacity, err)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ref, err := exec.Run(k, warps, exec.NewMemory(nil))
			if err != nil {
				t.Fatal(err)
			}
			if got := mm.GlobalStores(); !maps.Equal(got, ref.Stores) {
				t.Fatalf("seed %d warps %d capacity %d: %d stored words, functional %d",
					seed, warps, capacity, len(got), len(ref.Stores))
			}
		})
	}
}
