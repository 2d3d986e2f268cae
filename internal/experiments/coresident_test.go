package experiments

import (
	"fmt"
	"testing"

	"repro/internal/gen/machine"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// TestCoResidentSlots: two kernels sharing a chip (beside: k on half of
// four SMs, co on the rest) share nothing but the L2 and DRAM, and
// contending for it never makes a kernel faster than it runs with the
// other half idle. That each slot stores what its kernel stores alone is
// the store relation's, on drawn machines with a co-resident slot.
func TestCoResidentSlots(t *testing.T) {
	for _, pair := range coResidentPairs {
		for _, scheme := range []Scheme{SchemeBaseline, SchemeRegLess} {
			t.Run(fmt.Sprintf("%s+%s/%s", pair[0], pair[1], scheme), func(t *testing.T) {
				t.Parallel()
				ks := [2]*isa.Kernel{kernels.MustLoad(pair[0]), kernels.MustLoad(pair[1])}
				beside := func(k, co *isa.Kernel) *gpu.Result {
					m := machine.Machine{Scheme: string(scheme), Capacity: DefaultCapacity, Warps: 8, SMs: 2, Grid: 16,
						Standing: "L2", Seq: k.Name, Ks: []*isa.Kernel{k}, Co: co}
					return mustRun(t, m, nil).Res.PerLaunch[0]
				}
				co := beside(ks[0], ks[1])
				if len(co.PerSM) != 4 || len(co.KernelCycles) != 2 {
					t.Fatalf("%d SMs, %d kernel times", len(co.PerSM), len(co.KernelCycles))
				}
				for slot, k := range ks {
					if iso := beside(k, nil); co.KernelCycles[slot] < iso.KernelCycles[0] {
						t.Errorf("slot %d (%s): %d cycles co-resident, %d isolated",
							slot, k.Name, co.KernelCycles[slot], iso.KernelCycles[0])
					}
				}
			})
		}
	}
}

// TestChipOfOneOnStandingL2 is the converse of TestChipOfOneMatchesBareSM's
// last assertion: one SM handed a banked L2 runs on it, not on a private
// slice, and what it leaves there is the next launch's warm level.
func TestChipOfOneOnStandingL2(t *testing.T) {
	su := setup(machine.Machine{Warps: 8, Standing: "L2"})
	run, err := SimulateKernel(kernels.MustLoad("bfs"), SchemeBaseline, su, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Chip.PerSM) != 1 || run.Chip.L2.Hits+run.Chip.L2.Misses == 0 {
		t.Fatalf("a chip of one handed a banked L2 saw no traffic on it: %+v", run.Chip.L2)
	}
	cold := su.L2.Stats
	if cold != run.Chip.L2 {
		t.Fatalf("the chip's L2 counters are not the standing level's: %+v vs %+v", run.Chip.L2, cold)
	}
	if _, err := SimulateKernel(kernels.MustLoad("bfs"), SchemeBaseline, su, nil); err != nil {
		t.Fatal(err)
	}
	if warm := su.L2.Stats.Hits - cold.Hits; warm <= cold.Hits {
		t.Fatalf("the second launch hit the standing L2 %d times, the cold one %d", warm, cold.Hits)
	}
}
