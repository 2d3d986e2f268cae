package experiments

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// bankedSetup is a small setup on a fresh banked L2, the level every
// co-residency chip runs on.
func bankedSetup(t *testing.T) SimSetup {
	t.Helper()
	opts := Quick()
	opts.Warps = 8
	su := opts.Setup(DefaultCapacity)
	l2, err := mem.NewBankedL2(mem.DefaultBankedL2Config())
	if err != nil {
		t.Fatal(err)
	}
	su.L2 = l2
	return su
}

// TestCoResidentSlots: two kernels sharing a chip share nothing but the
// L2 and DRAM. Each slot's stores and instruction count are those of its
// kernel executed alone (exec.Run over the slot's warps), and contending
// for the shared level never makes a kernel faster than it runs on the
// same SMs with the other half of the chip idle.
func TestCoResidentSlots(t *testing.T) {
	const half = 2
	for _, pair := range coResidentPairs {
		for _, scheme := range []Scheme{SchemeBaseline, SchemeRegLess} {
			t.Run(fmt.Sprintf("%s+%s/%s", pair[0], pair[1], scheme), func(t *testing.T) {
				t.Parallel()
				ks := [2]*isa.Kernel{kernels.MustLoad(pair[0]), kernels.MustLoad(pair[1])}
				run := func(su SimSetup, k *isa.Kernel) (*gpu.GPU, *gpu.Result) {
					g, _, err := Assemble(nil, k, scheme, half, su, nil)
					if err != nil {
						t.Fatal(err)
					}
					res, err := g.Run()
					if err != nil {
						t.Fatal(err)
					}
					return g, res
				}
				su := bankedSetup(t)
				su.CoResident = []gpu.KernelSlot{{K: ks[1], SMs: half, AddrBias: coResidentBias}}
				g, co := run(su, ks[0])
				if len(g.SMs) != 2*half || len(co.KernelCycles) != 2 {
					t.Fatalf("%d SMs, %d kernel times", len(g.SMs), len(co.KernelCycles))
				}
				for slot, k := range ks {
					ref, err := exec.Run(k, half*su.Warps, exec.NewMemory(nil))
					if err != nil {
						t.Fatal(err)
					}
					var insns uint64
					for i, st := range co.PerSM {
						if g.Slot[i] == slot {
							insns += st.DynInsns
						}
					}
					if insns != ref.DynInsns {
						t.Errorf("slot %d (%s): %d instructions, alone %d", slot, k.Name, insns, ref.DynInsns)
					}
					got := g.Mems[slot].GlobalStores()
					if len(got) != len(ref.Stores) {
						t.Fatalf("slot %d (%s): %d stores, alone %d", slot, k.Name, len(got), len(ref.Stores))
					}
					for a, v := range ref.Stores {
						if got[a] != v {
							t.Fatalf("slot %d (%s): store at %#x diverged", slot, k.Name, a)
						}
					}
					_, iso := run(bankedSetup(t), k)
					if co.KernelCycles[slot] < iso.KernelCycles[0] {
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
	su := bankedSetup(t)
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
