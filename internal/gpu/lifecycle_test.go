package gpu

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestResultDetachedFromSM: a Result holds copies of the per-SM
// statistics, not pointers into the SMs — whatever happens to an SM
// afterwards (here: scribbling over its live Stats) leaves the result as
// Run returned it, and holding the result holds no machine.
func TestResultDetachedFromSM(t *testing.T) {
	k := kernels.MustLoad("nw")
	g, err := New(nil, smallCfg(8), oneKernel(k, 2, baselineFactory(), nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, smv := range g.SMs {
		if res.PerSM[i] == &smv.Stats {
			t.Fatalf("PerSM[%d] points into the SM", i)
		}
		if len(res.PerSM[i].BackingSeries) == 0 {
			t.Fatalf("SM %d: no backing series to test with", i)
		}
		want := *res.PerSM[i]
		want.BackingSeries = slices.Clone(want.BackingSeries)
		smv.Stats.Cycles = 1
		smv.Stats.DynInsns += 7
		smv.Stats.BackingSeries[0] += 7
		smv.Stats.BackingSeries = append(smv.Stats.BackingSeries, 7)
		if !reflect.DeepEqual(*res.PerSM[i], want) {
			t.Fatalf("PerSM[%d] moved with the SM's live stats:\n%+v\n%+v", i, *res.PerSM[i], want)
		}
	}
}

// TestArenaChipLeavesCallersMemoryAlone: a chip built in an arena takes
// everything it makes from it — SMs, the L2 level, the memory it was not
// handed — and the arena going back (scribbled over, under poison) takes
// all of that with it; a memory the caller passed in was made elsewhere
// and keeps its stores. Both chips count what a chip on the heap counts.
func TestArenaChipLeavesCallersMemoryAlone(t *testing.T) {
	k := kernels.MustLoad("nw")
	factory := func(i int, k *isa.Kernel) (sim.Provider, error) {
		cfg := core.DefaultConfig()
		cfg.AddrOffset = uint32(i) << 24
		return core.New(cfg, k)
	}
	run := func(a *arena.Arena, mm *exec.Memory) (*GPU, *Result) {
		t.Helper()
		g, err := New(a, smallCfg(8), oneKernel(k, 2, factory, mm))
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return g, res
	}
	onHeap, want := run(nil, nil)
	stores := onHeap.Mems[0].GlobalStores()
	if len(stores) == 0 {
		t.Fatal("the kernel stores nothing to test with")
	}

	arena.Drop()
	arena.SetPoison(true)
	defer arena.SetPoison(false)
	defer arena.Drop()
	a := arena.Take()
	own, got := run(a, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a chip in an arena counts\n%+v\non the heap\n%+v", got, want)
	}
	regs := own.SMs[0].Warps[0].Exec.Regs
	arena.Put(a)
	if regs[0][0] != ^uint32(0) {
		t.Fatal("the chip's registers were not the arena's: putting it back left them readable")
	}

	mm := exec.NewMemory(nil)
	a = arena.Take()
	_, got = run(a, mm)
	arena.Put(a)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a chip in a recycled arena counts\n%+v\non the heap\n%+v", got, want)
	}
	if !reflect.DeepEqual(mm.GlobalStores(), stores) {
		t.Fatal("the caller's memory lost its stores with the arena")
	}
}
