package gpu

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/freelist"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestResultDetachedFromSM: a Result holds copies of the per-SM
// statistics, not pointers into the SMs — whatever happens to an SM
// afterwards (here: scribbling over its live Stats) leaves the result as
// Run returned it, and holding the result holds no machine.
func TestResultDetachedFromSM(t *testing.T) {
	k := kernels.MustLoad("nw")
	g, err := New(smallCfg(2, 8), k, baselineFactory(), nil)
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

// TestReleaseRecyclesWhatTheChipOwns: a released chip parks its SMs'
// buffers, its L2's bank arrays and the memory it made — and a chip
// handed its L2 and memory (FromSMs, a caller's *exec.Memory) leaves
// those alone. A released SM panics when stepped.
func TestReleaseRecyclesWhatTheChipOwns(t *testing.T) {
	k := kernels.MustLoad("nw")
	factory := func(i int) (sim.Provider, error) {
		cfg := core.DefaultConfig()
		cfg.AddrOffset = uint32(i) << 24
		return core.New(cfg, k)
	}
	run := func(mm *exec.Memory) *GPU {
		t.Helper()
		g, err := New(smallCfg(2, 8), k, factory, mm)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Per SM: one register chunk (8 warps fit one), the L1's array, four
	// shards' OSU arrays.
	const sms, perSM = 2, 1 + 1 + 4
	freelist.Drop()
	own := run(nil)
	own.Release()
	if got, min := freelist.Held(), sms*perSM+own.Cfg.L2.Banks+1; got < min {
		t.Fatalf("released chip parked %d buffers, want at least %d (the SMs', %d bank arrays, a page)",
			got, min, own.Cfg.L2.Banks)
	}

	freelist.Drop()
	mm := exec.NewMemory(nil)
	lent := run(mm)
	FromSMs(lent.Cfg, lent.L2, lent.SMs, lent.Mems).Release()
	if got := freelist.Held(); got != sms*perSM {
		t.Fatalf("a chip lent its L2 and memory parked %d buffers, want the SMs' %d", got, sms*perSM)
	}
	if len(mm.GlobalStores()) == 0 {
		t.Fatal("the caller's memory was emptied")
	}
	lent.L2.Release() // still whole: hands back every bank
	if got := freelist.Held(); got != sms*perSM+lent.Cfg.L2.Banks {
		t.Fatalf("the lent L2 had %d bank arrays left to release, want %d", got-sms*perSM, lent.Cfg.L2.Banks)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("stepping a released SM did not panic")
		}
	}()
	own.SMs[0].Warps[0].Exec.Regs[0][0]++
}
