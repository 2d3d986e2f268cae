package launch

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/rf"
	"repro/internal/sim"
)

func gridBaseFactory() GridFactory {
	return func(int, int) (sim.Provider, error) { return rf.NewBaseline(), nil }
}

// TestGridEquivalence checks that distributing a grid across a 2-SM chip
// in waves is functionally identical to the single-shot reference
// execution: same stores, same dynamic instruction count.
func TestGridEquivalence(t *testing.T) {
	k := kernels.MustLoad("streamcluster")
	mm := exec.NewMemory(nil)
	res, err := RunGrid(k, 32, 8, 2, testCfg(), mem.DefaultBankedL2Config(), gridBaseFactory(), mm)
	if err != nil {
		t.Fatal(err)
	}
	// 32 warps / (8 resident x 2 SMs) = 2 waves.
	if res.Waves != 2 || res.TotalWarps != 32 {
		t.Fatalf("waves = %d total = %d", res.Waves, res.TotalWarps)
	}
	ref, err := exec.Run(k, 32, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Insns != ref.DynInsns {
		t.Fatalf("insns %d vs %d", res.Insns, ref.DynInsns)
	}
	got := mm.GlobalStores()
	if len(got) != len(ref.Stores) {
		t.Fatalf("stores %d vs %d", len(got), len(ref.Stores))
	}
	for a, v := range ref.Stores {
		if got[a] != v {
			t.Fatalf("grid launch diverged at %#x", a)
		}
	}
	var sum uint64
	for _, w := range res.PerWave {
		sum += w.Cycles
	}
	if sum != res.Cycles {
		t.Fatalf("cycles %d != wave sum %d", res.Cycles, sum)
	}
	if res.L2.Hits+res.L2.Misses == 0 {
		t.Fatal("no traffic reached the shared L2")
	}
}

// TestGridMoreSMsFewerWaves checks the block scheduler's point: the same
// grid at the same occupancy needs fewer waves (and fewer cycles) on a
// wider chip.
func TestGridMoreSMsFewerWaves(t *testing.T) {
	k := kernels.MustLoad("streamcluster")
	one, err := RunGrid(k, 32, 8, 1, testCfg(), mem.DefaultBankedL2Config(), gridBaseFactory(), exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunGrid(k, 32, 8, 4, testCfg(), mem.DefaultBankedL2Config(), gridBaseFactory(), exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if one.Waves != 4 || four.Waves != 1 {
		t.Fatalf("waves = %d/%d, want 4/1", one.Waves, four.Waves)
	}
	if four.Cycles >= one.Cycles {
		t.Fatalf("4 SMs (%d cycles) not faster than 1 SM (%d cycles)", four.Cycles, one.Cycles)
	}
	if one.Insns != four.Insns {
		t.Fatalf("insns diverge across SM counts: %d vs %d", one.Insns, four.Insns)
	}
}

// TestGridRegLess runs a barrier-heavy kernel under RegLess providers
// with per-SM disjoint backing windows and checks functional equivalence.
func TestGridRegLess(t *testing.T) {
	k := kernels.MustLoad("nw")
	mm := exec.NewMemory(nil)
	factory := func(sm, wave int) (sim.Provider, error) {
		c := core.DefaultConfig()
		c.AddrOffset = uint32(sm) << 24
		return core.New(c, k)
	}
	res, err := RunGrid(k, 32, 8, 2, testCfg(), mem.DefaultBankedL2Config(), factory, mm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Waves != 2 {
		t.Fatalf("waves = %d", res.Waves)
	}
	ref, err := exec.Run(k, 32, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	got := mm.GlobalStores()
	for a, v := range ref.Stores {
		if got[a] != v {
			t.Fatalf("RegLess grid launch diverged at %#x", a)
		}
	}
}

// TestGridValidation exercises the launch-shape checks.
func TestGridValidation(t *testing.T) {
	k := kernels.MustLoad("streamcluster")
	cfg := testCfg()
	l2 := mem.DefaultBankedL2Config()
	mm := exec.NewMemory(nil)
	cases := []struct {
		name                 string
		total, resident, sms int
	}{
		{"zero total", 0, 8, 2},
		{"zero resident", 32, 0, 2},
		{"zero SMs", 32, 8, 0},
		{"resident not scheduler-aligned", 32, 6, 2},
		{"total not CTA-aligned", 33, 8, 2},
	}
	for _, c := range cases {
		if _, err := RunGrid(k, c.total, c.resident, c.sms, cfg, l2, gridBaseFactory(), mm); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

// liveHeap is the heap in use once everything unreachable is collected.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestGridResultPinsNoMachine: a GridResult holds each wave's numbers,
// not each wave's chip. Four 64-warp SMs per wave are about 1 MB of
// registers, caches and scoreboards; a result that pointed into them
// (PerWave -> PerSM -> &sm.Stats did) would keep every wave's alive.
func TestGridResultPinsNoMachine(t *testing.T) {
	k := kernels.MustLoad("streamcluster")
	cfgv := sim.DefaultConfig()
	cfgv.MaxCycles = 5_000_000
	grid := func() *GridResult {
		res, err := RunGrid(k, 8*4*64, 64, 4, cfgv, mem.DefaultBankedL2Config(), gridBaseFactory(), exec.NewMemory(nil))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	grid() // compile caches, kernel tables: not the result's
	before := liveHeap()
	res := grid()
	grown := liveHeap() - before
	if res.Waves != 8 {
		t.Fatalf("%d waves, want 8", res.Waves)
	}
	if perWave := grown / int64(res.Waves); perWave > 32<<10 {
		t.Fatalf("holding the GridResult holds %d KiB per wave, want at most 32: it pins the waves' chips", perWave>>10)
	}
	runtime.KeepAlive(res)
}
