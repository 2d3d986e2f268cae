package experiments_test

import (
	"runtime"
	"testing"

	"repro/internal/allocs"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// grid launches one kernel's grid on an sms-SM chip, mm and one banked L2
// standing between the waves; it returns the L2's cumulative traffic with
// the sequence.
func grid(t *testing.T, k *isa.Kernel, scheme experiments.Scheme, total, resident, sms int, mm *exec.Memory) (*experiments.LaunchResult, mem.BankedL2Stats, error) {
	t.Helper()
	l2, err := mem.NewBankedL2(mem.DefaultBankedL2Config())
	if err != nil {
		t.Fatal(err)
	}
	su := setup(resident)
	su.Memory, su.L2 = mm, l2
	res, err := experiments.Launch([]*isa.Kernel{k}, scheme, sms, total, su)
	return res, l2.Stats, err
}

// TestGridEquivalence checks that distributing a grid across a 2-SM chip
// in waves is functionally identical to the single-shot reference
// execution: same stores, same dynamic instruction count.
func TestGridEquivalence(t *testing.T) {
	k := kernels.MustLoad("streamcluster")
	mm := exec.NewMemory(nil)
	res, l2, err := grid(t, k, experiments.SchemeBaseline, 32, 8, 2, mm)
	if err != nil {
		t.Fatal(err)
	}
	// 32 warps / (8 resident x 2 SMs) = 2 waves.
	if res.Launches != 2 {
		t.Fatalf("waves = %d", res.Launches)
	}
	if insns := sameStores(t, []*isa.Kernel{k}, 32, mm); res.Insns != insns {
		t.Fatalf("insns %d vs %d", res.Insns, insns)
	}
	if sum := launchSum(res); sum != res.Cycles {
		t.Fatalf("cycles %d != wave sum %d", res.Cycles, sum)
	}
	if l2.Hits+l2.Misses == 0 {
		t.Fatal("no traffic reached the shared L2")
	}
	// The standing level counts from its first launch: the last wave's
	// chip reports the whole grid's traffic.
	if last := res.PerLaunch[1].L2; last != l2 || res.PerLaunch[0].L2 == l2 {
		t.Fatalf("per-wave L2 counters are not cumulative: %+v then %+v, standing %+v", res.PerLaunch[0].L2, last, l2)
	}
}

// TestGridMoreSMsFewerWaves checks the block scheduler's point: the same
// grid at the same occupancy needs fewer waves (and fewer cycles) on a
// wider chip.
func TestGridMoreSMsFewerWaves(t *testing.T) {
	k := kernels.MustLoad("streamcluster")
	one, l2, err := grid(t, k, experiments.SchemeBaseline, 32, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	four, _, err := grid(t, k, experiments.SchemeBaseline, 32, 8, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.Launches != 4 || four.Launches != 1 {
		t.Fatalf("waves = %d/%d, want 4/1", one.Launches, four.Launches)
	}
	if four.Cycles >= one.Cycles {
		t.Fatalf("4 SMs (%d cycles) not faster than 1 SM (%d cycles)", four.Cycles, one.Cycles)
	}
	if one.Insns != four.Insns {
		t.Fatalf("insns diverge across SM counts: %d vs %d", one.Insns, four.Insns)
	}
	if l2.Hits+l2.Misses == 0 {
		t.Fatal("the 1-SM chip's waves ran on private slices, not the standing banked L2")
	}
}

// TestGridRegLess runs a barrier-heavy kernel under RegLess providers
// with per-SM disjoint backing windows and checks functional equivalence.
func TestGridRegLess(t *testing.T) {
	k := kernels.MustLoad("nw")
	mm := exec.NewMemory(nil)
	res, _, err := grid(t, k, experiments.SchemeRegLess, 32, 8, 2, mm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launches != 2 {
		t.Fatalf("waves = %d", res.Launches)
	}
	sameStores(t, []*isa.Kernel{k}, 32, mm)
}

// TestGridShortLastWave: a grid that does not fill its last wave builds
// only the SMs the range reaches, the last of them short (40 warps, 8
// resident on 4 SMs: a full wave, then one full SM and nothing else).
func TestGridShortLastWave(t *testing.T) {
	k := kernels.MustLoad("nw")
	mm := exec.NewMemory(nil)
	res, _, err := grid(t, k, experiments.SchemeRegLess, 40, 8, 4, mm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launches != 2 || len(res.PerLaunch[0].PerSM) != 4 || len(res.PerLaunch[1].PerSM) != 1 {
		t.Fatalf("%d launches, last on %d SMs", res.Launches, len(res.PerLaunch[res.Launches-1].PerSM))
	}
	if insns := sameStores(t, []*isa.Kernel{k}, 40, mm); res.Insns != insns {
		t.Fatalf("insns %d vs %d", res.Insns, insns)
	}
}

// TestGridValidation exercises the launch-shape checks.
func TestGridValidation(t *testing.T) {
	k := kernels.MustLoad("streamcluster")
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
		if _, _, err := grid(t, k, experiments.SchemeBaseline, c.total, c.resident, c.sms, nil); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

// TestGridResultPinsNoMachine: a Result holds each wave's numbers, not
// each wave's chip. Four 64-warp SMs per wave are about 1 MB of
// registers, caches and scoreboards; a result that pointed into them
// (PerLaunch -> PerSM -> &sm.Stats did) would keep every wave's alive.
func TestGridResultPinsNoMachine(t *testing.T) {
	k := kernels.MustLoad("streamcluster")
	run := func() *experiments.LaunchResult {
		res, _, err := grid(t, k, experiments.SchemeBaseline, 8*4*64, 64, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run() // compile caches, kernel tables: not the result's
	before := allocs.LiveHeap()
	res := run()
	grown := allocs.LiveHeap() - before
	if res.Launches != 8 {
		t.Fatalf("%d waves, want 8", res.Launches)
	}
	if perWave := grown / int64(res.Launches); perWave > 32<<10 {
		t.Fatalf("holding the Result holds %d KiB per wave, want at most 32: it pins the waves' chips", perWave>>10)
	}
	runtime.KeepAlive(res)
}
