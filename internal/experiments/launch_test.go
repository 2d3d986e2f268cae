package experiments_test

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gen/bare"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// setup is the sizing every test here assembles its chips with: resident
// warps per SM and a cycle bound that only a hang reaches.
func setup(resident int) experiments.SimSetup {
	return experiments.SimSetup{Capacity: experiments.DefaultCapacity, Warps: resident, MaxCycles: 10_000_000}
}

// waves launches one kernel's grid on a chip of one, mm standing between
// the waves and nothing else.
func waves(k *isa.Kernel, scheme experiments.Scheme, total, resident int, mm *exec.Memory) (*experiments.LaunchResult, error) {
	su := setup(resident)
	su.Memory = mm
	return experiments.Launch([]*isa.Kernel{k}, scheme, 1, total, su)
}

// referenceSchemes are the ones the assembled sequence is held to a bare
// loop under: the plain file, a two-level scheduler, and RegLess.
var referenceSchemes = []experiments.Scheme{experiments.SchemeBaseline, experiments.SchemeRFV, experiments.SchemeRegLess}

// sameSequence demands the assembled sequence report what the bare loop
// did: every launch's statistics (so the cycles they sum to), the stores.
func sameSequence(t *testing.T, where string, res *experiments.LaunchResult, ref []*sim.SM, got, want *exec.Memory) {
	t.Helper()
	if res.Cycles != launchSum(res) || res.Launches != len(ref) || len(res.PerLaunch) != len(ref) {
		t.Fatalf("%s: %d cycles (%d summed) in %d launches, bare %d", where, res.Cycles, launchSum(res), res.Launches, len(ref))
	}
	for i, smv := range ref {
		if !reflect.DeepEqual(res.PerLaunch[i].PerSM[0], &smv.Stats) {
			t.Errorf("%s: launch %d statistics diverge:\nchip %+v\nbare %+v", where, i, res.PerLaunch[i].PerSM[0], smv.Stats)
		}
	}
	if !reflect.DeepEqual(got.GlobalStores(), want.GlobalStores()) {
		t.Errorf("%s: final stores diverge", where)
	}
}

// TestWavesMatchBareLoop: a grid launched in waves through the one loop —
// each wave a chip of one assembled for its warp range — is the bare loop
// (bare.Run), with a short last wave (40 warps in waves of 16). Stepped
// runs are the fast-forward relation's (experiments.TestChipFFParity).
func TestWavesMatchBareLoop(t *testing.T) {
	k := kernels.MustLoad("nw")
	for _, scheme := range referenceSchemes {
		want := exec.NewMemory(nil)
		ref, err := bare.Run(string(scheme), 512, []*isa.Kernel{k}, 40, 16, want, nil)
		if err != nil {
			t.Fatal(err)
		}
		su := setup(16)
		su.Memory = exec.NewMemory(nil)
		res, err := experiments.Launch([]*isa.Kernel{k}, scheme, 1, 40, su)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref) != 3 || ref[2].Stats.DynInsns >= ref[1].Stats.DynInsns {
			t.Fatalf("the last wave is not short: %d waves", len(ref))
		}
		sameSequence(t, string(scheme), res, ref, su.Memory, want)
	}
}

// sameStores demands mm hold what a functional run of ks, in order over
// one memory, stores over grids of warps; it returns the instructions
// that run executes.
func sameStores(t *testing.T, ks []*isa.Kernel, warps int, mm *exec.Memory) (insns uint64) {
	t.Helper()
	ref := exec.NewMemory(nil)
	for _, k := range ks {
		r, err := exec.Run(k, warps, ref)
		if err != nil {
			t.Fatal(err)
		}
		insns += r.DynInsns
	}
	if got, want := mm.GlobalStores(), ref.GlobalStores(); !maps.Equal(got, want) {
		t.Fatalf("launch stores diverge from the functional run's (%d vs %d)", len(got), len(want))
	}
	return insns
}

// launchSum is the cycles of a sequence's launches added up.
func launchSum(res *experiments.LaunchResult) (sum uint64) {
	for _, w := range res.PerLaunch {
		sum += w.Cycles
	}
	return sum
}

func TestWaveEquivalence(t *testing.T) {
	k := kernels.MustLoad("streamcluster")
	mm := exec.NewMemory(nil)
	res, err := waves(k, experiments.SchemeBaseline, 32, 8, mm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launches != 4 {
		t.Fatalf("waves = %d", res.Launches)
	}
	if insns := sameStores(t, []*isa.Kernel{k}, 32, mm); res.Insns != insns {
		t.Fatalf("insns %d vs %d", res.Insns, insns)
	}
	// Total cycles = sum of waves.
	if sum := launchSum(res); sum != res.Cycles {
		t.Fatalf("cycles %d != wave sum %d", res.Cycles, sum)
	}
}

func TestWaveRegLess(t *testing.T) {
	k := kernels.MustLoad("nw") // barriers across waves
	mm := exec.NewMemory(nil)
	res, err := waves(k, experiments.SchemeRegLess, 16, 8, mm)
	if err != nil {
		t.Fatal(err)
	}
	sameStores(t, []*isa.Kernel{k}, 16, mm)
	if res.Launches != 2 {
		t.Fatalf("waves = %d", res.Launches)
	}
}

func TestMoreWavesCostMore(t *testing.T) {
	k := kernels.MustLoad("lud")
	a, err := waves(k, experiments.SchemeBaseline, 32, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := waves(k, experiments.SchemeBaseline, 32, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cycles <= a.Cycles {
		t.Fatalf("halving occupancy did not cost cycles: %d vs %d", b.Cycles, a.Cycles)
	}
}

func TestLaunchValidation(t *testing.T) {
	k := kernels.MustLoad("nw") // CTA size 8
	if _, err := waves(k, experiments.SchemeBaseline, 16, 6, nil); err == nil {
		t.Fatal("accepted resident warps not divisible by schedulers/CTA")
	}
	if _, err := waves(k, experiments.SchemeBaseline, 12, 8, nil); err == nil {
		t.Fatal("accepted grid not a multiple of CTA size")
	}
	if _, err := waves(k, experiments.SchemeBaseline, 0, 8, nil); err == nil {
		t.Fatal("accepted zero warps")
	}
	// A wave that splits a CTA is refused before wave 0 runs, not when
	// the second wave's first warp turns out misaligned.
	const split = "launch: wave size 12 not a multiple of nw's CTA size 8"
	if _, err := waves(k, experiments.SchemeBaseline, 24, 12, nil); err == nil || err.Error() != split {
		t.Fatalf("wave splitting a CTA: got %v, want %q", err, split)
	}
	su := setup(8)
	su.CoResident = []gpu.KernelSlot{{K: k, SMs: 2}}
	if _, err := experiments.Launch([]*isa.Kernel{k}, experiments.SchemeBaseline, 1, 8, su); err == nil {
		t.Fatal("accepted a co-resident slot with an SM outside the warp range")
	}
}
