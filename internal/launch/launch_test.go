package launch_test

import (
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gen/bare"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/launch"
	"repro/internal/sim"
)

// setup is the sizing every test here assembles its chips with: resident
// warps per SM and a cycle bound that only a hang reaches.
func setup(resident int) experiments.SimSetup {
	return experiments.SimSetup{Capacity: experiments.DefaultCapacity, Warps: resident, MaxCycles: 10_000_000}
}

// waves launches one kernel's grid on a chip of one, mm standing between
// the waves and nothing else.
func waves(k *isa.Kernel, scheme experiments.Scheme, total, resident int, mm *exec.Memory) (*launch.Result, error) {
	su := setup(resident)
	su.Memory = mm
	return experiments.Launch([]*isa.Kernel{k}, scheme, 1, total, su)
}

// bareWaves is the wave loop as it read before every launch was a chip: a
// bare sim.New per wave over one functional memory, cycles summed.
func bareWaves(t *testing.T, k *isa.Kernel, scheme experiments.Scheme, total, resident int, noFF bool, mm *exec.Memory) (cycles uint64, perWave []*sim.Stats) {
	t.Helper()
	for base := 0; base < total; base += resident {
		cfg := sim.DefaultConfig()
		cfg.Warps, cfg.WarpIDBase, cfg.MaxCycles, cfg.NoFastForward = min(resident, total-base), base, 10_000_000, noFF
		smv, err := bare.SM(string(scheme), k, cfg, mm, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := smv.Run()
		if err != nil {
			t.Fatal(err)
		}
		cycles += st.Cycles
		perWave = append(perWave, st)
	}
	return cycles, perWave
}

// referenceSchemes are the ones the assembled sequence is held to a bare
// loop under: the plain file, a two-level scheduler, and RegLess.
var referenceSchemes = []experiments.Scheme{experiments.SchemeBaseline, experiments.SchemeRFV, experiments.SchemeRegLess}

// sameSequence demands the assembled sequence report what the bare loop
// did: total cycles, every launch's statistics, the final stores.
func sameSequence(t *testing.T, where string, res *launch.Result, cycles uint64, per []*sim.Stats, got, want *exec.Memory) {
	t.Helper()
	if res.Cycles != cycles || res.Launches != len(per) || len(res.PerLaunch) != len(per) {
		t.Fatalf("%s: %d cycles in %d launches, bare %d in %d", where, res.Cycles, res.Launches, cycles, len(per))
	}
	for i, st := range per {
		if !reflect.DeepEqual(res.PerLaunch[i].PerSM[0], st) {
			t.Errorf("%s: launch %d statistics diverge:\nchip %+v\nbare %+v", where, i, res.PerLaunch[i].PerSM[0], st)
		}
	}
	if !reflect.DeepEqual(got.GlobalStores(), want.GlobalStores()) {
		t.Errorf("%s: final stores diverge", where)
	}
}

// TestWavesMatchBareLoop: a grid launched in waves through the one loop —
// each wave a chip of one assembled for its warp range — is the bare loop,
// with a short last wave (40 warps in waves of 16), fast-forward on and
// off.
func TestWavesMatchBareLoop(t *testing.T) {
	k := kernels.MustLoad("nw")
	for _, scheme := range referenceSchemes {
		for _, noFF := range []bool{false, true} {
			want := exec.NewMemory(nil)
			cycles, per := bareWaves(t, k, scheme, 40, 16, noFF, want)
			su := setup(16)
			su.NoFastForward = noFF
			su.Memory = exec.NewMemory(nil)
			res, err := experiments.Launch([]*isa.Kernel{k}, scheme, 1, 40, su)
			if err != nil {
				t.Fatal(err)
			}
			if len(per) != 3 || per[2].DynInsns >= per[1].DynInsns {
				t.Fatalf("the last wave is not short: %d waves", len(per))
			}
			sameSequence(t, string(scheme), res, cycles, per, su.Memory, want)
		}
	}
}

// sameStores demands mm hold what a functional run of the whole grid
// stores.
func sameStores(t *testing.T, k *isa.Kernel, warps int, mm *exec.Memory) *exec.RunResult {
	t.Helper()
	ref, err := exec.Run(k, warps, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := mm.GlobalStores(); !reflect.DeepEqual(got, ref.Stores) {
		t.Fatalf("launch stores diverge from the functional run's (%d vs %d)", len(got), len(ref.Stores))
	}
	return ref
}

// launchSum is the cycles of a sequence's launches added up.
func launchSum(res *launch.Result) (sum uint64) {
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
	if ref := sameStores(t, k, 32, mm); res.Insns != ref.DynInsns {
		t.Fatalf("insns %d vs %d", res.Insns, ref.DynInsns)
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
	sameStores(t, k, 16, mm)
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
}
