package launch_test

import (
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/launch"
	"repro/internal/mem"
	"repro/internal/sim"
)

// runApp launches an application's kernels back to back on one SM, mm
// and one hierarchy standing between them; it returns the hierarchy's
// cumulative statistics with the sequence.
func runApp(app kernels.Application, scheme experiments.Scheme, noFF bool, mm *exec.Memory) (*launch.Result, mem.Stats, error) {
	su := setup(8)
	su.NoFastForward = noFF
	su.Memory, su.Hier = mm, mem.New(mem.DefaultConfig())
	res, err := experiments.Launch(app.Kernels, scheme, 1, 8, su)
	return res, su.Hier.Stats, err
}

// sameAsFunctional demands mm hold what the application's kernels store
// when run in order through the pure functional executor on one memory.
func sameAsFunctional(t *testing.T, app kernels.Application, mm *exec.Memory) {
	t.Helper()
	ref := exec.NewMemory(nil)
	for _, k := range app.Kernels {
		if _, err := exec.Run(k, 8, ref); err != nil {
			t.Fatal(err)
		}
	}
	if want, got := ref.GlobalStores(), mm.GlobalStores(); !reflect.DeepEqual(got, want) {
		t.Fatalf("app chain stores diverge from the functional run's (%d vs %d)", len(got), len(want))
	}
}

func TestAppsRunAndChain(t *testing.T) {
	for _, app := range kernels.Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			if len(app.Kernels) < 2 {
				t.Fatalf("application has %d kernels", len(app.Kernels))
			}
			mm := exec.NewMemory(nil)
			res, _, err := runApp(app, experiments.SchemeBaseline, false, mm)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.PerLaunch) != len(app.Kernels) || res.Cycles == 0 {
				t.Fatalf("degenerate result %+v", res)
			}
			sameAsFunctional(t, app, mm)
		})
	}
}

func TestAppRegLess(t *testing.T) {
	app, err := kernels.AppByName("backprop_app")
	if err != nil {
		t.Fatal(err)
	}
	mm := exec.NewMemory(nil)
	if _, _, err := runApp(app, experiments.SchemeRegLess, false, mm); err != nil {
		t.Fatal(err)
	}
	sameAsFunctional(t, app, mm)
}

func TestAppWarmCaches(t *testing.T) {
	// srad's second pass re-reads pass 1's coefficients: with the shared
	// hierarchy those loads hit L2 lines pass 1 wrote.
	app, err := kernels.AppByName("srad_app")
	if err != nil {
		t.Fatal(err)
	}
	_, hier, err := runApp(app, experiments.SchemeBaseline, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hier.L2Hits == 0 {
		t.Fatal("no L2 hits across the kernel sequence — cache state not shared")
	}
}

func TestAppByNameUnknown(t *testing.T) {
	if _, err := kernels.AppByName("nosuch_app"); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, _, err := runApp(kernels.Application{Name: "empty"}, experiments.SchemeBaseline, false, nil); err == nil {
		t.Fatal("empty app accepted")
	}
}

// TestAppMatchesBareLoop: an application through the one loop — each
// kernel a chip of one handed the standing hierarchy — is the loop as it
// read before every launch was a chip: a bare sim.NewWithHierarchy per
// kernel over one mem.New and one functional memory.
func TestAppMatchesBareLoop(t *testing.T) {
	for _, app := range kernels.Apps() {
		for _, scheme := range referenceSchemes {
			for _, noFF := range []bool{false, true} {
				want := exec.NewMemory(nil)
				hier := mem.New(mem.DefaultConfig())
				var cycles uint64
				var per []*sim.Stats
				for _, k := range app.Kernels {
					cfg, p := bareSM(t, scheme, k, noFF)
					cfg.Warps = 8
					hier.ResetTiming() // the new SM's clock starts at zero
					smv, err := sim.NewWithHierarchy(cfg, k, p, want, hier)
					if err != nil {
						t.Fatal(err)
					}
					st, err := smv.Run()
					if err != nil {
						t.Fatal(err)
					}
					cycles += st.Cycles
					per = append(per, st)
				}
				mm := exec.NewMemory(nil)
				res, stats, err := runApp(app, scheme, noFF, mm)
				if err != nil {
					t.Fatal(err)
				}
				where := app.Name + "/" + string(scheme)
				sameSequence(t, where, res, cycles, per, mm, want)
				if stats != hier.Stats {
					t.Errorf("%s: hierarchy statistics diverge:\nchip %+v\nbare %+v", where, stats, hier.Stats)
				}
			}
		}
	}
}
