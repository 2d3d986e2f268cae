package experiments_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gen/bare"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// runApp launches an application's kernels back to back on one SM, mm
// and one hierarchy standing between them; it returns the hierarchy's
// cumulative statistics with the sequence.
func runApp(app kernels.Application, scheme experiments.Scheme, mm *exec.Memory) (*experiments.LaunchResult, mem.Stats, error) {
	su := setup(8)
	su.Memory, su.Hier = mm, mem.New(mem.DefaultConfig())
	res, err := experiments.Launch(app.Kernels, scheme, 1, 8, su)
	return res, su.Hier.Stats, err
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
			res, _, err := runApp(app, experiments.SchemeBaseline, mm)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.PerLaunch) != len(app.Kernels) || res.Cycles == 0 {
				t.Fatalf("degenerate result %+v", res)
			}
			sameStores(t, app.Kernels, 8, mm)
		})
	}
}

func TestAppRegLess(t *testing.T) {
	app, err := kernels.AppByName("backprop_app")
	if err != nil {
		t.Fatal(err)
	}
	mm := exec.NewMemory(nil)
	if _, _, err := runApp(app, experiments.SchemeRegLess, mm); err != nil {
		t.Fatal(err)
	}
	sameStores(t, app.Kernels, 8, mm)
}

func TestAppWarmCaches(t *testing.T) {
	// srad's second pass re-reads pass 1's coefficients: with the shared
	// hierarchy those loads hit L2 lines pass 1 wrote.
	app, err := kernels.AppByName("srad_app")
	if err != nil {
		t.Fatal(err)
	}
	_, hier, err := runApp(app, experiments.SchemeBaseline, nil)
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
	if _, _, err := runApp(kernels.Application{Name: "empty"}, experiments.SchemeBaseline, nil); err == nil {
		t.Fatal("empty app accepted")
	}
}

// TestAppMatchesBareLoop: an application through the one loop — each
// kernel a chip of one handed the standing hierarchy — is the loop as it
// read before every launch was a chip (bare.Run): a bare sim.New per
// kernel over one mem.New and one functional memory.
func TestAppMatchesBareLoop(t *testing.T) {
	for _, app := range kernels.Apps() {
		for _, scheme := range referenceSchemes {
			want, hier := exec.NewMemory(nil), mem.New(mem.DefaultConfig())
			ref, err := bare.Run(string(scheme), 512, app.Kernels, 8, 8, want, hier)
			if err != nil {
				t.Fatal(err)
			}
			mm := exec.NewMemory(nil)
			res, stats, err := runApp(app, scheme, mm)
			if err != nil {
				t.Fatal(err)
			}
			where := app.Name + "/" + string(scheme)
			sameSequence(t, where, res, ref, mm, want)
			if stats != hier.Stats {
				t.Errorf("%s: hierarchy statistics diverge:\nchip %+v\nbare %+v", where, stats, hier.Stats)
			}
		}
	}
}
