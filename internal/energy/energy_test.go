package energy_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/rf"
	"repro/internal/sim"
)

func simCfg() sim.Config {
	c := sim.DefaultConfig()
	c.Warps = 16
	c.MaxCycles = 8_000_000
	return c
}

func runBaseline(t *testing.T, name string) energy.Activity {
	t.Helper()
	k := kernels.MustLoad(name)
	p := rf.NewBaseline(nil)
	smv, err := sim.New(nil, simCfg(), k, p, exec.NewMemory(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := smv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return energy.Activity{Sim: st, Prov: &smv.Prov, Mem: &smv.Mem.Stats}
}

// Calibration: across a representative subset, the baseline register file
// must account for roughly the paper's no-RF bound (16.7%) of GPU energy.
func TestCalibrationRFShare(t *testing.T) {
	p := energy.DefaultParams()
	var rfE, total float64
	for _, name := range []string{"bfs", "hotspot", "lud", "kmeans", "srad_v1", "backprop", "myocyte", "streamcluster"} {
		a := runBaseline(t, name)
		b := energy.Compute(p, energy.Scheme{Kind: energy.KindBaseline, Entries: 2048}, a)
		rfE += b.RFTotal
		total += b.Total
	}
	share := rfE / total
	if share < 0.12 || share > 0.22 {
		t.Fatalf("baseline RF share = %.3f, want ~0.167 (±0.05)", share)
	}
	t.Logf("baseline RF share of GPU energy: %.3f (paper bound: 0.167)", share)
}

func TestSchemeOrderingOnFixedActivity(t *testing.T) {
	p := energy.DefaultParams()
	a := energy.Activity{
		Sim: &sim.Stats{Cycles: 100_000, DynInsns: 150_000},
		Prov: &sim.ProviderStats{
			StructReads:  250_000,
			StructWrites: 130_000,
			TagLookups:   20_000,
			LRFAccesses:  100_000,
			ORFAccesses:  200_000,
			MRFAccesses:  80_000,
		},
		Mem: &mem.Stats{L1Reads: 2_000, L2Hits: 10_000, DRAMAccesses: 3_000},
	}
	base := energy.Compute(p, energy.Scheme{Kind: energy.KindBaseline, Entries: 2048}, a)
	rfv := energy.Compute(p, energy.Scheme{Kind: energy.KindRFV, Entries: 1024}, a)
	regless := energy.Compute(p, energy.Scheme{Kind: energy.KindRegLess, Entries: 512, Compressor: true}, a)
	norf := energy.Compute(p, energy.Scheme{Kind: energy.KindNoRF}, a)

	if !(norf.RFTotal == 0 && norf.Total < regless.Total) {
		t.Fatal("NoRF bound not minimal")
	}
	if !(regless.RFTotal < rfv.RFTotal && rfv.RFTotal < base.RFTotal) {
		t.Fatalf("RF energy ordering wrong: regless %.0f, rfv %.0f, base %.0f",
			regless.RFTotal, rfv.RFTotal, base.RFTotal)
	}
	// RegLess RF energy must be roughly a quarter of baseline (the
	// paper's 75.3% saving).
	ratio := regless.RFTotal / base.RFTotal
	if ratio > 0.45 || ratio < 0.10 {
		t.Fatalf("RegLess/baseline RF energy = %.2f, want ~0.25", ratio)
	}
	// Rest-of-GPU components identical across schemes for identical
	// activity.
	if base.InsnEnergy != rfv.InsnEnergy || base.MemEnergy != regless.MemEnergy {
		t.Fatal("non-RF energy differs on identical activity")
	}
}

// freeCounters are the tagged counters no scheme prices: they describe a
// run (what issued, where a preload came from, what was refused) but are
// no event the model charges energy for. A new counter is priced in
// Compute or named here.
var freeCounters = []string{
	"sim.Stats.IssueStalls", "sim.Stats.ALUOps", "sim.Stats.FMAOps",
	"sim.Stats.SFUOps", "sim.Stats.GlobalLoads", "sim.Stats.GlobalStores",
	"sim.Stats.SharedOps", "sim.Stats.Branches", "sim.Stats.Barriers",
	"sim.Stats.MemLines", "sim.Stats.ActiveLanes",

	"sim.ProviderStats.BankConflicts", "sim.ProviderStats.BackingAccesses",
	"sim.ProviderStats.PreloadFromOSU", "sim.ProviderStats.PreloadFromCompressor",
	"sim.ProviderStats.PreloadFromL1", "sim.ProviderStats.PreloadFromL2DRAM",
	"sim.ProviderStats.Evictions", "sim.ProviderStats.CacheInvalidations",
	"sim.ProviderStats.StallCycles", "sim.ProviderStats.L1PreloadReads",
	"sim.ProviderStats.L1StoreWrites", "sim.ProviderStats.L1Invalidates",
	"sim.ProviderStats.RegionActivations", "sim.ProviderStats.RegionCycles",

	"mem.Stats.L1Hits", "mem.Stats.L1Misses", "mem.Stats.L1Writebacks",
	"mem.Stats.DataReads", "mem.Stats.DataWrites", "mem.Stats.L1PortRejects",
	"mem.Stats.MSHRRejects", "mem.Stats.DataRejects",
}

// TestEveryCounterPricedOrFree sets one counter of the three statistics
// structs at a time and prices it under every scheme. A tagged counter is
// priced or in freeCounters, never both; an untagged one other than
// Cycles (the fast-forward and fault tallies) is never priced, so energy
// depends only on what a metrics window carries.
func TestEveryCounterPricedOrFree(t *testing.T) {
	p := energy.DefaultParams()
	schemes := []energy.Scheme{
		{Kind: energy.KindBaseline, Entries: 2048},
		{Kind: energy.KindRFV, Entries: 1024},
		{Kind: energy.KindRFH, Entries: 2048},
		{Kind: energy.KindRegLess, Entries: 512, Compressor: true},
		{Kind: energy.KindRegLess, Entries: 512},
		{Kind: energy.KindNoRF},
	}
	// Each owner points at one of a's three pointers, so a field set
	// through it after reset is the only non-zero counter a holds.
	var a energy.Activity
	owners := []any{&a.Sim, &a.Prov, &a.Mem}
	reset := func() { a = energy.Activity{Sim: &sim.Stats{}, Prov: &sim.ProviderStats{}, Mem: &mem.Stats{}} }
	seen := map[string]bool{}
	for _, ptr := range owners {
		typ := reflect.TypeOf(ptr).Elem().Elem()
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() || f.Type.Kind() != reflect.Uint64 {
				continue
			}
			name := typ.String() + "." + f.Name
			reset()
			reflect.ValueOf(ptr).Elem().Elem().Field(i).SetUint(1000)
			priced := false
			for _, s := range schemes {
				if energy.Compute(p, s, a) != (energy.Breakdown{}) {
					priced = true
				}
			}
			tagged, free := f.Tag.Get("metric") != "", slices.Contains(freeCounters, name)
			seen[name] = true
			switch {
			case name == "sim.Stats.Cycles":
				if !priced {
					t.Errorf("%s is not priced", name)
				}
			case !tagged:
				if priced {
					t.Errorf("%s is priced but no metrics window carries it", name)
				}
			case priced == free:
				t.Errorf("%s: priced %v, listed free %v", name, priced, free)
			}
		}
	}
	for _, name := range freeCounters {
		if !seen[name] {
			t.Errorf("free counter %s is no uint64 field of the three structs", name)
		}
	}
}

func TestAreaModel(t *testing.T) {
	base := energy.Area(energy.Scheme{Kind: energy.KindBaseline, Entries: 2048}, 2048)
	if got := base.Total(); got < 0.99 || got > 1.01 {
		t.Fatalf("baseline area = %v, want 1.0", got)
	}
	rl := energy.Area(energy.Scheme{Kind: energy.KindRegLess, Entries: 512, Compressor: true}, 2048)
	if rl.Total() < 0.2 || rl.Total() > 0.45 {
		t.Fatalf("RegLess-512 area = %v, want ~0.25-0.4 of baseline", rl.Total())
	}
	if rl.Compressor <= 0 {
		t.Fatal("compressor area missing")
	}
	// Monotone in capacity.
	prev := 0.0
	for _, n := range []int{128, 192, 256, 384, 512, 1024, 2048} {
		a := energy.Area(energy.Scheme{Kind: energy.KindRegLess, Entries: n, Compressor: true}, 2048).Total()
		if a <= prev {
			t.Fatalf("area not monotone at %d entries", n)
		}
		prev = a
	}
}

func TestPowerModel(t *testing.T) {
	p := energy.DefaultParams()
	prev := 0.0
	for _, n := range []int{128, 256, 512, 1024, 2048} {
		pw := energy.Power(p, energy.Scheme{Kind: energy.KindRegLess, Entries: n, Compressor: true}, 3.0)
		if pw <= prev {
			t.Fatalf("power not monotone at %d entries", n)
		}
		prev = pw
	}
	// A full-capacity RegLess costs slightly more than the baseline RF
	// (tag overhead), matching §6.2.
	full := energy.Power(p, energy.Scheme{Kind: energy.KindRegLess, Entries: 2048, Compressor: true}, 3.0)
	if full <= 1.0 || full > 1.3 {
		t.Fatalf("full-size RegLess power = %.2f, want slightly above 1.0", full)
	}
}

// End-to-end: RegLess total GPU energy on a real run lands well below the
// baseline on the same kernel, and above the NoRF bound.
func TestGPUEnergySavingsEndToEnd(t *testing.T) {
	params := energy.DefaultParams()
	name := "hotspot"
	aBase := runBaseline(t, name)
	bBase := energy.Compute(params, energy.Scheme{Kind: energy.KindBaseline, Entries: 2048}, aBase)
	bNoRF := energy.Compute(params, energy.Scheme{Kind: energy.KindNoRF}, aBase)

	k := kernels.MustLoad(name)
	p, err := core.New(nil, core.DefaultConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	smv, err := sim.New(nil, simCfg(), k, p, exec.NewMemory(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := smv.Run()
	if err != nil {
		t.Fatal(err)
	}
	aRL := energy.Activity{Sim: st, Prov: &smv.Prov, Mem: &smv.Mem.Stats}
	bRL := energy.Compute(params, energy.Scheme{Kind: energy.KindRegLess, Entries: 512, Compressor: true}, aRL)

	if !(bNoRF.Total < bRL.Total && bRL.Total < bBase.Total) {
		t.Fatalf("ordering violated: noRF %.0f, regless %.0f, base %.0f",
			bNoRF.Total, bRL.Total, bBase.Total)
	}
	saving := 1 - bRL.Total/bBase.Total
	bound := 1 - bNoRF.Total/bBase.Total
	t.Logf("%s: GPU energy saving %.1f%% (upper bound %.1f%%)", name, 100*saving, 100*bound)
	if saving < 0.03 {
		t.Fatalf("GPU saving %.3f too small", saving)
	}
}
