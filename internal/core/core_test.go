package core

import (
	"maps"
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sim"
)

func testSimCfg() sim.Config {
	c := sim.DefaultConfig()
	c.Warps = 16
	c.MaxCycles = 8_000_000
	return c
}

// runRegLess simulates k under RegLess and checks architectural
// equivalence with the functional reference plus structural invariants.
func runRegLess(t *testing.T, k *isa.Kernel, simCfg sim.Config, cfg Config) (*sim.Stats, *Provider) {
	t.Helper()
	p, err := New(nil, cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	mm := exec.NewMemory(nil)
	smv, err := sim.New(nil, simCfg, k, p, mm, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := smv.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("invariants after run: %v", err)
	}
	ref, err := exec.Run(k, simCfg.Warps, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := mm.GlobalStores(); !maps.Equal(got, ref.Stores) {
		t.Fatalf("RegLess changed behaviour: %d stored words, functional %d", len(got), len(ref.Stores))
	}
	return st, p
}

func TestRegLessAllBenchmarks(t *testing.T) {
	for _, bm := range kernels.Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			k := kernels.MustLoad(bm.Name)
			st, p := runRegLess(t, k, testSimCfg(), DefaultConfig())
			ps := p.st
			if st.DynInsns == 0 {
				t.Fatal("nothing executed")
			}
			if ps.RegionActivations == 0 {
				t.Fatal("no regions activated")
			}
			if ps.Preloads() == 0 && len(p.Compiled().CrossRegs.Members()) > 0 {
				t.Fatal("cross-region registers exist but nothing was preloaded")
			}
			if ps.StructReads == 0 || ps.StructWrites == 0 {
				t.Fatalf("no OSU accesses: %+v", ps)
			}
		})
	}
}

func TestRegLessSmallCapacity(t *testing.T) {
	// The 128-register configuration must still be functionally
	// transparent, just slower.
	for _, name := range []string{"dwt2d", "myocyte", "lud", "bfs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k := kernels.MustLoad(name)
			cfg := ConfigForCapacity(128)
			runRegLess(t, k, testSimCfg(), cfg)
		})
	}
}

func TestRegLessPreloadsMostlyHitOSU(t *testing.T) {
	// Paper Figure 17: on average only ~0.9% of preloads reach the L1
	// and ~0.013% reach L2/DRAM. Check the strong form on a small-
	// working-set kernel and a weak form overall.
	k := kernels.MustLoad("nw")
	_, p := runRegLess(t, k, testSimCfg(), DefaultConfig())
	ps := p.st
	total := ps.Preloads()
	if total == 0 {
		t.Fatal("no preloads")
	}
	deep := ps.PreloadFromL1 + ps.PreloadFromL2DRAM
	if float64(deep)/float64(total) > 0.10 {
		t.Fatalf("nw: %d/%d preloads reached the memory system", deep, total)
	}
}

func TestRegLessCompressorReducesL1Traffic(t *testing.T) {
	// With the compressor off, every dirty eviction is a full-line L1
	// store; with it on, compressible values coalesce 15-to-a-line.
	k := kernels.MustLoad("hotspot")
	cfg := ConfigForCapacity(256) // small enough to force evictions
	on, pOn := runRegLess(t, k, testSimCfg(), cfg)
	cfgOff := cfg
	cfgOff.EnableCompressor = false
	off, pOff := runRegLess(t, k, testSimCfg(), cfgOff)
	_ = on
	_ = off
	if pOn.st.Evictions == 0 {
		t.Skip("no evictions at this capacity; nothing to compare")
	}
	if pOn.st.CompressorHits == 0 {
		t.Fatal("compressor never matched on hotspot's address-heavy registers")
	}
	if pOn.st.L1StoreWrites >= pOff.st.L1StoreWrites && pOff.st.L1StoreWrites > 0 {
		t.Fatalf("compressor did not reduce L1 stores: %d (on) vs %d (off)",
			pOn.st.L1StoreWrites, pOff.st.L1StoreWrites)
	}
}

func TestRegLessRegionStatsPlausible(t *testing.T) {
	k := kernels.MustLoad("lud")
	st, p := runRegLess(t, k, testSimCfg(), DefaultConfig())
	ps := p.st
	if ps.RegionActivations == 0 || ps.RegionCycles == 0 {
		t.Fatalf("region stats empty: %+v", ps)
	}
	avg := float64(ps.RegionCycles) / float64(ps.RegionActivations)
	if avg <= 0 || avg > float64(st.Cycles) {
		t.Fatalf("implausible cycles/region %v", avg)
	}
}

func TestRegLessInvalidatingReads(t *testing.T) {
	// Any suite kernel with loops produces invalidating preloads; after
	// the run, dead values must not linger compressed.
	k := kernels.MustLoad("streamcluster")
	_, p := runRegLess(t, k, testSimCfg(), DefaultConfig())
	hasInv := false
	for _, r := range p.Compiled().Regions {
		for _, pl := range r.Preloads {
			if pl.Invalidate {
				hasInv = true
			}
		}
	}
	if !hasInv {
		t.Fatal("compiler emitted no invalidating reads for a loopy kernel")
	}
}

func TestRegLessMetadataChargesIssueSlots(t *testing.T) {
	k := kernels.MustLoad("bfs") // many small regions -> high metadata rate
	cfg := DefaultConfig()
	with, pWith := runRegLess(t, k, testSimCfg(), cfg)
	cfg.MetadataOverhead = false
	without, pWithout := runRegLess(t, k, testSimCfg(), cfg)
	if pWith.st.MetaInsns == 0 {
		t.Fatal("no metadata instructions charged")
	}
	if pWithout.st.MetaInsns != 0 {
		t.Fatal("metadata charged while disabled")
	}
	if with.Cycles < without.Cycles {
		t.Fatalf("metadata overhead made the run faster: %d vs %d", with.Cycles, without.Cycles)
	}
}

func TestConfigForCapacity(t *testing.T) {
	for _, c := range []int{128, 192, 256, 384, 512, 1024, 2048} {
		cfg := ConfigForCapacity(c)
		got := cfg.CapacityRegisters()
		// 192 and 384 don't divide evenly into 32 banks; allow rounding
		// down.
		if got > c || got < c*3/4 {
			t.Fatalf("capacity %d -> %d registers", c, got)
		}
		if cfg.Regions.BankLines != cfg.LinesPerBank {
			t.Fatalf("capacity %d: compiler bank lines %d != hardware %d",
				c, cfg.Regions.BankLines, cfg.LinesPerBank)
		}
	}
}

func TestProviderRejectsOversizedRegion(t *testing.T) {
	// A kernel whose single-instruction regions exceed one line per bank
	// cannot run on a degenerate OSU; New must refuse, not deadlock.
	b := isa.NewBuilder("wide", 1)
	// Force >1 concurrent regs in one bank within one region.
	var rs []isa.Reg
	for i := 0; i < 4; i++ {
		rs = append(rs, b.Movi(uint32(i)))
	}
	acc := b.Movi(0)
	for _, r := range rs {
		b.Op2To(isa.OpIADD, acc, acc, r)
	}
	b.Stg(acc, acc, 0)
	b.Exit()
	k := b.MustKernel()
	cfg := DefaultConfig()
	cfg.LinesPerBank = 0 // degenerate
	if _, err := New(nil, cfg, k); err == nil {
		t.Fatal("New accepted a region larger than a bank")
	}
}

func TestDynamicRegionStats(t *testing.T) {
	k := kernels.MustLoad("lud")
	_, p := runRegLess(t, k, testSimCfg(), DefaultConfig())
	insns, preloads, meanLive, stdLive := p.Compiled().DynamicStats(p.RegionActivations())
	if insns <= 0 || meanLive <= 0 {
		t.Fatalf("degenerate dynamic stats: %v %v %v %v", insns, preloads, meanLive, stdLive)
	}
	// Dynamic weighting must favour the loop body's large region over the
	// tiny prologue/epilogue ones: dynamic insns/region >= static average
	// for lud (its big region repeats).
	static := p.Compiled().Summarize()
	if insns < static.AvgInsns {
		t.Fatalf("dynamic insns/region %.1f below static %.1f for loop-dominated lud",
			insns, static.AvgInsns)
	}
	// Total activations recorded must match the provider counter.
	if p.st.RegionActivations == 0 {
		t.Fatal("no activations")
	}
}

// TestOSUTagStatsPinned pins the OSU's tag-array event counts — tag
// lookups, preload hits, installs, summed over the four shards — on the
// 21 kernels at the default configuration. The energy model charges
// these events, so however a lookup is carried out (the tag index is one
// load where a bank walk used to be) the events counted must not move.
// The values were read off the bank-walk implementation.
func TestOSUTagStatsPinned(t *testing.T) {
	want := map[string][3]uint64{
		"b+tree":          {816, 832, 464},
		"backprop":        {848, 880, 496},
		"bfs":             {1196, 1182, 970},
		"dwt2d":           {560, 528, 992},
		"gaussian":        {624, 576, 336},
		"heartwall":       {1504, 1600, 480},
		"hotspot":         {640, 608, 512},
		"hybridsort":      {2384, 2720, 784},
		"kmeans":          {560, 592, 432},
		"lavaMD":          {2960, 3184, 2096},
		"leukocyte":       {368, 400, 288},
		"lud":             {416, 384, 288},
		"mummergpu":       {1104, 1056, 1120},
		"myocyte":         {80, 80, 384},
		"nn":              {80, 80, 96},
		"nw":              {976, 976, 768},
		"particle_filter": {736, 704, 1152},
		"pathfinder":      {800, 832, 448},
		"srad_v1":         {464, 432, 272},
		"srad_v2":         {624, 576, 352},
		"streamcluster":   {816, 816, 464},
	}
	for _, bm := range kernels.Suite() {
		_, p := runRegLess(t, kernels.MustLoad(bm.Name), testSimCfg(), DefaultConfig())
		var got [3]uint64
		for _, sh := range p.shards {
			got[0] += sh.osu.Stats.TagLookups
			got[1] += sh.osu.Stats.Hits
			got[2] += sh.osu.Stats.Installs
		}
		if got != want[bm.Name] {
			t.Errorf("%s: tag lookups, hits, installs = %v, want %v", bm.Name, got, want[bm.Name])
		}
	}
	if len(want) != len(kernels.Suite()) {
		t.Errorf("%d kernels pinned, suite has %d", len(want), len(kernels.Suite()))
	}
}

// memoWiper is a Provider whose does-not-fit memo is wiped at every entry
// point the SM calls that reads or leads to a read of it.
type memoWiper struct{ *Provider }

func (m memoWiper) wipe() {
	for _, sh := range m.shards {
		sh.noFit = 0
	}
}

func (m memoWiper) Tick()          { m.wipe(); m.Provider.Tick() }
func (m memoWiper) TickIdle() bool { m.wipe(); return m.Provider.TickIdle() }
func (m memoWiper) OnIssue(w *sim.Warp, info *exec.StepInfo) int {
	m.wipe()
	return m.Provider.OnIssue(w, info)
}
func (m memoWiper) OnWriteback(w *sim.Warp, reg isa.Reg) { m.wipe(); m.Provider.OnWriteback(w, reg) }
func (m memoWiper) OnWarpFinish(w *sim.Warp)             { m.wipe(); m.Provider.OnWarpFinish(w) }

// TestActivationMemoIsInvisible: tryActivate and TickIdle remember that a
// shard's stack top does not fit until the CM's epoch moves. A machine
// whose memo is wiped before every consult re-derives the verdict each
// time, as the code did before the memo existed; it must reach the same
// cycle with the same statistics — a stale memo (an epoch bump missing
// where a reservation or the stack is written) delays an activation and
// shows here. Both machines run the ordinary cycle loop.
func TestActivationMemoIsInvisible(t *testing.T) {
	for _, bench := range []string{"bfs", "hotspot", "lud", "nw", "streamcluster"} {
		for _, capacity := range []int{128, 512} {
			run := func(wipe bool) (sim.Stats, sim.ProviderStats) {
				k := kernels.MustLoad(bench)
				p, err := New(nil, ConfigForCapacity(capacity), k)
				if err != nil {
					t.Fatal(err)
				}
				var prov sim.Provider = p
				if wipe {
					prov = memoWiper{p}
				}
				simCfg := testSimCfg()
				simCfg.Warps = 64 // enough warps that regions queue for capacity
				smv, err := sim.New(nil, simCfg, k, prov, exec.NewMemory(nil), nil)
				if err != nil {
					t.Fatal(err)
				}
				st, err := smv.Run()
				if err != nil {
					t.Fatal(err)
				}
				return *st, *p.st
			}
			st, ps := run(false)
			wst, wps := run(true)
			st.BackingSeries, wst.BackingSeries = nil, nil
			if st.Cycles != wst.Cycles || st.IssueStalls != wst.IssueStalls || st.FFSkippedCycles != wst.FFSkippedCycles {
				t.Errorf("%s@%d: memo changed the run: cycles %d/%d, issue stalls %d/%d, skipped %d/%d",
					bench, capacity, st.Cycles, wst.Cycles, st.IssueStalls, wst.IssueStalls,
					st.FFSkippedCycles, wst.FFSkippedCycles)
			}
			if ps != wps {
				t.Errorf("%s@%d: memo changed the provider's statistics:\n%+v\n%+v", bench, capacity, ps, wps)
			}
		}
	}
}
