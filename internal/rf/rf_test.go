package rf

import (
	"maps"
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sim"
)

func testCfg() sim.Config {
	c := sim.DefaultConfig()
	c.Warps = 16
	c.MaxCycles = 5_000_000
	return c
}

// runProvider simulates k under p and checks architectural equivalence
// with the functional reference.
func runProvider(t *testing.T, k *isa.Kernel, cfgv sim.Config, p sim.Provider) *sim.Stats {
	t.Helper()
	mm := exec.NewMemory(nil)
	smv, err := sim.New(nil, cfgv, k, p, mm, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := smv.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exec.Run(k, cfgv.Warps, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := mm.GlobalStores(); !maps.Equal(got, ref.Stores) {
		t.Fatalf("%s: %d stored words differ from the functional run's %d", p.Name(), len(got), len(ref.Stores))
	}
	return st
}

func TestBaselineAllBenchmarks(t *testing.T) {
	for _, bm := range kernels.Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			k := kernels.MustLoad(bm.Name)
			st := runProvider(t, k, testCfg(), NewBaseline(nil))
			if st.IPC() <= 0 {
				t.Fatalf("IPC = %v", st.IPC())
			}
		})
	}
}

func TestBaselineCountsAccesses(t *testing.T) {
	k := kernels.MustLoad("streamcluster")
	p := NewBaseline(nil)
	st := runProvider(t, k, testCfg(), p)
	ps := p.st
	if ps.StructReads == 0 || ps.StructWrites == 0 {
		t.Fatalf("no RF accesses counted: %+v", ps)
	}
	if ps.BackingAccesses != ps.StructReads+ps.StructWrites {
		t.Fatal("baseline backing accesses must equal RF accesses")
	}
	if ps.StructReads+ps.StructWrites < st.DynInsns {
		t.Fatalf("implausibly few RF accesses (%d) for %d instructions",
			ps.StructReads+ps.StructWrites, st.DynInsns)
	}
}

func TestRFVEquivalenceAndRelease(t *testing.T) {
	for _, name := range []string{"bfs", "lud", "hotspot", "hybridsort"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k := kernels.MustLoad(name)
			// Generous pool: no stalls expected, but mapping/release
			// must still work.
			p := NewRFV(nil, 1024)
			runProvider(t, k, testCfg(), p)
			if p.LiveMapped() != 0 {
				t.Fatalf("%d physical registers leaked", p.LiveMapped())
			}
			if p.st.StructReads == 0 {
				t.Fatal("no reads counted")
			}
		})
	}
}

func TestRFVPressureSpills(t *testing.T) {
	// dwt2d holds many registers live; a tiny physical pool must spill
	// and slow the run down versus a large pool.
	k := kernels.MustLoad("dwt2d")
	cfgv := testCfg()
	big := NewRFV(nil, 2048)
	stBig := runProvider(t, k, cfgv, big)
	small := NewRFV(nil, k.NumRegs+8)
	stSmall := runProvider(t, k, cfgv, small)
	if small.Spills() == 0 {
		t.Fatal("tiny pool produced no spills")
	}
	if stSmall.Cycles <= stBig.Cycles {
		t.Fatalf("register pressure had no cost: %d vs %d cycles", stSmall.Cycles, stBig.Cycles)
	}
}

func TestRFHLevelSplit(t *testing.T) {
	// Aggregate over a mixed subset: the hierarchy's premise is that
	// the small structures capture most reads on typical kernels, with
	// some MRF traffic remaining.
	var lrf, orf, mrf, backing uint64
	for _, name := range []string{"lud", "streamcluster", "hotspot", "backprop", "myocyte"} {
		k := kernels.MustLoad(name)
		cfgv := testCfg()
		cfgv.Sched = sim.SchedTwoLevel
		p := NewRFH(nil, 4)
		runProvider(t, k, cfgv, p)
		ps := p.st
		lrf += ps.LRFAccesses
		orf += ps.ORFAccesses
		mrf += ps.MRFAccesses
		backing += ps.BackingAccesses
	}
	total := lrf + orf + mrf
	if total == 0 {
		t.Fatal("no classified accesses")
	}
	if mrf == 0 || backing == 0 {
		t.Fatal("no MRF/backing traffic — hierarchy model degenerate")
	}
	if float64(mrf)/float64(total) > 0.6 {
		t.Fatalf("MRF serves %d/%d accesses — hierarchy ineffective", mrf, total)
	}
}

func TestRFHBackingBelowBaseline(t *testing.T) {
	// Figure 3's ordering: RFH makes far fewer backing-store accesses
	// than the baseline on hotspot.
	k := kernels.MustLoad("hotspot")
	base := NewBaseline(nil)
	runProvider(t, k, testCfg(), base)
	cfgv := testCfg()
	cfgv.Sched = sim.SchedTwoLevel
	hier := NewRFH(nil, 8)
	runProvider(t, k, cfgv, hier)
	if hier.st.BackingAccesses*2 >= base.st.BackingAccesses {
		t.Fatalf("RFH backing %d not well below baseline %d",
			hier.st.BackingAccesses, base.st.BackingAccesses)
	}
}

// TestRFVVictimOrderPinned holds the victim FIFO to the values the
// append-and-reslice queue it replaced produced: a pool of four warps'
// worth of registers under 16 warps spills on every suite kernel, and
// which mapping each spill takes — stale entries of released mappings
// included — decides every number here.
func TestRFVVictimOrderPinned(t *testing.T) {
	pins := []struct {
		bench                                       string
		cycles, evictions, backing, spills, refills uint64
	}{
		{"b+tree", 5685, 760, 1505, 760, 745},
		{"backprop", 4820, 695, 1381, 695, 686},
		{"bfs", 7316, 1019, 2038, 1019, 1019},
		{"dwt2d", 5905, 1270, 2540, 1270, 1270},
		{"gaussian", 3631, 503, 1003, 503, 500},
		{"heartwall", 3939, 672, 1344, 672, 672},
		{"hotspot", 2754, 485, 954, 485, 469},
		{"hybridsort", 5082, 799, 1474, 799, 675},
		{"kmeans", 5686, 1344, 2671, 1344, 1327},
		{"lavaMD", 13016, 3255, 6369, 3255, 3114},
		{"leukocyte", 2769, 304, 608, 304, 304},
		{"lud", 4171, 637, 1274, 637, 637},
		{"mummergpu", 11979, 901, 1802, 901, 901},
		{"myocyte", 4660, 1026, 2052, 1026, 1026},
		{"nn", 837, 75, 150, 75, 75},
		{"nw", 4248, 762, 1516, 762, 754},
		{"particle_filter", 5621, 914, 1828, 914, 914},
		{"pathfinder", 4177, 728, 1440, 728, 712},
		{"srad_v1", 2638, 324, 638, 324, 314},
		{"srad_v2", 2506, 268, 535, 268, 267},
		{"streamcluster", 4820, 673, 1346, 673, 673},
	}
	if len(pins) != len(kernels.Suite()) {
		t.Fatalf("%d pins for %d suite kernels", len(pins), len(kernels.Suite()))
	}
	for _, pin := range pins {
		k := kernels.MustLoad(pin.bench)
		cfgv := testCfg()
		cfgv.Sched = sim.SchedTwoLevel
		p := NewRFV(nil, 4*k.NumRegs)
		// Not runProvider: hybridsort's stored words move with timing this
		// far from the suite's configuration (every thread stores to one of
		// four bucket words, last writer wins), which is no business of
		// the queue.
		smv, err := sim.New(nil, cfgv, k, p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := smv.Run()
		if err != nil {
			t.Fatalf("%s: %v", pin.bench, err)
		}
		ps := p.st
		got := [5]uint64{st.Cycles, ps.Evictions, ps.BackingAccesses, p.spills, p.refills}
		want := [5]uint64{pin.cycles, pin.evictions, pin.backing, pin.spills, pin.refills}
		if got != want {
			t.Errorf("%s: cycles/evictions/backing/spills/refills %v, pinned %v", pin.bench, got, want)
		}
	}
}

// TestRFVFIFOSteadyStateAllocatesNothing drives the ring the way a pool
// under pressure does — one pop, one push — far past its length.
func TestRFVFIFOSteadyStateAllocatesNothing(t *testing.T) {
	var q victimFIFO
	for i := 0; i < 300; i++ { // past one doubling, head off zero
		q.push(rfvEntry{warp: uint16(i)})
	}
	for i := 0; i < 100; i++ {
		q.pop()
	}
	next := uint16(100)
	if avg := testing.AllocsPerRun(10_000, func() {
		if e := q.pop(); e.warp != next {
			t.Fatalf("popped warp %d, want %d", e.warp, next)
		}
		next = (next + 1) % 300
		q.push(rfvEntry{warp: uint16((int(next) + 199) % 300)})
	}); avg != 0 {
		t.Fatalf("steady-state pop+push allocates %.2f times", avg)
	}
}
