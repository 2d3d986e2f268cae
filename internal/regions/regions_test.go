package regions

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/isa"
	"repro/internal/regalloc"
)

func compile(t *testing.T, k *isa.Kernel, cfg Config) *Compiled {
	t.Helper()
	c, err := Compile(k, cfg)
	if err != nil {
		t.Fatalf("Compile(%s): %v", k.Name, err)
	}
	return c
}

func smallCfg() Config {
	return Config{MaxRegsPerRegion: 6, BankLines: 4, MinRegionInsns: 3}
}

// checkInvariants asserts the structural properties every compilation must
// satisfy, whatever the kernel.
func checkInvariants(t *testing.T, c *Compiled) {
	t.Helper()
	covered := make([]int, c.G.NumInsns())
	for i := range covered {
		covered[i] = -1
	}
	for _, r := range c.Regions {
		if r.NumInsns() <= 0 {
			t.Fatalf("region %d empty", r.ID)
		}
		if r.NumInsns() > 1 {
			if r.MaxLive > c.Cfg.MaxRegsPerRegion {
				t.Fatalf("region %d MaxLive %d > cap %d", r.ID, r.MaxLive, c.Cfg.MaxRegsPerRegion)
			}
			for b, u := range r.BankUsage {
				if u > c.Cfg.BankLines {
					t.Fatalf("region %d bank %d usage %d > %d", r.ID, b, u, c.Cfg.BankLines)
				}
			}
			if c.containsLoadUse(r.Block, r.Start, r.End) {
				t.Fatalf("region %d contains global load and its use", r.ID)
			}
		}
		for gi := r.StartGI; gi < r.EndGI; gi++ {
			if covered[gi] != -1 {
				t.Fatalf("instruction %d in two regions", gi)
			}
			covered[gi] = r.ID
			if c.RegionOf[gi] != r.ID {
				t.Fatalf("RegionOf[%d] = %d, want %d", gi, c.RegionOf[gi], r.ID)
			}
		}
		// Every input must be preloaded exactly once.
		pl := map[isa.Reg]int{}
		for _, p := range r.Preloads {
			pl[p.Reg]++
		}
		for _, in := range r.Inputs {
			if pl[in] != 1 {
				t.Fatalf("region %d: input %v preloaded %d times", r.ID, in, pl[in])
			}
		}
		if len(pl) != len(r.Inputs) {
			t.Fatalf("region %d: %d preloads for %d inputs", r.ID, len(pl), len(r.Inputs))
		}
		// Erase/evict flags must sit inside the region and cover every
		// touched register exactly once.
		flagged := map[isa.Reg]int{}
		for gi, regs := range r.EraseAt {
			if gi < r.StartGI || gi >= r.EndGI {
				t.Fatalf("region %d erase flag at %d outside [%d,%d)", r.ID, gi, r.StartGI, r.EndGI)
			}
			for _, reg := range regs {
				flagged[reg]++
			}
		}
		for gi, regs := range r.EvictAt {
			if gi < r.StartGI || gi >= r.EndGI {
				t.Fatalf("region %d evict flag at %d outside region", r.ID, gi)
			}
			for _, reg := range regs {
				flagged[reg]++
			}
		}
		touched := len(r.Inputs) + len(r.Interior) + len(r.Outputs)
		// Input+output registers are listed in both slices.
		dup := 0
		seen := map[isa.Reg]bool{}
		for _, x := range r.Inputs {
			seen[x] = true
		}
		for _, x := range r.Outputs {
			if seen[x] {
				dup++
			}
		}
		if got := touched - dup; len(flagged) != got {
			t.Fatalf("region %d: %d flagged regs, want %d", r.ID, len(flagged), got)
		}
		for reg, n := range flagged {
			if n != 1 {
				t.Fatalf("region %d: reg %v has %d last-use flags", r.ID, reg, n)
			}
		}
	}
	// Every reachable instruction is in exactly one region.
	for _, b := range c.G.RPO {
		blk := c.Kernel.Blocks[b]
		for i := range blk.Insns {
			gi := c.G.GlobalIndex(isa.PC{Block: b, Index: i})
			if covered[gi] == -1 {
				t.Fatalf("instruction %v not covered by any region", isa.PC{Block: b, Index: i})
			}
		}
	}
}

func TestHighPressureBlockSplits(t *testing.T) {
	// Build a block that holds many simultaneously-live values: the
	// compiler must split it to respect MaxRegsPerRegion.
	b := isa.NewBuilder("pressure", 1)
	var vals []isa.Reg
	for i := 0; i < 12; i++ {
		vals = append(vals, b.Movi(uint32(i)))
	}
	acc := b.Movi(0)
	for _, v := range vals {
		b.Op2To(isa.OpIADD, acc, acc, v)
	}
	b.Stg(acc, acc, 0)
	b.Exit()
	k := b.MustKernel()
	alloc, err := regalloc.Allocate(k)
	if err != nil {
		t.Fatal(err)
	}
	c := compile(t, alloc.Kernel, smallCfg())
	if len(c.Regions) < 2 {
		t.Fatalf("high-pressure block not split: %d regions", len(c.Regions))
	}
	checkInvariants(t, c)
}

func TestLoadUseSplit(t *testing.T) {
	// A global load and its use must land in different regions.
	b := isa.NewBuilder("loaduse", 1)
	tid := b.Tid()
	addr := b.Muli(tid, 4)
	v := b.Ldg(addr, 0)
	v2 := b.Addi(v, 1) // first use of the load
	b.Stg(addr, v2, 4096)
	b.Exit()
	k := b.MustKernel()
	c := compile(t, k, DefaultConfig())
	checkInvariants(t, c)
	// Find the load and its use; their regions must differ.
	g := c.G
	var loadGI, useGI int
	for bidx, blk := range k.Blocks {
		for i := range blk.Insns {
			gi := g.GlobalIndex(isa.PC{Block: bidx, Index: i})
			if blk.Insns[i].Op == isa.OpLDG {
				loadGI = gi
			}
			if blk.Insns[i].Op == isa.OpIADDI {
				useGI = gi
			}
		}
	}
	if c.RegionOf[loadGI] == c.RegionOf[useGI] {
		t.Fatal("global load and its first use share a region")
	}
}

func TestCrossRegionValueClassified(t *testing.T) {
	// Force a split; a value produced before the split and consumed
	// after must be an output of the first region and an input of the
	// second, and must appear in CrossRegs.
	b := isa.NewBuilder("cross", 1)
	tid := b.Tid()
	addr := b.Muli(tid, 4)
	v := b.Ldg(addr, 0) // load/use split forces a boundary here
	v2 := b.Addi(v, 7)
	b.Stg(addr, v2, 8192)
	b.Exit()
	k := b.MustKernel()
	c := compile(t, k, DefaultConfig())
	checkInvariants(t, c)

	g := c.G
	var loadDst isa.Reg
	var loadGI int
	for bidx, blk := range k.Blocks {
		for i := range blk.Insns {
			if blk.Insns[i].Op == isa.OpLDG {
				loadDst = blk.Insns[i].Dst
				loadGI = g.GlobalIndex(isa.PC{Block: bidx, Index: i})
			}
		}
	}
	r1 := c.RegionAt(loadGI)
	found := false
	for _, o := range r1.Outputs {
		if o == loadDst {
			found = true
		}
	}
	if !found {
		t.Fatalf("load dst %v not an output of its region (outputs %v)", loadDst, r1.Outputs)
	}
	r2 := c.Regions[r1.ID+1]
	found = false
	for _, in := range r2.Inputs {
		if in == loadDst {
			found = true
		}
	}
	if !found {
		t.Fatalf("load dst %v not an input of the next region (inputs %v)", loadDst, r2.Inputs)
	}
	if !c.CrossRegs.Get(int(loadDst)) {
		t.Fatal("cross-region register missing from CrossRegs")
	}
}

func TestInteriorNeverCross(t *testing.T) {
	b := isa.NewBuilder("interior", 1)
	x := b.Movi(1)
	y := b.Movi(2)
	z := b.Iadd(x, y) // x, y, z all die inside the single region
	b.Stg(z, z, 0)
	b.Exit()
	k := b.MustKernel()
	c := compile(t, k, DefaultConfig())
	checkInvariants(t, c)
	if len(c.Regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(c.Regions))
	}
	r := c.Regions[0]
	if len(r.Inputs) != 0 || len(r.Outputs) != 0 {
		t.Fatalf("inputs %v outputs %v, want none", r.Inputs, r.Outputs)
	}
	if len(r.Interior) != 3 {
		t.Fatalf("interior = %v, want 3 regs", r.Interior)
	}
	if !c.CrossRegs.Empty() {
		t.Fatalf("CrossRegs = %v, want empty", c.CrossRegs)
	}
}

func TestInvalidatingPreload(t *testing.T) {
	// An input whose value dies inside the consuming region must be
	// fetched with an invalidating read.
	b := isa.NewBuilder("invread", 1)
	tid := b.Tid()
	addr := b.Muli(tid, 4)
	v := b.Ldg(addr, 0)
	sum := b.Iadd(v, tid) // v dies here, in the region after the split
	b.Stg(sum, sum, 0)
	b.Exit()
	k := b.MustKernel()
	c := compile(t, k, DefaultConfig())
	checkInvariants(t, c)
	var loadDst isa.Reg
	for _, blk := range k.Blocks {
		for i := range blk.Insns {
			if blk.Insns[i].Op == isa.OpLDG {
				loadDst = blk.Insns[i].Dst
			}
		}
	}
	foundInv := false
	for _, r := range c.Regions {
		for _, p := range r.Preloads {
			if p.Reg == loadDst {
				if !p.Invalidate {
					t.Fatal("dying input preloaded without invalidate flag")
				}
				foundInv = true
			}
		}
	}
	if !foundInv {
		t.Fatal("load destination never preloaded")
	}
}

func TestLoopInductionInvalidation(t *testing.T) {
	// The loop counter dies on the loop-exit edge: a cache invalidation
	// must be placed in the exit block's first region — but only if the
	// counter is a cross-region register. Force crossing with a
	// load-use split inside the loop.
	b := isa.NewBuilder("loopinv", 1)
	tid := b.Tid()
	i := b.Addi(tid, 3)
	acc := b.Movi(0)
	top := b.Label()
	b.Bind(top)
	addr := b.Muli(i, 16)
	v := b.Ldg(addr, 0)
	b.Op2To(isa.OpIADD, acc, acc, v)
	b.OpImmTo(isa.OpIADDI, i, i, ^uint32(0))
	b.Bnz(i, top)
	b.Stg(acc, acc, 0)
	b.Exit()
	k := b.MustKernel()
	alloc, err := regalloc.Allocate(k)
	if err != nil {
		t.Fatal(err)
	}
	c := compile(t, alloc.Kernel, DefaultConfig())
	checkInvariants(t, c)
	iPhys := alloc.Assign[i]
	if !c.CrossRegs.Get(int(iPhys)) {
		t.Skip("induction variable not cross-region in this schedule")
	}
	found := false
	for _, r := range c.Regions {
		for _, reg := range r.CacheInvalidations {
			if reg == iPhys {
				found = true
				// Placement must be outside the loop (block 2+).
				if r.Block < 2 {
					t.Fatalf("invalidation for %v placed inside loop (block %d)", reg, r.Block)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no cache invalidation emitted for loop induction register %v", iPhys)
	}
}

func TestRandomKernelsInvariants(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		alloc, err := regalloc.Allocate(gen.Kernel(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, cfg := range []Config{DefaultConfig(), smallCfg(), {MaxRegsPerRegion: 10, BankLines: 2, MinRegionInsns: 6}} {
			c := compile(t, alloc.Kernel, cfg)
			checkInvariants(t, c)
		}
	}
}

func TestSummarize(t *testing.T) {
	alloc, err := regalloc.Allocate(gen.Kernel(42))
	if err != nil {
		t.Fatal(err)
	}
	c := compile(t, alloc.Kernel, DefaultConfig())
	s := c.Summarize()
	if s.NumRegions != len(c.Regions) {
		t.Fatalf("NumRegions = %d, want %d", s.NumRegions, len(c.Regions))
	}
	if s.AvgInsns <= 0 || s.MeanMaxLive <= 0 {
		t.Fatalf("degenerate summary: %+v", s)
	}
	if s.InteriorFrac < 0 || s.InteriorFrac > 1 {
		t.Fatalf("InteriorFrac out of range: %v", s.InteriorFrac)
	}
}

// TestSplitPointWindow exercises Algorithm 1's FindSplitPoint window
// mechanics directly: the chosen split keeps the first region valid, and
// the boundary separates a global load from its first use when one exists
// in the range.
func TestSplitPointWindow(t *testing.T) {
	b := isa.NewBuilder("window", 1)
	tid := b.Tid()
	addr := b.Muli(tid, 4)
	// Padding so the split window has room before the load.
	p1 := b.Addi(tid, 1)
	p2 := b.Iadd(p1, tid)
	p3 := b.Iadd(p2, p1)
	v := b.Ldg(addr, 0)
	u := b.Iadd(v, p3) // first use of the load
	b.Stg(addr, u, 4096)
	b.Exit()
	k := b.MustKernel()
	c := compile(t, k, DefaultConfig())
	checkInvariants(t, c)
	// Locate the load and its use.
	var loadGI, useGI int
	for bi, blk := range k.Blocks {
		for i := range blk.Insns {
			gi := c.G.GlobalIndex(isa.PC{Block: bi, Index: i})
			if blk.Insns[i].Op == isa.OpLDG {
				loadGI = gi
			}
			if blk.Insns[i].Op == isa.OpIADD && blk.Insns[i].Src[0] == v {
				useGI = gi
			}
		}
	}
	if c.RegionOf[loadGI] == c.RegionOf[useGI] {
		t.Fatal("split did not separate load from first use")
	}
	// The boundary lies in (load, use]: the region containing the use
	// starts after the load.
	r2 := c.RegionAt(useGI)
	if r2.StartGI <= loadGI {
		t.Fatalf("use region starts at %d, not after load at %d", r2.StartGI, loadGI)
	}
}

// TestMinRegionFloor checks the 6-instruction floor (Alg. 1 line 31):
// with the floor, the first region of a long pressured block has at least
// MinRegionInsns instructions; without it, smaller first regions appear.
func TestMinRegionFloor(t *testing.T) {
	build := func() *isa.Kernel {
		b := isa.NewBuilder("floor", 1)
		var vals []isa.Reg
		for i := 0; i < 14; i++ {
			vals = append(vals, b.Movi(uint32(i)))
		}
		acc := b.Movi(0)
		for _, v := range vals {
			b.Op2To(isa.OpIADD, acc, acc, v)
		}
		b.Stg(acc, acc, 0)
		b.Exit()
		return b.MustKernel()
	}
	k := build()
	alloc, err := regalloc.Allocate(k)
	if err != nil {
		t.Fatal(err)
	}
	withFloor := compile(t, alloc.Kernel, Config{MaxRegsPerRegion: 6, BankLines: 4, MinRegionInsns: 6})
	checkInvariants(t, withFloor)
	for _, r := range withFloor.Regions[:1] {
		if r.NumInsns() < 6 && r.EndGI < withFloor.G.NumInsns() {
			t.Fatalf("first region has %d insns despite the floor", r.NumInsns())
		}
	}
	noFloor := compile(t, alloc.Kernel, Config{MaxRegsPerRegion: 6, BankLines: 4, MinRegionInsns: 1})
	checkInvariants(t, noFloor)
	if len(noFloor.Regions) < len(withFloor.Regions) {
		t.Fatalf("floor produced more regions (%d) than no floor (%d)",
			len(withFloor.Regions), len(noFloor.Regions))
	}
}

// TestBarrierEndsRegion checks the barrier rule added for deadlock
// freedom: a BAR is always the last instruction of its region.
func TestBarrierEndsRegion(t *testing.T) {
	b := isa.NewBuilder("barend", 2)
	tid := b.Tid()
	sa := b.Muli(tid, 4)
	b.Sts(sa, tid, 0)
	b.Bar()
	v := b.Lds(sa, 4)
	b.Stg(sa, v, 4096)
	b.Exit()
	k := b.MustKernel()
	c := compile(t, k, DefaultConfig())
	checkInvariants(t, c)
	for _, r := range c.Regions {
		blk := k.Blocks[r.Block]
		for i := r.Start; i < r.End-1; i++ {
			if blk.Insns[i].Op == isa.OpBAR {
				t.Fatalf("region %d holds a barrier mid-region at %d", r.ID, i)
			}
		}
	}
}
