package regions_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/regions"
)

// pressure returns, allocated, one block holding n values live at once.
func pressure(t *testing.T, n int) *isa.Kernel {
	b := isa.NewBuilder("pressure", 1)
	var vals []isa.Reg
	for i := 0; i < n; i++ {
		vals = append(vals, b.Movi(uint32(i)))
	}
	acc := b.Movi(0)
	for _, v := range vals {
		b.Op2To(isa.OpIADD, acc, acc, v)
	}
	b.Stg(acc, acc, 0)
	b.Exit()
	alloc, err := regalloc.Allocate(b.MustKernel())
	if err != nil {
		t.Fatal(err)
	}
	return alloc.Kernel
}

// TestHighPressureBlockSplits: the compiler splits a block holding many
// values live at once to respect MaxRegsPerRegion.
func TestHighPressureBlockSplits(t *testing.T) {
	c := compile(t, pressure(t, 12), regions.Config{MaxRegsPerRegion: 6, BankLines: 4, MinRegionInsns: 3})
	if len(c.Regions) < 2 {
		t.Fatalf("high-pressure block not split: %d regions", len(c.Regions))
	}
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
	c := compile(t, k, regions.DefaultConfig())
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

func TestSummarize(t *testing.T) {
	alloc, err := regalloc.Allocate(gen.Kernel(42))
	if err != nil {
		t.Fatal(err)
	}
	c := compile(t, alloc.Kernel, regions.DefaultConfig())
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
	c := compile(t, k, regions.DefaultConfig())
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
	k := pressure(t, 14)
	withFloor := compile(t, k, regions.Config{MaxRegsPerRegion: 6, BankLines: 4, MinRegionInsns: 6})
	for _, r := range withFloor.Regions[:1] {
		if r.NumInsns() < 6 && r.EndGI < withFloor.G.NumInsns() {
			t.Fatalf("first region has %d insns despite the floor", r.NumInsns())
		}
	}
	noFloor := compile(t, k, regions.Config{MaxRegsPerRegion: 6, BankLines: 4, MinRegionInsns: 1})
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
	c := compile(t, k, regions.DefaultConfig())
	for _, r := range c.Regions {
		blk := k.Blocks[r.Block]
		for i := r.Start; i < r.End-1; i++ {
			if blk.Insns[i].Op == isa.OpBAR {
				t.Fatalf("region %d holds a barrier mid-region at %d", r.ID, i)
			}
		}
	}
}
