// Package regions implements the RegLess compiler (paper §4): it slices a
// kernel into regions (Algorithm 1), classifies each region's registers as
// inputs, interiors, and outputs, computes per-bank capacity annotations,
// and emits the runtime annotations the hardware follows — preloads (with
// invalidating-read flags), cache invalidations, and per-instruction
// erase/evict last-use flags (Figure 6).
//
// A region is a contiguous instruction range inside one basic block;
// regions never span block boundaries, which keeps the hardware's register
// management oblivious of control flow (§4.1). Region boundaries are
// chosen to maximize interior registers (values whose whole lifetime sits
// inside one region and therefore never touch the memory hierarchy) and to
// separate long-latency global loads from their first uses.
package regions

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/cfg"
	"repro/internal/isa"
)

// Config bounds region sizes to the operand staging unit geometry.
type Config struct {
	// MaxRegsPerRegion caps a region's maximum concurrent live
	// registers, so one region cannot monopolize the OSU (Alg. 1 l.18).
	MaxRegsPerRegion int
	// BankLines is the OSU line count per bank; a region's per-bank
	// usage must fit (Alg. 1 l.20).
	BankLines int
	// MinRegionInsns is the minimum split-point distance from the
	// region start (48 bytes = 6 instructions in the paper, Alg. 1
	// l.31), avoiding degenerately small regions.
	MinRegionInsns int
}

// DefaultConfig matches the paper's 512-entry-per-SM design point: four
// shards of 128 entries = 8 banks x 16 lines.
func DefaultConfig() Config {
	return Config{MaxRegsPerRegion: 32, BankLines: 16, MinRegionInsns: 6}
}

// Preload is one input-register fetch issued before a region activates.
type Preload struct {
	Reg isa.Reg
	// Invalidate marks an invalidating read: this preload is statically
	// the register's last read, so the backing-store copy is deleted as
	// it is fetched (§4.3).
	Invalidate bool
}

// Region is one compiler-created region with its hardware annotations.
type Region struct {
	ID    int
	Block int
	// Start and End delimit the instruction range [Start, End) within
	// the block.
	Start, End int
	// StartGI/EndGI are the same bounds as global instruction indexes.
	StartGI, EndGI int

	// Inputs are registers live into the region that the region touches;
	// they must be present in the OSU before activation.
	Inputs []isa.Reg
	// Outputs are registers defined in the region and live out of it.
	Outputs []isa.Reg
	// Interior registers' whole lifetimes sit inside the region; they
	// are never transferred to or from memory.
	Interior []isa.Reg

	// MaxLive is the maximum number of concurrently live registers, a
	// liveness statistic (Figure 19's "mean live"); it reserves nothing.
	MaxLive int
	// BankUsage[b] is the region's OSU reservation in bank b: the maximum
	// number of lines it holds there at once, a written register's line
	// until the region ends, assuming warp 0; the hardware rotates by
	// warp ID.
	BankUsage [isa.NumBanks]int

	// Preloads list the input fetches (Figure 19's "preloads").
	Preloads []Preload
	// CacheInvalidations are registers whose backing-store copies are
	// deleted when this region starts: control flow has made them dead.
	CacheInvalidations []isa.Reg
	// EraseAt maps a global instruction index to interior registers
	// whose last use it is; their OSU lines free immediately.
	EraseAt map[int][]isa.Reg
	// EvictAt maps a global instruction index to input/output registers
	// whose last in-region use it is; their OSU lines become evictable.
	EvictAt map[int][]isa.Reg

	// MetaInsns is the instruction-stream overhead of this region's
	// annotations (filled in by package metadata via SetMetaCost).
	MetaInsns int
}

// NumInsns returns the region's static instruction count.
func (r *Region) NumInsns() int { return r.End - r.Start }

// Indices returns the global instruction indices an EraseAt or EvictAt map
// annotates, ascending: ranging over the map itself visits them in a
// different order on every run.
func Indices(at map[int][]isa.Reg) []int {
	gis := make([]int, 0, len(at))
	for gi := range at {
		gis = append(gis, gi)
	}
	sort.Ints(gis)
	return gis
}

// Compiled is the full compiler output for one kernel.
type Compiled struct {
	Kernel *isa.Kernel
	G      *cfg.Graph
	Lv     *cfg.Liveness
	Cfg    Config

	Regions []*Region
	// RegionOf maps a global instruction index to its region ID (-1 for
	// unreachable code).
	RegionOf []int
	// CrossRegs marks registers that are an input or output of at least
	// one region — the only registers that can ever reside in the
	// memory hierarchy.
	CrossRegs *bitvec.Set
}

// RegionAt returns the region containing global instruction index gi, or
// nil for unreachable code.
func (c *Compiled) RegionAt(gi int) *Region {
	id := c.RegionOf[gi]
	if id < 0 {
		return nil
	}
	return c.Regions[id]
}

// Compile runs the full RegLess compiler pipeline on a kernel whose
// registers are already architecturally allocated.
func Compile(k *isa.Kernel, cfgOpts Config) (*Compiled, error) {
	if cfgOpts.MaxRegsPerRegion <= 0 || cfgOpts.BankLines <= 0 {
		return nil, fmt.Errorf("regions: invalid config %+v", cfgOpts)
	}
	g, lv := cfg.For(k)
	c := &Compiled{
		Kernel:   k,
		G:        g,
		Lv:       lv,
		Cfg:      cfgOpts,
		RegionOf: make([]int, g.NumInsns()),
	}
	for i := range c.RegionOf {
		c.RegionOf[i] = -1
	}
	c.createRegions()
	c.classifyAll()
	c.annotate()
	return c, nil
}

// createRegions implements Algorithm 1 over every reachable basic block.
func (c *Compiled) createRegions() {
	type span struct {
		block, start, end int
	}
	var worklist []span
	for _, b := range c.G.RPO {
		blk := c.Kernel.Blocks[b]
		worklist = append(worklist, span{b, 0, len(blk.Insns)})
	}
	// Process in order, but splits re-examine the tail (Alg. 1 l.10).
	for i := 0; i < len(worklist); i++ {
		s := worklist[i]
		for !c.isValid(s.block, s.start, s.end) {
			split := c.findSplitPoint(s.block, s.start, s.end)
			c.appendRegion(s.block, s.start, split)
			s.start = split
		}
		c.appendRegion(s.block, s.start, s.end)
	}
	// Renumber regions in layout order so RegionOf is monotone.
	sort.Slice(c.Regions, func(a, b int) bool {
		return c.Regions[a].StartGI < c.Regions[b].StartGI
	})
	for id, r := range c.Regions {
		r.ID = id
		for gi := r.StartGI; gi < r.EndGI; gi++ {
			c.RegionOf[gi] = id
		}
	}
}

func (c *Compiled) appendRegion(block, start, end int) {
	r := &Region{
		Block:   block,
		Start:   start,
		End:     end,
		StartGI: c.G.GlobalIndex(isa.PC{Block: block, Index: start}),
		EndGI:   c.G.GlobalIndex(isa.PC{Block: block, Index: start}) + (end - start),
		EraseAt: map[int][]isa.Reg{},
		EvictAt: map[int][]isa.Reg{},
	}
	c.Regions = append(c.Regions, r)
}

// isValid implements Algorithm 1's IsValid for the candidate range
// [start, end) of a block. Single-instruction regions are always valid to
// guarantee progress.
func (c *Compiled) isValid(block, start, end int) bool {
	if end-start <= 1 {
		return true
	}
	maxLive, bank := c.localPressure(block, start, end)
	if maxLive > c.Cfg.MaxRegsPerRegion {
		return false
	}
	for _, u := range bank {
		if u > c.Cfg.BankLines {
			return false
		}
	}
	if c.containsLoadUse(block, start, end) {
		return false
	}
	if c.containsMidBarrier(block, start, end) {
		return false
	}
	return true
}

// containsMidBarrier reports whether the range holds a barrier that is not
// its last instruction. Regions end at barriers so that a warp waiting at
// one holds no staging-unit reservation — otherwise barrier-waiting warps
// could starve the very warps their CTA is waiting for (deadlock at small
// OSU capacities).
func (c *Compiled) containsMidBarrier(block, start, end int) bool {
	insns := c.Kernel.Blocks[block].Insns
	for i := start; i < end-1; i++ {
		if insns[i].Op == isa.OpBAR {
			return true
		}
	}
	return false
}

// containsLoadUse reports whether the range holds a global load and a
// later read of its destination (before a hard redefinition).
func (c *Compiled) containsLoadUse(block, start, end int) bool {
	insns := c.Kernel.Blocks[block].Insns
	for i := start; i < end; i++ {
		in := &insns[i]
		if !in.Op.IsGlobalLoad() {
			continue
		}
		d := in.Dst
		for j := i + 1; j < end; j++ {
			jn := &insns[j]
			for _, s := range jn.SrcRegs() {
				if s == d {
					return true
				}
			}
			gj := c.G.GlobalIndex(isa.PC{Block: block, Index: j})
			if jn.Op.HasDst() && jn.Dst == d && !c.Lv.SoftDef[gj] {
				break // hard redefinition; old load value gone
			}
		}
	}
	return false
}

// findSplitPoint implements Algorithm 1's FindSplitPoint for an invalid
// range, returning the split index s (first region = [start, s)).
func (c *Compiled) findSplitPoint(block, start, end int) int {
	// upperBound: the largest s such that [start, s) is still valid.
	upper := start + 1
	for s := start + 2; s < end; s++ {
		if !c.isValid(block, start, s) {
			break
		}
		upper = s
	}

	// lowerBound: split minimizing co-located (load, first-use) pairs.
	lower := start + 1
	bestPairs := c.pairCount(block, start, lower, end)
	for s := start + 2; s <= upper; s++ {
		if p := c.pairCount(block, start, s, end); p < bestPairs {
			bestPairs = p
			lower = s
		}
	}
	// Enforce the minimum region size where possible (Alg. 1 l.31).
	if min := start + c.Cfg.MinRegionInsns; lower < min {
		lower = min
	}
	if lower > upper {
		lower = upper
	}

	// Final choice: fewest combined inputs+outputs across both halves.
	best := lower
	bestCost := c.splitCost(block, start, best, end)
	for s := lower + 1; s <= upper; s++ {
		if cost := c.splitCost(block, start, s, end); cost < bestCost {
			bestCost = cost
			best = s
		}
	}
	return best
}

// pairCount counts (global load, first use) pairs that remain co-located
// in either half when splitting [start, end) at s.
func (c *Compiled) pairCount(block, start, s, end int) int {
	return c.pairsWithin(block, start, s) + c.pairsWithin(block, s, end)
}

func (c *Compiled) pairsWithin(block, a, b int) int {
	insns := c.Kernel.Blocks[block].Insns
	n := 0
	for i := a; i < b; i++ {
		in := &insns[i]
		if !in.Op.IsGlobalLoad() {
			continue
		}
		d := in.Dst
	scan:
		for j := i + 1; j < b; j++ {
			for _, s := range insns[j].SrcRegs() {
				if s == d {
					n++
					break scan
				}
			}
		}
	}
	return n
}

// splitCost is the combined number of input and output registers of the
// two halves produced by splitting at s.
func (c *Compiled) splitCost(block, start, s, end int) int {
	i1, o1 := c.inputsOutputs(block, start, s)
	i2, o2 := c.inputsOutputs(block, s, end)
	return i1 + o1 + i2 + o2
}
