package regions

import (
	"repro/internal/bitvec"
	"repro/internal/isa"
)

// localLife describes one register's presence window inside a region:
// an OSU line is needed from global index from to global index until
// (inclusive); after until the line is erased or becomes evictable.
type localLife struct {
	reg         isa.Reg
	from, until int
	input       bool // live into the region and touched by it
	defined     bool // written in the region
	hardRedef   bool // a non-soft write in the region kills the old value
	// written: the last touch in the region is the register's own write,
	// so its line is held until the writeback lands, past until.
	written bool
}

// localLives computes the presence windows for every register touched in
// [start, end) of block, plus the live-in set at the range start.
func (c *Compiled) localLives(block, start, end int) ([]localLife, *bitvec.Set) {
	insns := c.Kernel.Blocks[block].Insns
	startGI := c.G.GlobalIndex(isa.PC{Block: block, Index: start})
	liveIn := c.Lv.LiveIn(startGI)

	idx := c.lifeIdx
	var lives []localLife
	touch := func(r isa.Reg, gi int, def, hard bool) {
		j := idx[r]
		if j < 0 {
			j = len(lives)
			idx[r] = j
			from := gi
			input := liveIn.Get(int(r))
			if input {
				from = startGI // inputs occupy their line from activation
			}
			lives = append(lives, localLife{reg: r, from: from, until: gi, input: input})
		}
		l := &lives[j]
		if gi > l.until {
			l.until = gi
		}
		l.written = def
		if def {
			l.defined = true
			if hard {
				l.hardRedef = true
			}
		}
	}
	for i := start; i < end; i++ {
		gi := startGI + (i - start)
		in := &insns[i]
		for _, s := range in.SrcRegs() {
			touch(s, gi, false, false)
		}
		if in.Op.HasDst() {
			touch(in.Dst, gi, true, !c.Lv.SoftDef[gi])
		}
	}
	for j := range lives {
		idx[lives[j].reg] = -1
	}
	return lives, liveIn
}

// localPressure returns the maximum concurrent live registers (total)
// and OSU lines held (per bank) over the range; the per-bank figure is
// the region's reservation. A register whose last touch is its own write
// holds its line to the region's end: the warp drains its writebacks
// before the region is left, so that bound is sound.
func (c *Compiled) localPressure(block, start, end int) (int, [isa.NumBanks]int) {
	lives, _ := c.localLives(block, start, end)
	startGI := c.G.GlobalIndex(isa.PC{Block: block, Index: start})
	maxLive := 0
	var maxBank [isa.NumBanks]int
	for i := start; i < end; i++ {
		gi := startGI + (i - start)
		n := 0
		var bank [isa.NumBanks]int
		for j := range lives {
			l := &lives[j]
			if l.from <= gi && gi <= l.until {
				n++
			}
			if l.from <= gi && (gi <= l.until || l.written) {
				bank[int(l.reg)%isa.NumBanks]++
			}
		}
		if n > maxLive {
			maxLive = n
		}
		for b := 0; b < isa.NumBanks; b++ {
			if bank[b] > maxBank[b] {
				maxBank[b] = bank[b]
			}
		}
	}
	return maxLive, maxBank
}

// inputsOutputs counts the registers crossing into and out of the range.
func (c *Compiled) inputsOutputs(block, start, end int) (int, int) {
	lives, _ := c.localLives(block, start, end)
	endGI := c.G.GlobalIndex(isa.PC{Block: block, Index: end - 1})
	liveOut := c.Lv.LiveOut(endGI)
	ins, outs := 0, 0
	for j := range lives {
		l := &lives[j]
		if l.input {
			ins++
		}
		if l.defined && liveOut.Get(int(l.reg)) {
			outs++
		}
	}
	return ins, outs
}

// classifyAll fills every region's register classification, capacity
// annotations, preloads, and erase/evict points.
func (c *Compiled) classifyAll() {
	c.CrossRegs = bitvec.New(c.Kernel.NumRegs)
	erase := make([][]isa.Reg, c.G.NumInsns())
	evict := make([][]isa.Reg, c.G.NumInsns())
	for _, r := range c.Regions {
		r.EraseAt = erase[r.StartGI:r.EndGI:r.EndGI]
		r.EvictAt = evict[r.StartGI:r.EndGI:r.EndGI]
		c.classify(r)
	}
}

func (c *Compiled) classify(r *Region) {
	lives, _ := c.localLives(r.Block, r.Start, r.End)
	liveOut := c.Lv.LiveOut(r.EndGI - 1)

	r.MaxLive, r.BankUsage = c.localPressure(r.Block, r.Start, r.End)

	for j := range lives {
		l := &lives[j]
		// A value is only dead after this region if it is dead on this
		// path AND no divergent sibling path still needs it (the other
		// arm's lanes run later under SIMT; §4.4).
		siblingLive := c.Lv.LiveOnSiblingPath(r.Block, l.reg)
		isOutput := l.defined && liveOut.Get(int(l.reg))
		switch {
		case l.input && isOutput:
			r.Inputs = append(r.Inputs, l.reg)
			r.Outputs = append(r.Outputs, l.reg)
		case l.input:
			r.Inputs = append(r.Inputs, l.reg)
		case isOutput:
			r.Outputs = append(r.Outputs, l.reg)
		default:
			r.Interior = append(r.Interior, l.reg)
		}
		if l.input || isOutput {
			c.CrossRegs.Set(int(l.reg))
		}

		// Last-use flags: a register still needed after the region ends
		// (on this path or a divergent sibling's) becomes evictable at
		// its last in-region touch; otherwise its line is erased
		// outright (dead value).
		at := l.until - r.StartGI
		if liveOut.Get(int(l.reg)) || siblingLive {
			r.EvictAt[at] = append(r.EvictAt[at], l.reg)
		} else {
			r.EraseAt[at] = append(r.EraseAt[at], l.reg)
		}

		// Preloads: every input is fetched before activation. The read
		// invalidates the backing copy when the preloaded value cannot
		// be needed again — dead on every path including divergent
		// siblings — or when a hard (full-warp) redefinition replaces
		// it.
		if l.input {
			inv := (!liveOut.Get(int(l.reg)) && !siblingLive) || l.hardRedef
			r.Preloads = append(r.Preloads, Preload{Reg: l.reg, Invalidate: inv})
		}
	}
}

// annotate emits cache-invalidation annotations: each register that can
// live in the backing store and dies via control flow (an edge death) gets
// one invalidation at a region start that postdominates all its
// definitions and deaths (§4.3-4.4).
func (c *Compiled) annotate() {
	for _, p := range planRegisters(c.Lv) {
		if !c.CrossRegs.Get(int(p.reg)) || !p.edgeDeath {
			continue
		}
		if tgt := c.invalidationRegion(&p); tgt != nil {
			tgt.CacheInvalidations = append(tgt.CacheInvalidations, p.reg)
		}
	}
}

// invalidationRegion finds the first region whose start satisfies the
// placement rule for the plan's invalidation chain. Blocks inside loops
// are avoided when a later chain block sits outside: an in-loop
// invalidation re-executes every iteration while a single post-loop one is
// equivalent (the register is dead at every chain block) and far cheaper
// in L1 port traffic.
func (c *Compiled) invalidationRegion(p *regPlan) *Region {
	if r := c.invalidationRegionPass(p, true); r != nil {
		return r
	}
	return c.invalidationRegionPass(p, false)
}

func (c *Compiled) invalidationRegionPass(p *regPlan, skipLoops bool) *Region {
	for i, block := range p.invalidationChain {
		if !c.G.Reachable(block) {
			continue
		}
		if skipLoops && c.G.InLoop[block] {
			continue
		}
		blockStartGI := c.G.GlobalIndex(isa.PC{Block: block, Index: 0})
		after := blockStartGI - 1
		if i == 0 && p.lastPointInHead >= 0 {
			after = p.lastPointInHead
		}
		// First region in this block starting after `after`.
		blk := c.Kernel.Blocks[block]
		endGI := blockStartGI + len(blk.Insns)
		for gi := after + 1; gi < endGI; gi++ {
			id := c.RegionOf[gi]
			if id < 0 {
				continue
			}
			r := c.Regions[id]
			if r.StartGI == gi {
				return r
			}
		}
	}
	return nil
}
