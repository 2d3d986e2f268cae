package cfg

import (
	"repro/internal/bitvec"
	"repro/internal/isa"
)

// Liveness holds per-instruction register liveness for a kernel, computed
// with awareness of GPU control divergence: definitions identified as
// *soft* (paper §4.4) do not kill the incoming value, because inactive
// lanes may still need it.
//
// The analysis iterates to a fixed point: liveness is first computed
// treating every definition as killing, Algorithm 2 then identifies soft
// definitions from that solution, and liveness is recomputed with soft
// definitions treated as transparent; this repeats until the soft set
// stops growing (in practice one or two rounds).
type Liveness struct {
	G *Graph

	// SoftDef[gi] reports that the destination write of the instruction
	// with global index gi is a soft definition.
	SoftDef []bool

	liveIn  []*bitvec.Set // indexed by global instruction index
	liveOut []*bitvec.Set

	blockIn  []*bitvec.Set // indexed by block
	blockOut []*bitvec.Set
}

// ComputeLiveness runs the divergence-aware liveness analysis.
func ComputeLiveness(g *Graph) *Liveness {
	lv := &Liveness{
		G:       g,
		SoftDef: make([]bool, g.NumInsns()),
	}
	for {
		lv.solve()
		if !lv.updateSoftDefs() {
			break
		}
	}
	return lv
}

// solve runs standard backward dataflow at block granularity, then fills
// the per-instruction sets.
func (lv *Liveness) solve() {
	g := lv.G
	k := g.K
	nb := len(k.Blocks)
	nr := k.NumRegs

	use := make([]*bitvec.Set, nb)
	def := make([]*bitvec.Set, nb) // hard defs only
	for b := 0; b < nb; b++ {
		use[b] = bitvec.New(nr)
		def[b] = bitvec.New(nr)
		blk := k.Blocks[b]
		for i := range blk.Insns {
			in := &blk.Insns[i]
			for _, s := range in.SrcRegs() {
				if !def[b].Get(int(s)) {
					use[b].Set(int(s))
				}
			}
			if in.Op.HasDst() && !lv.SoftDef[g.GlobalIndex(isa.PC{Block: b, Index: i})] {
				def[b].Set(int(in.Dst))
			} else if in.Op.HasDst() {
				// A soft definition is also a use in the dataflow
				// sense: the merged value must be live into the
				// write so inactive lanes' values survive.
				if !def[b].Get(int(in.Dst)) {
					use[b].Set(int(in.Dst))
				}
			}
		}
	}

	lv.blockIn = make([]*bitvec.Set, nb)
	lv.blockOut = make([]*bitvec.Set, nb)
	for b := 0; b < nb; b++ {
		lv.blockIn[b] = bitvec.New(nr)
		lv.blockOut[b] = bitvec.New(nr)
	}
	// Iterate in post order (reverse of RPO) for fast convergence.
	changed := true
	tmp := bitvec.New(nr)
	for changed {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.RPO[i]
			out := lv.blockOut[b]
			for _, s := range g.Succs[b] {
				if out.Or(lv.blockIn[s]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			tmp.CopyFrom(out)
			tmp.AndNot(def[b])
			tmp.Or(use[b])
			if !tmp.Equal(lv.blockIn[b]) {
				lv.blockIn[b].CopyFrom(tmp)
				changed = true
			}
		}
	}

	// Per-instruction sets by backward walk within each block.
	lv.liveIn = make([]*bitvec.Set, g.NumInsns())
	lv.liveOut = make([]*bitvec.Set, g.NumInsns())
	for b := 0; b < nb; b++ {
		blk := k.Blocks[b]
		cur := lv.blockOut[b].Copy()
		for i := len(blk.Insns) - 1; i >= 0; i-- {
			gi := g.GlobalIndex(isa.PC{Block: b, Index: i})
			lv.liveOut[gi] = cur.Copy()
			in := &blk.Insns[i]
			if in.Op.HasDst() {
				if !lv.SoftDef[gi] {
					cur.Clear(int(in.Dst))
				} else {
					cur.Set(int(in.Dst))
				}
			}
			for _, s := range in.SrcRegs() {
				cur.Set(int(s))
			}
			lv.liveIn[gi] = cur.Copy()
		}
	}
}

// updateSoftDefs applies Algorithm 2 to every defining instruction and
// reports whether any new soft definitions were found.
func (lv *Liveness) updateSoftDefs() bool {
	g := lv.G
	grew := false
	for b, blk := range g.K.Blocks {
		if !g.Reachable(b) {
			continue
		}
		for i := range blk.Insns {
			in := &blk.Insns[i]
			if !in.Op.HasDst() {
				continue
			}
			gi := g.GlobalIndex(isa.PC{Block: b, Index: i})
			if lv.SoftDef[gi] {
				continue
			}
			if lv.isSoftDef(b, in.Dst) {
				lv.SoftDef[gi] = true
				grew = true
			}
		}
	}
	return grew
}

// isSoftDef implements Algorithm 2: a definition in block insnBB of reg is
// soft when some strictly-dominating block (with no reconvergence point in
// between) has a successor off the path to insnBB on which reg is live —
// i.e. an earlier definition reaches uses under control conditions
// different from this write's.
func (lv *Liveness) isSoftDef(insnBB int, reg isa.Reg) bool {
	g := lv.G
	doms := g.Dominators(insnBB)
	domSet := make(map[int]bool, len(doms))
	for _, d := range doms {
		domSet[d] = true
	}
	for _, domBB := range doms {
		if domBB == insnBB {
			continue
		}
		// Skip if a reconvergence point lies between domBB and the
		// definition: a strict postdominator of domBB that also
		// dominates insnBB.
		reconverged := false
		for _, pd := range g.PostDominators(domBB) {
			if pd != domBB && domSet[pd] {
				reconverged = true
				break
			}
		}
		if reconverged {
			continue
		}
		for _, succ := range g.Succs[domBB] {
			if g.Dominates(succ, insnBB) {
				continue
			}
			if lv.blockIn[succ].Get(int(reg)) {
				return true
			}
		}
	}
	return false
}

// LiveOnSiblingPath reports whether reg is live at the entry of a
// divergent sibling path of block b: a successor of a strict dominator of
// b (with no reconvergence point in between) that does not itself
// dominate b. Under SIMT execution both arms of a divergent branch run,
// so a value that is dead along b's own path may still be needed by the
// sibling arm's lanes — the dual of Algorithm 2's soft-definition test,
// used to keep last-use erase/invalidate annotations divergence-safe
// (§4.4: "it is only safe ... when the entire register is known to be
// dead").
func (lv *Liveness) LiveOnSiblingPath(b int, reg isa.Reg) bool {
	g := lv.G
	doms := g.Dominators(b)
	domSet := make(map[int]bool, len(doms))
	for _, d := range doms {
		domSet[d] = true
	}
	for _, domBB := range doms {
		if domBB == b {
			continue
		}
		reconverged := false
		for _, pd := range g.PostDominators(domBB) {
			if pd != domBB && domSet[pd] {
				reconverged = true
				break
			}
		}
		if reconverged {
			continue
		}
		for _, succ := range g.Succs[domBB] {
			if g.Dominates(succ, b) {
				continue
			}
			if lv.blockIn[succ].Get(int(reg)) {
				return true
			}
		}
	}
	return false
}

// LiveIn returns the registers live immediately before global instruction
// index gi. The returned set is shared; callers must not mutate it.
func (lv *Liveness) LiveIn(gi int) *bitvec.Set { return lv.liveIn[gi] }

// LiveOut returns the registers live immediately after global instruction
// index gi. The returned set is shared; callers must not mutate it.
func (lv *Liveness) LiveOut(gi int) *bitvec.Set { return lv.liveOut[gi] }

// BlockLiveIn returns the live-in set of a block (shared; do not mutate).
func (lv *Liveness) BlockLiveIn(b int) *bitvec.Set { return lv.blockIn[b] }

// IsLastUse reports whether the instruction at gi is a last use of reg:
// reg is read there and not live out.
func (lv *Liveness) IsLastUse(gi int, reg isa.Reg) bool {
	return !lv.liveOut[gi].Get(int(reg))
}

// MaxLive returns the maximum number of simultaneously live registers at
// any instruction boundary, the statistic plotted in paper Figure 5.
func (lv *Liveness) MaxLive() int {
	m := 0
	for _, s := range lv.liveIn {
		if s == nil {
			continue
		}
		if c := s.Count(); c > m {
			m = c
		}
	}
	return m
}

// LiveCounts returns, per global instruction index, the number of live
// registers before that instruction (Figure 5's series).
func (lv *Liveness) LiveCounts() []int {
	out := make([]int, len(lv.liveIn))
	for i, s := range lv.liveIn {
		if s != nil {
			out[i] = s.Count()
		}
	}
	return out
}
