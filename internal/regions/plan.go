package regions

import (
	"repro/internal/cfg"
	"repro/internal/isa"
)

// regPlan says where a whole-register cache invalidation of one
// architectural register may safely be placed (paper §4.3–4.4), from where
// the register is defined and where its live ranges end; annotate places
// the invalidation annotations from it.
//
// A register's value may only be deleted from the memory system at a point
// that (a) postdominates every definition and death point, so all divergent
// paths that used it have reconverged, and (b) has the register dead in the
// liveness solution. invalidationChain lists the candidate blocks in order
// (the common postdominator, then its postdominators); an empty chain means
// the register's final death coincides with kernel exit.
type regPlan struct {
	reg isa.Reg
	// edgeDeath: the register dies on a CFG edge (live at the source
	// block's end, dead into the target), e.g. a loop exit.
	edgeDeath bool
	// invalidationChain is the ordered list of candidate blocks for the
	// invalidation annotation: the nearest common postdominator of all
	// defs and deaths, followed by its postdominator chain.
	invalidationChain []int
	// lastPointInHead is the global index of the last def or use of the
	// register inside invalidationChain[0], or -1 if none; the
	// invalidation must be placed after it.
	lastPointInHead int
}

// planRegisters computes a regPlan for every register that is defined at
// least once in reachable code.
func planRegisters(lv *cfg.Liveness) []regPlan {
	g := lv.G
	k := g.K
	plans := make([]regPlan, 0, k.NumRegs)

	for r := 0; r < k.NumRegs; r++ {
		reg := isa.Reg(r)
		plan := regPlan{reg: reg, lastPointInHead: -1}
		blocks := map[int]bool{} // blocks containing defs or deaths
		defined := false

		for b, blk := range k.Blocks {
			if !g.Reachable(b) {
				continue
			}
			for i := range blk.Insns {
				in := &blk.Insns[i]
				gi := g.GlobalIndex(isa.PC{Block: b, Index: i})
				if in.Op.HasDst() && in.Dst == reg {
					defined = true
					blocks[b] = true
				}
				reads := false
				for _, s := range in.SrcRegs() {
					if s == reg {
						reads = true
					}
				}
				if reads && lv.IsLastUse(gi, reg) {
					blocks[b] = true
				}
			}
			// Edge deaths: live out of b overall, dead into a
			// particular successor.
			if lv.LiveOut(g.GlobalIndex(isa.PC{Block: b, Index: len(blk.Insns) - 1})).Get(r) {
				for _, s := range g.Succs[b] {
					if !lv.BlockLiveIn(s).Get(r) {
						plan.edgeDeath = true
						blocks[s] = true
					}
				}
			}
		}
		if !defined {
			continue
		}
		plan.invalidationChain, plan.lastPointInHead = invalidationChain(g, reg, blocks)
		plans = append(plans, plan)
	}
	return plans
}

// invalidationChain finds the nearest common postdominator of the given
// blocks and returns it with its postdominator chain, plus the last
// def/use position of reg inside the head block.
func invalidationChain(g *cfg.Graph, reg isa.Reg, blocks map[int]bool) ([]int, int) {
	if len(blocks) == 0 {
		return nil, -1
	}
	// Start from any member; walk its postdominator chain until a block
	// postdominating all members is found.
	var start int
	for b := range blocks {
		start = b
		break
	}
	head := -1
	for _, cand := range g.PostDominators(start) {
		all := true
		for b := range blocks {
			if !g.PostDominates(cand, b) {
				all = false
				break
			}
		}
		if all {
			head = cand
			break
		}
	}
	if head == -1 {
		return nil, -1
	}
	chain := g.PostDominators(head)
	// Last def/use of reg inside the head block.
	last := -1
	blk := g.K.Blocks[head]
	for i := range blk.Insns {
		in := &blk.Insns[i]
		touches := in.Op.HasDst() && in.Dst == reg
		for _, s := range in.SrcRegs() {
			if s == reg {
				touches = true
			}
		}
		if touches {
			last = g.GlobalIndex(isa.PC{Block: head, Index: i})
		}
	}
	return chain, last
}
