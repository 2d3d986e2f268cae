// Package regalloc assigns the kernel builder's SSA-like virtual registers
// to a compact set of architectural registers with reuse, standing in for
// ptxas in the paper's toolchain (§6.1: "register assignment was done by
// ptxas").
//
// Allocation is a linear scan over conservative live intervals derived from
// the divergence-aware liveness analysis in package cfg: soft definitions
// (writes under divergent control) do not end a live interval, and any
// value live into a loop header is kept live to the end of the loop body,
// so lanes revisiting the body via the back edge still see it. Two virtual
// registers share an architectural register only if their intervals are
// disjoint, which keeps functional behaviour bit-identical — the
// end-to-end tests run kernels before and after allocation and compare
// architectural state.
//
// Following the paper's note that "the compiler selects register numbers in
// a manner that reduces bank conflicts" (§5.2), when several architectural
// registers are free the allocator prefers one whose OSU bank (reg mod 8)
// differs from the banks of the defining instruction's other operands.
package regalloc

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/isa"
)

// Result carries the rewritten kernel and the allocation map for
// inspection.
type Result struct {
	Kernel *isa.Kernel
	// Assign maps virtual register -> architectural register.
	Assign []isa.Reg
	// NumArchRegs is the number of architectural registers used.
	NumArchRegs int
	// Intervals are the conservative live intervals (global instruction
	// index space) the allocation was computed from, indexed by virtual
	// register; Start==-1 marks an unused virtual.
	Intervals []Interval
}

// Interval is a closed range of global instruction indexes.
type Interval struct{ Start, End int }

// Overlaps reports whether two intervals intersect.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start <= o.End && o.Start <= iv.End
}

// Allocate rewrites k onto architectural registers and returns the new
// kernel (k is not modified).
func Allocate(k *isa.Kernel) (*Result, error) {
	g := cfg.New(k)
	lv := cfg.ComputeLiveness(g)
	ivs := intervals(g, lv)

	// Order virtuals by interval start for the linear scan.
	order := make([]int, 0, len(ivs))
	for v, iv := range ivs {
		if iv.Start >= 0 {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := ivs[order[a]], ivs[order[b]]
		if ia.Start != ib.Start {
			return ia.Start < ib.Start
		}
		return order[a] < order[b]
	})

	assign := make([]isa.Reg, k.NumRegs)
	for i := range assign {
		assign[i] = isa.NoReg
	}
	type active struct {
		end   int
		color isa.Reg
	}
	var actives []active
	var free []isa.Reg
	next := isa.Reg(0)

	// defBanks[v] lists the banks of the other operands in v's defining
	// instruction, for the conflict-avoidance preference.
	defBanks := defOperandBanks(k, g)

	for _, v := range order {
		iv := ivs[v]
		// Expire finished intervals.
		kept := actives[:0]
		for _, a := range actives {
			if a.end < iv.Start {
				free = append(free, a.color)
			} else {
				kept = append(kept, a)
			}
		}
		actives = kept

		color := pickColor(&free, defBanks[v])
		if !color.Valid() {
			color = next
			next++
		}
		assign[v] = color
		actives = append(actives, active{end: iv.End, color: color})
	}

	// next may lag behind colors drawn from the free list; compute the
	// true architectural register count.
	max := isa.Reg(0)
	used := false
	for _, c := range assign {
		if c.Valid() {
			used = true
			if c > max {
				max = c
			}
		}
	}
	n := 0
	if used {
		n = int(max) + 1
	}

	out := rewrite(k, assign, n)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("regalloc produced invalid kernel: %w", err)
	}
	return &Result{Kernel: out, Assign: assign, NumArchRegs: n, Intervals: ivs}, nil
}

// intervals derives a conservative closed interval per virtual register in
// global-instruction-index space.
func intervals(g *cfg.Graph, lv *cfg.Liveness) []Interval {
	k := g.K
	ivs := make([]Interval, k.NumRegs)
	for i := range ivs {
		ivs[i] = Interval{Start: -1, End: -1}
	}
	touch := func(v isa.Reg, gi int) {
		iv := &ivs[v]
		if iv.Start == -1 || gi < iv.Start {
			iv.Start = gi
		}
		if gi > iv.End {
			iv.End = gi
		}
	}
	for b, blk := range k.Blocks {
		if !g.Reachable(b) {
			continue
		}
		for i := range blk.Insns {
			gi := g.GlobalIndex(isa.PC{Block: b, Index: i})
			in := &blk.Insns[i]
			for _, s := range in.SrcRegs() {
				touch(s, gi)
			}
			if in.Op.HasDst() {
				touch(in.Dst, gi)
			}
			// Anything live at this point spans it.
			lv.LiveIn(gi).ForEach(func(v int) { touch(isa.Reg(v), gi) })
		}
	}
	// Back-edge extension: a value live into a loop header stays
	// allocated until the end of the loop body.
	for _, e := range g.BackEdges {
		headStart := g.GlobalIndex(isa.PC{Block: e.To, Index: 0})
		tailBlk := k.Blocks[e.From]
		tailEnd := g.GlobalIndex(isa.PC{Block: e.From, Index: len(tailBlk.Insns) - 1})
		lv.BlockLiveIn(e.To).ForEach(func(v int) {
			touch(isa.Reg(v), headStart)
			touch(isa.Reg(v), tailEnd)
		})
	}
	return ivs
}

// defOperandBanks returns, per virtual register, the OSU banks of the other
// operands in its first defining instruction.
func defOperandBanks(k *isa.Kernel, g *cfg.Graph) [][]int {
	out := make([][]int, k.NumRegs)
	seen := make([]bool, k.NumRegs)
	for b, blk := range k.Blocks {
		if !g.Reachable(b) {
			continue
		}
		for i := range blk.Insns {
			in := &blk.Insns[i]
			if !in.Op.HasDst() || seen[in.Dst] {
				continue
			}
			seen[in.Dst] = true
			for _, s := range in.SrcRegs() {
				out[in.Dst] = append(out[in.Dst], int(s)%isa.NumBanks)
			}
		}
	}
	return out
}

// pickColor selects a register from the free list, preferring one whose
// bank avoids the defining instruction's other operand banks. It removes
// and returns the chosen color, or NoReg if the free list is empty.
func pickColor(free *[]isa.Reg, avoid []int) isa.Reg {
	fl := *free
	if len(fl) == 0 {
		return isa.NoReg
	}
	avoidSet := map[int]bool{}
	for _, b := range avoid {
		avoidSet[b] = true
	}
	best := -1
	for i, c := range fl {
		if !avoidSet[int(c)%isa.NumBanks] {
			best = i
			break
		}
	}
	if best == -1 {
		// No conflict-free color; recycle the least-recently-freed one
		// (FIFO), matching production compilers' tendency to spread
		// values across the register budget rather than hammer a few
		// hot names.
		best = 0
	}
	color := fl[best]
	*free = append(fl[:best], fl[best+1:]...)
	return color
}

// rewrite deep-copies k with every register operand remapped.
func rewrite(k *isa.Kernel, assign []isa.Reg, numRegs int) *isa.Kernel {
	blocks := make([]*isa.BasicBlock, len(k.Blocks))
	for i, blk := range k.Blocks {
		nb := &isa.BasicBlock{ID: blk.ID, Insns: make([]isa.Instruction, len(blk.Insns))}
		copy(nb.Insns, blk.Insns)
		for j := range nb.Insns {
			in := &nb.Insns[j]
			if in.Op.HasDst() && in.Dst.Valid() {
				in.Dst = assign[in.Dst]
			}
			for s := 0; s < in.Op.NumSrc(); s++ {
				if in.Src[s].Valid() {
					in.Src[s] = assign[in.Src[s]]
				}
			}
		}
		blocks[i] = nb
	}
	return &isa.Kernel{
		Name:        k.Name,
		Blocks:      blocks,
		NumRegs:     numRegs,
		WarpsPerCTA: k.WarpsPerCTA,
	}
}
