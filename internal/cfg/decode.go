package cfg

import "repro/internal/isa"

// Insn is one static instruction as the issuing cycle reads it, decoded
// once per kernel with the rest of the Graph: the executor steps by it,
// the SM's scoreboard and class masks refresh from it, and the register
// schemes count their accesses from it, where each used to re-ask the
// opcode table (ClassOf, NumSrc, HasDst) and re-derive the global index on
// every issue. Graph.Insns holds one per global instruction index.
type Insn struct {
	In *isa.Instruction
	PC isa.PC
	// GI is the instruction's global index; Next is the global index of
	// the instruction a fallthrough reaches, -1 when it ends its block
	// (the executor then crosses into the next block, where frames may
	// reconverge).
	GI   int32
	Next int32

	Class isa.Class
	// NSrc counts the source registers the instruction reads, Src[:NSrc]
	// in operand order; Dst is the register it writes, isa.NoReg if none.
	NSrc uint8
	Src  [3]isa.Reg
	Dst  isa.Reg
	// BankConflicts counts the sources whose operand-staging bank an
	// earlier source of the same instruction already uses. Register r of
	// warp w sits in bank (w + r) mod isa.NumBanks, so two sources collide
	// exactly when their registers agree mod isa.NumBanks, whatever the
	// warp: RegLess's serialization penalty is a property of the
	// instruction.
	BankConflicts uint8

	// Need is the scoreboard's need mask, Graph.NeedWords words: the
	// sources plus the destination (a write waits out an outstanding
	// write to the same register).
	Need []uint64
}

// Srcs returns the source registers the instruction reads.
func (d *Insn) Srcs() []isa.Reg { return d.Src[:d.NSrc] }

// decode builds g.Insns over the kernel's layout order.
func (g *Graph) decode() {
	k := g.K
	g.NeedWords = max((k.NumRegs+63)/64, 1)
	g.Insns = make([]Insn, g.numInsns)
	need := make([]uint64, g.numInsns*g.NeedWords)
	gi := 0
	for b, blk := range k.Blocks {
		for i := range blk.Insns {
			in := &blk.Insns[i]
			d := &g.Insns[gi]
			*d = Insn{
				In:    in,
				PC:    isa.PC{Block: b, Index: i},
				GI:    int32(gi),
				Next:  int32(gi + 1),
				Class: in.Op.ClassOf(),
				Dst:   isa.NoReg,
				Need:  need[gi*g.NeedWords : (gi+1)*g.NeedWords : (gi+1)*g.NeedWords],
			}
			if i == len(blk.Insns)-1 {
				d.Next = -1
			}
			var banks [isa.NumBanks]bool
			for s := 0; s < in.Op.NumSrc(); s++ {
				r := in.Src[s]
				if !r.Valid() {
					continue
				}
				d.Src[d.NSrc] = r
				d.NSrc++
				d.need(r)
				if bank := int(r) % isa.NumBanks; banks[bank] {
					d.BankConflicts++
				} else {
					banks[bank] = true
				}
			}
			if in.Op.HasDst() && in.Dst.Valid() {
				d.Dst = in.Dst
				d.need(in.Dst)
			}
			gi++
		}
	}
}

// need adds r to the need mask (a register past the kernel's count, which
// Validate rejects, has no bit).
func (d *Insn) need(r isa.Reg) {
	if w := int(r) >> 6; w < len(d.Need) {
		d.Need[w] |= 1 << (uint(r) & 63)
	}
}

// BlockStart returns the global index of block b's first instruction.
func (g *Graph) BlockStart(b int) int32 { return int32(g.insnBase[b]) }
