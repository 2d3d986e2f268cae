package exec

import (
	"fmt"
	"math/bits"

	"repro/internal/arena"
	"repro/internal/cfg"
	"repro/internal/isa"
)

// FullMask has all 32 lanes active.
const FullMask uint32 = 0xFFFFFFFF

// frame is one SIMT reconvergence stack entry: execute from instruction
// gi (global index, in block) under mask until reaching block rejoin
// (-1 = never, the bottom frame).
type frame struct {
	gi, block, rejoin int32
	mask              uint32
}

// StepInfo describes one executed instruction, for the timing simulator.
type StepInfo struct {
	// D is the executed instruction, decoded (its PC, operands, class).
	D *cfg.Insn
	// Mask is the active-lane mask the instruction executed under.
	Mask uint32
	// Addrs holds the per-active-lane byte addresses of a memory
	// operation, in lane order (length = popcount(Mask)); nil otherwise.
	// The slice aliases an internal buffer valid until the next Step.
	Addrs []uint32
	// Exited reports that the warp finished with this instruction.
	Exited bool
	// AtBarrier reports the instruction was a barrier (the caller gates
	// barrier release; Step already advanced past it).
	AtBarrier bool
}

// Warp is the functional state of one hardware warp executing a kernel.
type Warp struct {
	ID  int // global warp id on the SM
	CTA int // CTA the warp belongs to

	K    *isa.Kernel
	G    *cfg.Graph
	Mem  *Memory
	Regs [][isa.WarpWidth]uint32

	a       *arena.Arena // what the SIMT stack grows in (nil: the heap)
	stack   []frame
	done    bool
	addrBuf [isa.WarpWidth]uint32
	scratch [isa.WarpWidth]uint32 // a divergent instruction's lane results (lanes)
}

// NewWarp creates a warp at the kernel entry with all lanes active.
// Graph g must be k's (cfg.For; shared across warps).
func NewWarp(k *isa.Kernel, g *cfg.Graph, id, cta int, mem *Memory) *Warp {
	return NewWarpOn(nil, make([][isa.WarpWidth]uint32, k.NumRegs), k, g, id, cta, mem)
}

// NewWarpOn is NewWarp made from a (nil: the heap) over caller-provided
// register storage: k.NumRegs zeroed registers (a RegFile's Warp slice).
func NewWarpOn(a *arena.Arena, regs [][isa.WarpWidth]uint32, k *isa.Kernel, g *cfg.Graph, id, cta int, mem *Memory) *Warp {
	w := arena.New[Warp](a)
	*w = Warp{
		ID:   id,
		CTA:  cta,
		K:    k,
		G:    g,
		Mem:  mem,
		Regs: regs,
		a:    a,
		// Room for divergence nested three deep before the stack regrows.
		stack: arena.Make[frame](a, 8)[:0],
	}
	w.stack = append(w.stack, frame{gi: 0, block: 0, rejoin: -1, mask: FullMask})
	return w
}

// Done reports whether every lane has exited.
func (w *Warp) Done() bool { return w.done }

// GI returns the next instruction's global index. Only valid when !Done().
func (w *Warp) GI() int { return int(w.top().gi) }

// Decoded returns the next instruction's decoded record. Only valid when
// !Done().
func (w *Warp) Decoded() *cfg.Insn { return &w.G.Insns[w.top().gi] }

// ActiveMask returns the current active-lane mask.
func (w *Warp) ActiveMask() uint32 {
	if w.done {
		return 0
	}
	return w.top().mask
}

func (w *Warp) top() *frame { return &w.stack[len(w.stack)-1] }

// ReadReg returns a copy of a register's lane values.
func (w *Warp) ReadReg(r isa.Reg) [isa.WarpWidth]uint32 { return w.Regs[r] }

// Step executes exactly one instruction at the current PC under the
// current mask, updating architectural state and the SIMT stack, and
// returns what happened. The caller must not Step a Done warp.
func (w *Warp) Step() StepInfo {
	var info StepInfo
	w.StepInto(&info)
	return info
}

// StepInto is Step reporting into the caller's StepInfo, for a caller
// that steps in a loop and keeps one (the SM's issue path): nothing is
// built on the stack and copied out per instruction.
func (w *Warp) StepInto(info *StepInfo) {
	if w.done {
		panic("exec: Step on finished warp")
	}
	f := w.top()
	rec := &w.G.Insns[f.gi]
	in := rec.In
	mask := f.mask
	*info = StepInfo{D: rec, Mask: mask}

	// Arithmetic cases carry their own lane loops rather than sharing a
	// closure-taking helper: the old binop/triop shape cost two indirect
	// calls per lane (helper -> writeDst -> op), which dominated the
	// functional step. Each computes all 32 lanes with no test of a mask
	// bit: into the destination itself under a full mask, else into a
	// scratch row that merge blends in by arithmetic on the mask, so a
	// divergent mask has no branch per lane to mispredict. Memory
	// operations visit only the active lanes, in lane order, by their set
	// bits.
	switch in.Op {
	case isa.OpNOP:
	case isa.OpMOVI:
		d, imm := w.lanes(in.Dst, mask), in.Imm
		for lane := range d {
			d[lane] = imm
		}
		w.merge(in.Dst, mask)
	case isa.OpTID:
		d := w.lanes(in.Dst, mask)
		base := uint32(w.ID * isa.WarpWidth)
		for lane := range d {
			d[lane] = (base + uint32(lane))
		}
		w.merge(in.Dst, mask)
	case isa.OpLANE:
		d := w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = uint32(lane)
		}
		w.merge(in.Dst, mask)
	case isa.OpWID:
		d, id := w.lanes(in.Dst, mask), uint32(w.ID)
		for lane := range d {
			d[lane] = id
		}
		w.merge(in.Dst, mask)
	case isa.OpIADD, isa.OpFADD:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = a[lane] + b[lane]
		}
		w.merge(in.Dst, mask)
	case isa.OpISUB:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = a[lane] - b[lane]
		}
		w.merge(in.Dst, mask)
	case isa.OpIADDI:
		a, d, imm := &w.Regs[in.Src[0]], w.lanes(in.Dst, mask), in.Imm
		for lane := range d {
			d[lane] = a[lane] + imm
		}
		w.merge(in.Dst, mask)
	case isa.OpIMUL, isa.OpFMUL:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = a[lane] * b[lane]
		}
		w.merge(in.Dst, mask)
	case isa.OpIMULI:
		a, d, imm := &w.Regs[in.Src[0]], w.lanes(in.Dst, mask), in.Imm
		for lane := range d {
			d[lane] = a[lane] * imm
		}
		w.merge(in.Dst, mask)
	case isa.OpIMAD, isa.OpFFMA:
		a, b, c := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Src[2]]
		d := w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = a[lane]*b[lane] + c[lane]
		}
		w.merge(in.Dst, mask)
	case isa.OpAND:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = a[lane] & b[lane]
		}
		w.merge(in.Dst, mask)
	case isa.OpOR:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = a[lane] | b[lane]
		}
		w.merge(in.Dst, mask)
	case isa.OpXOR:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = a[lane] ^ b[lane]
		}
		w.merge(in.Dst, mask)
	case isa.OpSHLI:
		a, d, sh := &w.Regs[in.Src[0]], w.lanes(in.Dst, mask), in.Imm&31
		for lane := range d {
			d[lane] = a[lane] << sh
		}
		w.merge(in.Dst, mask)
	case isa.OpSHRI:
		a, d, sh := &w.Regs[in.Src[0]], w.lanes(in.Dst, mask), in.Imm&31
		for lane := range d {
			d[lane] = a[lane] >> sh
		}
		w.merge(in.Dst, mask)
	case isa.OpMIN:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = min(a[lane], b[lane])
		}
		w.merge(in.Dst, mask)
	case isa.OpMAX:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = max(a[lane], b[lane])
		}
		w.merge(in.Dst, mask)
	case isa.OpSELP:
		a, b, c := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Src[2]]
		d := w.lanes(in.Dst, mask)
		for lane := range d {
			p := nonzero(c[lane])
			d[lane] = a[lane]&p | b[lane]&^p
		}
		w.merge(in.Dst, mask)
	case isa.OpSFU:
		s, d := &w.Regs[in.Src[0]], w.lanes(in.Dst, mask)
		for lane := range d {
			d[lane] = Mix(s[lane])
		}
		w.merge(in.Dst, mask)
	case isa.OpLDG, isa.OpLDS:
		// The lanes of a global access mostly share a 64 KiB page: it is
		// resolved when a lane leaves the previous lane's, not per lane.
		addrs, dst := &w.Regs[in.Src[0]], &w.Regs[in.Dst]
		n := 0
		if in.Op == isa.OpLDS {
			for m := mask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a := addrs[lane] + in.Imm
				w.addrBuf[n] = a
				n++
				dst[lane] = w.Mem.LoadShared(w.CTA, a)
			}
		} else {
			var pg *page
			key := ^uint32(0)
			for m := mask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a := addrs[lane] + in.Imm
				w.addrBuf[n] = a
				n++
				if a = wordAddr(a); a>>pageShift != key {
					key, pg = a>>pageShift, w.Mem.global.lookup(a)
				}
				dst[lane] = w.Mem.loadGlobalIn(pg, a)
			}
		}
		info.Addrs = w.addrBuf[:n]
	case isa.OpSTG, isa.OpSTS:
		addrs, vals := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]]
		n := 0
		if in.Op == isa.OpSTS {
			for m := mask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a := addrs[lane] + in.Imm
				w.addrBuf[n] = a
				n++
				w.Mem.StoreShared(w.CTA, a, vals[lane])
			}
		} else {
			var pg *page
			key := ^uint32(0)
			for m := mask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				a := addrs[lane] + in.Imm
				w.addrBuf[n] = a
				n++
				if a = wordAddr(a); a>>pageShift != key {
					key, pg = a>>pageShift, w.Mem.global.ensure(w.Mem.a, a)
				}
				pg.store(a, vals[lane])
			}
		}
		info.Addrs = w.addrBuf[:n]
	case isa.OpBNZ, isa.OpBZ:
		// The lanes whose condition is non-zero, one bit each, then the
		// taken set is that or its complement under the mask.
		cond := &w.Regs[in.Src[0]]
		var nz uint32
		for lane, c := range cond {
			nz |= (c | -c) >> 31 << uint(lane)
		}
		taken := mask & nz
		if in.Op == isa.OpBZ {
			taken = mask &^ nz
		}
		w.branch(rec, taken, mask)
		return
	case isa.OpBRA:
		w.toBlock(int32(in.Target))
		return
	case isa.OpBAR:
		info.AtBarrier = true
	case isa.OpEXIT:
		w.exit(mask)
		info.Exited = w.done
		return
	default:
		panic(fmt.Sprintf("exec: unhandled opcode %v", in.Op))
	}
	w.advance(rec)
}

// lanes returns where an instruction with destination dst computes its
// lane results under mask: the register itself when every lane is
// active, else the warp's scratch row, which merge then blends in.
func (w *Warp) lanes(dst isa.Reg, mask uint32) *[isa.WarpWidth]uint32 {
	if mask == FullMask {
		return &w.Regs[dst]
	}
	return &w.scratch
}

// merge copies the active lanes of the scratch row to dst, visiting the
// mask's set bits (nothing to do under a full mask: lanes wrote the
// register).
func (w *Warp) merge(dst isa.Reg, mask uint32) {
	if mask == FullMask {
		return
	}
	d := &w.Regs[dst]
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		d[lane] = w.scratch[lane]
	}
}

// nonzero returns all ones when v is not zero and zero when it is.
func nonzero(v uint32) uint32 { return -((v | -v) >> 31) }

// advance moves past d, the instruction just executed at the top frame:
// to the next instruction of its block, or across the block end by
// fallthrough, popping reconvergence frames whose rejoin block is reached.
func (w *Warp) advance(d *cfg.Insn) {
	if d.Next >= 0 {
		w.top().gi = d.Next
		return
	}
	w.toBlock(int32(d.PC.Block) + 1)
}

func (w *Warp) toBlock(b int32) {
	f := w.top()
	f.gi, f.block = w.G.BlockStart(int(b)), b
	// Pop frames whose reconvergence block has been reached. The frame
	// below resumes at its own pc: sibling frames hold the other
	// divergent path, and the parent frame was parked at this rejoin
	// block when the divergence was created.
	for len(w.stack) > 1 && w.top().block == w.top().rejoin {
		w.stack = w.stack[:len(w.stack)-1]
	}
}

// branch handles a potentially divergent conditional branch d with the
// given taken mask.
func (w *Warp) branch(d *cfg.Insn, taken, mask uint32) {
	fall := mask &^ taken
	blk := int32(d.PC.Block)
	switch {
	case taken == 0:
		w.advance(d)
	case fall == 0:
		w.toBlock(int32(d.In.Target))
	default:
		// Divergence: reconverge at the immediate postdominator of
		// the branch block. Replace the current frame position with
		// the reconvergence point, then push the fallthrough and
		// taken paths (taken executes first).
		rejoin := int32(w.G.IPDom[blk])
		f := w.top()
		if rejoin == -1 {
			// No reconvergence (both arms exit); run arms to
			// completion with rejoin sentinel -1. The frame parks on
			// its block's last instruction and becomes unreachable
			// once both arms exit.
			f.gi = w.G.BlockStart(int(blk)) + int32(len(w.K.Blocks[blk].Insns)) - 1
		} else {
			f.gi, f.block = w.G.BlockStart(int(rejoin)), rejoin
		}
		target := int32(d.In.Target)
		w.stack = append(arena.Grow(w.a, w.stack, 2),
			frame{gi: w.G.BlockStart(int(blk + 1)), block: blk + 1, rejoin: rejoin, mask: fall},
			frame{gi: w.G.BlockStart(int(target)), block: target, rejoin: rejoin, mask: taken},
		)
		// Immediately pop if a pushed path starts at its rejoin
		// (degenerate hammock).
		for len(w.stack) > 1 && w.top().block == w.top().rejoin {
			w.stack = w.stack[:len(w.stack)-1]
		}
	}
}

// exit retires the given lanes from every stack frame.
func (w *Warp) exit(mask uint32) {
	for i := range w.stack {
		w.stack[i].mask &^= mask
	}
	// Pop empty frames.
	for len(w.stack) > 0 && w.top().mask == 0 {
		w.stack = w.stack[:len(w.stack)-1]
	}
	if len(w.stack) == 0 {
		w.done = true
	}
}

// StackDepth exposes the SIMT stack depth (diagnostics and tests).
func (w *Warp) StackDepth() int { return len(w.stack) }

// ActiveLaneCount returns the popcount of the current mask.
func (w *Warp) ActiveLaneCount() int { return bits.OnesCount32(w.ActiveMask()) }
