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

// frame is one SIMT reconvergence stack entry: execute from pc under mask
// until reaching block rejoin (-1 = never, the bottom frame).
type frame struct {
	pc     isa.PC
	rejoin int
	mask   uint32
}

// StepInfo describes one executed instruction, for the timing simulator.
type StepInfo struct {
	PC   isa.PC
	Insn *isa.Instruction
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
	stepped uint64 // dynamic instruction count
}

// NewWarp creates a warp at the kernel entry with all lanes active.
// Graph g must be k's (cfg.For; shared across warps).
func NewWarp(k *isa.Kernel, g *cfg.Graph, id, cta int, mem *Memory) *Warp {
	return NewWarpOn(nil, make([][isa.WarpWidth]uint32, k.NumRegs), k, g, id, cta, mem)
}

var (
	warpT  = arena.Of[Warp]()
	frameT = arena.Of[frame]()
)

// NewWarpOn is NewWarp made from a (nil: the heap) over caller-provided
// register storage: k.NumRegs zeroed registers (a RegFile's Warp slice).
func NewWarpOn(a *arena.Arena, regs [][isa.WarpWidth]uint32, k *isa.Kernel, g *cfg.Graph, id, cta int, mem *Memory) *Warp {
	w := warpT.New(a)
	*w = Warp{
		ID:   id,
		CTA:  cta,
		K:    k,
		G:    g,
		Mem:  mem,
		Regs: regs,
		a:    a,
		// Room for divergence nested three deep before the stack regrows.
		stack: frameT.Make(a, 8)[:0],
	}
	w.stack = append(w.stack, frame{pc: isa.PC{Block: 0, Index: 0}, rejoin: -1, mask: FullMask})
	return w
}

// Done reports whether every lane has exited.
func (w *Warp) Done() bool { return w.done }

// Steps returns the dynamic instruction count executed so far.
func (w *Warp) Steps() uint64 { return w.stepped }

// PC returns the next instruction's location. Only valid when !Done().
func (w *Warp) PC() isa.PC { return w.top().pc }

// Insn returns the next instruction to execute. Only valid when !Done().
func (w *Warp) Insn() *isa.Instruction { return w.K.At(w.top().pc) }

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
	pc := f.pc
	in := w.K.At(pc)
	mask := f.mask
	*info = StepInfo{PC: pc, Insn: in, Mask: mask}
	w.stepped++

	// Arithmetic cases carry their own lane loops rather than sharing a
	// closure-taking helper: the old binop/triop shape cost two indirect
	// calls per lane (helper -> writeDst -> op), which dominated the
	// functional step. A full-mask loop with the op inline vectorizes to
	// straight-line array code.
	switch in.Op {
	case isa.OpNOP:
		w.advance()
	case isa.OpMOVI:
		d := &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = in.Imm
			}
		}
		w.advance()
	case isa.OpTID:
		d := &w.Regs[in.Dst]
		base := uint32(w.ID * isa.WarpWidth)
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = base + uint32(lane)
			}
		}
		w.advance()
	case isa.OpLANE:
		d := &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = uint32(lane)
			}
		}
		w.advance()
	case isa.OpWID:
		d := &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = uint32(w.ID)
			}
		}
		w.advance()
	case isa.OpIADD, isa.OpFADD:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane] + b[lane]
			}
		}
		w.advance()
	case isa.OpISUB:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane] - b[lane]
			}
		}
		w.advance()
	case isa.OpIADDI:
		a, d, imm := &w.Regs[in.Src[0]], &w.Regs[in.Dst], in.Imm
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane] + imm
			}
		}
		w.advance()
	case isa.OpIMUL, isa.OpFMUL:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane] * b[lane]
			}
		}
		w.advance()
	case isa.OpIMULI:
		a, d, imm := &w.Regs[in.Src[0]], &w.Regs[in.Dst], in.Imm
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane] * imm
			}
		}
		w.advance()
	case isa.OpIMAD, isa.OpFFMA:
		a, b, c := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Src[2]]
		d := &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane]*b[lane] + c[lane]
			}
		}
		w.advance()
	case isa.OpAND:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane] & b[lane]
			}
		}
		w.advance()
	case isa.OpOR:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane] | b[lane]
			}
		}
		w.advance()
	case isa.OpXOR:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane] ^ b[lane]
			}
		}
		w.advance()
	case isa.OpSHLI:
		a, d, sh := &w.Regs[in.Src[0]], &w.Regs[in.Dst], in.Imm&31
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane] << sh
			}
		}
		w.advance()
	case isa.OpSHRI:
		a, d, sh := &w.Regs[in.Src[0]], &w.Regs[in.Dst], in.Imm&31
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = a[lane] >> sh
			}
		}
		w.advance()
	case isa.OpMIN:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				v := a[lane]
				if b[lane] < v {
					v = b[lane]
				}
				d[lane] = v
			}
		}
		w.advance()
	case isa.OpMAX:
		a, b, d := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				v := a[lane]
				if b[lane] > v {
					v = b[lane]
				}
				d[lane] = v
			}
		}
		w.advance()
	case isa.OpSELP:
		a, b, c := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]], &w.Regs[in.Src[2]]
		d := &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				if c[lane] != 0 {
					d[lane] = a[lane]
				} else {
					d[lane] = b[lane]
				}
			}
		}
		w.advance()
	case isa.OpSFU:
		s, d := &w.Regs[in.Src[0]], &w.Regs[in.Dst]
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) != 0 {
				d[lane] = Mix(s[lane])
			}
		}
		w.advance()
	case isa.OpLDG, isa.OpLDS:
		// The lanes of a global access mostly share a 64 KiB page: it is
		// resolved when a lane leaves the previous lane's, not per lane.
		addrs, dst := &w.Regs[in.Src[0]], &w.Regs[in.Dst]
		var pg *page
		key, n := ^uint32(0), 0
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) == 0 {
				continue
			}
			a := addrs[lane] + in.Imm
			w.addrBuf[n] = a
			n++
			if in.Op == isa.OpLDS {
				dst[lane] = w.Mem.LoadShared(w.CTA, a)
				continue
			}
			if a = wordAddr(a); a>>pageShift != key {
				key, pg = a>>pageShift, w.Mem.global.lookup(a)
			}
			dst[lane] = w.Mem.loadGlobalIn(pg, a)
		}
		info.Addrs = w.addrBuf[:n]
		w.advance()
	case isa.OpSTG, isa.OpSTS:
		addrs, vals := &w.Regs[in.Src[0]], &w.Regs[in.Src[1]]
		var pg *page
		key, n := ^uint32(0), 0
		for lane := 0; lane < isa.WarpWidth; lane++ {
			if mask&(1<<uint(lane)) == 0 {
				continue
			}
			a := addrs[lane] + in.Imm
			w.addrBuf[n] = a
			n++
			if in.Op == isa.OpSTS {
				w.Mem.StoreShared(w.CTA, a, vals[lane])
				continue
			}
			if a = wordAddr(a); a>>pageShift != key {
				key, pg = a>>pageShift, w.Mem.global.ensure(w.Mem.a, a)
			}
			pg.store(a, vals[lane])
		}
		info.Addrs = w.addrBuf[:n]
		w.advance()
	case isa.OpBNZ, isa.OpBZ:
		cond := &w.Regs[in.Src[0]]
		var taken uint32
		for lane := 0; lane < isa.WarpWidth; lane++ {
			bit := uint32(1) << uint(lane)
			if mask&bit == 0 {
				continue
			}
			nz := cond[lane] != 0
			if (in.Op == isa.OpBNZ) == nz {
				taken |= bit
			}
		}
		w.branch(pc, in.Target, taken, mask)
	case isa.OpBRA:
		w.jump(in.Target)
	case isa.OpBAR:
		info.AtBarrier = true
		w.advance()
	case isa.OpEXIT:
		w.exit(mask)
		info.Exited = w.done
	default:
		panic(fmt.Sprintf("exec: unhandled opcode %v", in.Op))
	}
}

// advance moves to the next instruction, following fallthrough at block
// ends and popping reconvergence frames whose rejoin block is reached.
func (w *Warp) advance() {
	f := w.top()
	f.pc.Index++
	if f.pc.Index >= len(w.K.Blocks[f.pc.Block].Insns) {
		w.toBlock(f.pc.Block + 1)
	}
}

// jump transfers the top frame to the start of block b, handling
// reconvergence pops.
func (w *Warp) jump(b int) { w.toBlock(b) }

func (w *Warp) toBlock(b int) {
	f := w.top()
	f.pc = isa.PC{Block: b, Index: 0}
	// Pop frames whose reconvergence block has been reached. The frame
	// below resumes at its own pc: sibling frames hold the other
	// divergent path, and the parent frame was parked at this rejoin
	// block when the divergence was created.
	for len(w.stack) > 1 && w.top().pc.Block == w.top().rejoin {
		w.stack = w.stack[:len(w.stack)-1]
	}
}

// branch handles a potentially divergent conditional branch at pc with the
// given taken mask.
func (w *Warp) branch(pc isa.PC, target int, taken, mask uint32) {
	fall := mask &^ taken
	switch {
	case taken == 0:
		w.advance()
	case fall == 0:
		w.jump(target)
	default:
		// Divergence: reconverge at the immediate postdominator of
		// the branch block. Replace the current frame position with
		// the reconvergence point, then push the fallthrough and
		// taken paths (taken executes first).
		rejoin := w.G.IPDom[pc.Block]
		f := w.top()
		if rejoin == -1 {
			// No reconvergence (both arms exit); run arms to
			// completion with rejoin sentinel -1.
			f.pc = isa.PC{Block: pc.Block, Index: len(w.K.Blocks[pc.Block].Insns) - 1}
			// This frame becomes unreachable once both arms exit.
		} else {
			f.pc = isa.PC{Block: rejoin, Index: 0}
		}
		w.stack = append(frameT.Grow(w.a, w.stack, 2),
			frame{pc: isa.PC{Block: pc.Block + 1, Index: 0}, rejoin: rejoin, mask: fall},
			frame{pc: isa.PC{Block: target, Index: 0}, rejoin: rejoin, mask: taken},
		)
		// Immediately pop if a pushed path starts at its rejoin
		// (degenerate hammock).
		for len(w.stack) > 1 && w.top().pc.Block == w.top().rejoin {
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
