package exec

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/isa"
)

// laneMasks are the active-lane masks every opcode is stepped under: none,
// all, single lanes at both ends and the middle, alternating lanes, and
// 200 seeded random masks.
func laneMasks() []uint32 {
	ms := []uint32{0, FullMask, 1, 1 << 16, 1 << 31, 0x55555555, 0xAAAAAAAA}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		ms = append(ms, rng.Uint32())
	}
	return ms
}

// opKernel is one instruction of opcode op over registers r0..r3 (r0 is
// the destination, r1..r3 the sources), then EXIT; a conditional branch
// gets two exiting arms, B1 on fallthrough and B2 taken.
func opKernel(op isa.Opcode, imm uint32) *isa.Kernel {
	in := isa.Instruction{Op: op, Dst: isa.NoReg, Src: [3]isa.Reg{isa.NoReg, isa.NoReg, isa.NoReg}, Imm: imm}
	if op.HasDst() {
		in.Dst = 0
	}
	for s := 0; s < op.NumSrc(); s++ {
		in.Src[s] = isa.Reg(1 + s)
	}
	k := &isa.Kernel{Name: "lane-" + op.String(), NumRegs: 4, WarpsPerCTA: 1}
	exit := isa.Instruction{Op: isa.OpEXIT, Dst: isa.NoReg, Src: [3]isa.Reg{isa.NoReg, isa.NoReg, isa.NoReg}}
	switch op {
	case isa.OpEXIT:
		k.Blocks = []*isa.BasicBlock{{ID: 0, Insns: []isa.Instruction{in}}}
	case isa.OpBNZ, isa.OpBZ, isa.OpBRA:
		in.Target = 2
		k.Blocks = []*isa.BasicBlock{
			{ID: 0, Insns: []isa.Instruction{in}},
			{ID: 1, Insns: []isa.Instruction{exit}},
			{ID: 2, Insns: []isa.Instruction{exit}},
		}
	default:
		k.Blocks = []*isa.BasicBlock{{ID: 0, Insns: []isa.Instruction{in, exit}}}
	}
	return k
}

// refLane is the per-lane reference semantics of a value-producing
// opcode (the ISA's normative comments, lane by lane).
func refLane(op isa.Opcode, a, b, c, imm uint32, lane, warpID int) uint32 {
	switch op {
	case isa.OpMOVI:
		return imm
	case isa.OpTID:
		return uint32(warpID*isa.WarpWidth + lane)
	case isa.OpLANE:
		return uint32(lane)
	case isa.OpWID:
		return uint32(warpID)
	case isa.OpIADD, isa.OpFADD:
		return a + b
	case isa.OpISUB:
		return a - b
	case isa.OpIADDI:
		return a + imm
	case isa.OpIMUL, isa.OpFMUL:
		return a * b
	case isa.OpIMULI:
		return a * imm
	case isa.OpIMAD, isa.OpFFMA:
		return a*b + c
	case isa.OpAND:
		return a & b
	case isa.OpOR:
		return a | b
	case isa.OpXOR:
		return a ^ b
	case isa.OpSHLI:
		return a << (imm & 31)
	case isa.OpSHRI:
		return a >> (imm & 31)
	case isa.OpMIN:
		if b < a {
			return b
		}
		return a
	case isa.OpMAX:
		if b > a {
			return b
		}
		return a
	case isa.OpSELP:
		if c != 0 {
			return a
		}
		return b
	case isa.OpSFU:
		return Mix(a)
	}
	panic("no value semantics for " + op.String())
}

// TestStepIntoMatchesPerLaneReference steps every opcode under every mask
// of laneMasks over random register contents and holds the result to a
// lane-at-a-time reference: active lanes get the op's value and inactive
// lanes keep theirs, a branch's taken set is the lanes whose condition
// says so (the fallthrough and taken frames carry the split), and memory
// operations report their active lanes' addresses in lane order and
// load or store exactly those lanes, later lanes last.
func TestStepIntoMatchesPerLaneReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		imm := rng.Uint32()
		if op.IsMemory() {
			imm = 0x40 // the addresses below straddle a page boundary
		}
		k := opKernel(op, imm)
		if err := k.Validate(); err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		g := cfg.New(k)
		mem := NewMemory(nil)
		refGlobal := map[uint32]uint32{}
		refShared := map[uint32]uint32{}
		const warpID = 5
		w := NewWarp(k, g, warpID, 0, mem)
		for _, mask := range laneMasks() {
			w.stack = append(w.stack[:0], frame{rejoin: -1, mask: mask})
			w.done = false
			for r := range w.Regs {
				for lane := range w.Regs[r] {
					w.Regs[r][lane] = rng.Uint32()
				}
			}
			if op.IsMemory() {
				for lane := range w.Regs[1] {
					// 0x1FF80 + up to 0x100: both sides of the 64 KiB page
					// boundary, and repeats, so later lanes overwrite.
					w.Regs[1][lane] = 0x1FF80 + uint32(rng.Intn(64))*4
				}
			}
			before := slices.Clone(w.Regs)
			var info StepInfo
			w.StepInto(&info)
			if info.D != &g.Insns[0] || info.Mask != mask {
				t.Fatalf("%v mask %#x: StepInfo names insn %v mask %#x", op, mask, info.D.In.Op, info.Mask)
			}
			check := func(what string, got, want any) {
				t.Helper()
				if !equalAny(got, want) {
					t.Fatalf("%v mask %#x: %s = %v, want %v", op, mask, what, got, want)
				}
			}
			want := slices.Clone(before)
			var addrs []uint32
			switch {
			case op == isa.OpLDG || op == isa.OpLDS || op == isa.OpSTG || op == isa.OpSTS:
				for lane := 0; lane < isa.WarpWidth; lane++ {
					if mask&(1<<lane) == 0 {
						continue
					}
					a := before[1][lane] + imm
					addrs = append(addrs, a)
					wa := a &^ 3
					switch op {
					case isa.OpLDG:
						v, ok := refGlobal[wa]
						if !ok {
							v = Mix(wa)
						}
						want[0][lane] = v
					case isa.OpLDS:
						want[0][lane] = refShared[wa]
					case isa.OpSTG:
						refGlobal[wa] = before[2][lane]
					case isa.OpSTS:
						refShared[wa] = before[2][lane]
					}
				}
				if addrs == nil {
					addrs = []uint32{}
				}
				check("Addrs", info.Addrs, addrs)
				for wa, v := range refGlobal {
					check("global word", mem.LoadGlobal(wa), v)
				}
				for wa, v := range refShared {
					check("shared word", mem.LoadShared(0, wa), v)
				}
			case op.HasDst():
				for lane := 0; lane < isa.WarpWidth; lane++ {
					if mask&(1<<lane) != 0 {
						want[0][lane] = refLane(op, before[1][lane], before[2][lane], before[3][lane], imm, lane, warpID)
					}
				}
			}
			check("registers", w.Regs, want)
			if !op.IsMemory() && info.Addrs != nil {
				t.Fatalf("%v: Addrs %v on a non-memory op", op, info.Addrs)
			}
			switch op {
			case isa.OpBNZ, isa.OpBZ:
				var taken uint32
				for lane := 0; lane < isa.WarpWidth; lane++ {
					nz := before[1][lane] != 0
					if mask&(1<<lane) != 0 && nz == (op == isa.OpBNZ) {
						taken |= 1 << lane
					}
				}
				check("frames", slices.Clone(w.stack), branchFrames(g, mask, taken))
			case isa.OpBRA:
				check("frames", slices.Clone(w.stack), []frame{{gi: g.BlockStart(2), block: 2, rejoin: -1, mask: mask}})
			case isa.OpEXIT:
				check("done", w.Done(), true)
				check("exited", info.Exited, true)
			default:
				check("frames", slices.Clone(w.stack), []frame{{gi: 1, block: 0, rejoin: -1, mask: mask}})
				check("barrier", info.AtBarrier, op == isa.OpBAR)
			}
		}
	}
}

// branchFrames is the SIMT stack a conditional branch at the end of B0
// leaves under mask with the given taken lanes: both arms exit, so a
// divergent split parks the bottom frame on the branch and pushes the
// fallthrough (B1) and then the taken (B2) path with no rejoin.
func branchFrames(g *cfg.Graph, mask, taken uint32) []frame {
	fall := mask &^ taken
	switch {
	case taken == 0:
		return []frame{{gi: g.BlockStart(1), block: 1, rejoin: -1, mask: mask}}
	case fall == 0:
		return []frame{{gi: g.BlockStart(2), block: 2, rejoin: -1, mask: mask}}
	}
	return []frame{
		{gi: 0, block: 0, rejoin: -1, mask: mask},
		{gi: g.BlockStart(1), block: 1, rejoin: -1, mask: fall},
		{gi: g.BlockStart(2), block: 2, rejoin: -1, mask: taken},
	}
}

func equalAny(a, b any) bool {
	switch x := a.(type) {
	case []uint32:
		return slices.Equal(x, b.([]uint32))
	case [][isa.WarpWidth]uint32:
		return slices.Equal(x, b.([][isa.WarpWidth]uint32))
	case []frame:
		return slices.Equal(x, b.([]frame))
	}
	return a == b
}

// benchWarp returns a warp parked in an endless loop of arithmetic (one
// of each two- and three-source shape, an immediate op, a select and a
// shift): fully active, or diverged on a branch with an irregular half of
// the lanes in the loop (those whose hashed lane number is odd: a fixed
// mask, but no short period for a per-lane branch to learn).
func benchWarp(b *testing.B, divergent bool) *Warp {
	bl := isa.NewBuilder("bench-step", 1)
	lane := bl.Lane()
	x, y := bl.Addi(lane, 3), bl.Muli(lane, 7)
	odd := bl.Op2(isa.OpAND, bl.Sfu(lane), bl.Movi(1))
	loop := bl.Label()
	setup := 6
	if divergent {
		bl.Bnz(odd, loop)
		bl.Exit()
		setup++
	}
	bl.Bind(loop)
	bl.Op2To(isa.OpIADD, x, x, y)
	bl.Op3To(isa.OpIMAD, y, x, y, lane)
	bl.OpImmTo(isa.OpSHLI, x, x, 1)
	bl.Op2To(isa.OpXOR, y, y, x)
	bl.Op3To(isa.OpSELP, x, x, y, odd)
	bl.Op2To(isa.OpMIN, y, y, x)
	bl.Bra(loop)
	end := bl.Label()
	bl.Bind(end)
	bl.Exit()
	k := bl.MustKernel()
	w := NewWarp(k, cfg.New(k), 0, 0, NewMemory(nil))
	for i := 0; i < setup; i++ {
		w.Step()
	}
	want := FullMask
	if divergent {
		want = 0
		for lane := 0; lane < isa.WarpWidth; lane++ {
			want |= (Mix(uint32(lane)) & 1) << lane
		}
	}
	if got := w.ActiveMask(); got != want || w.Decoded().In.Op != isa.OpIADD {
		b.Fatalf("warp parked at %v under %#x, want the loop under %#x", w.Decoded().In.Op, got, want)
	}
	return w
}

// BenchmarkStepInto is the functional step of one warp instruction,
// fully active and diverged (the odd lanes), in ns per instruction.
func BenchmarkStepInto(b *testing.B) {
	for _, c := range []struct {
		name      string
		divergent bool
	}{{"full", false}, {"divergent", true}} {
		b.Run(c.name, func(b *testing.B) {
			w := benchWarp(b, c.divergent)
			lanes := bits.OnesCount32(w.ActiveMask())
			var info StepInfo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.StepInto(&info)
			}
			if bits.OnesCount32(info.Mask) != lanes {
				b.Fatalf("stepped under %#x", info.Mask)
			}
		})
	}
}
