package exec

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/isa"
)

// runBinop executes `dst = a OP b` for every lane with lane-varying
// operands and returns the destination values.
func runBinop(t *testing.T, op isa.Opcode, af, bf func(lane int) uint32) [isa.WarpWidth]uint32 {
	t.Helper()
	b := isa.NewBuilder("sem", 1)
	lane := b.Lane()
	// a = f(lane) via arithmetic: materialize with shifts and adds is
	// awkward; instead load from memory initialized by the generator.
	a4 := b.Muli(lane, 4)
	av := b.Ldg(a4, 0x1000)
	bv := b.Ldg(a4, 0x2000)
	r := b.Op2(op, av, bv)
	b.Stg(a4, r, 0x3000)
	b.Exit()
	k := b.MustKernel()

	mem := NewMemory(func(addr uint32) uint32 {
		lane := (addr % 0x1000) / 4
		if addr >= 0x2000 {
			return bf(int(lane))
		}
		return af(int(lane))
	})
	g := cfg.New(k)
	w := NewWarp(k, g, 0, 0, mem)
	for !w.Done() {
		w.Step()
	}
	var out [isa.WarpWidth]uint32
	for l := 0; l < isa.WarpWidth; l++ {
		out[l] = mem.LoadGlobal(uint32(0x3000 + 4*l))
	}
	return out
}

func TestBinaryOpSemantics(t *testing.T) {
	af := func(l int) uint32 { return uint32(l*7 + 3) }
	bf := func(l int) uint32 { return uint32(l*13 + 100) }
	cases := []struct {
		op   isa.Opcode
		want func(a, b uint32) uint32
	}{
		{isa.OpIADD, func(a, b uint32) uint32 { return a + b }},
		{isa.OpISUB, func(a, b uint32) uint32 { return a - b }},
		{isa.OpIMUL, func(a, b uint32) uint32 { return a * b }},
		{isa.OpAND, func(a, b uint32) uint32 { return a & b }},
		{isa.OpOR, func(a, b uint32) uint32 { return a | b }},
		{isa.OpXOR, func(a, b uint32) uint32 { return a ^ b }},
		{isa.OpMIN, func(a, b uint32) uint32 {
			if a < b {
				return a
			}
			return b
		}},
		{isa.OpMAX, func(a, b uint32) uint32 {
			if a > b {
				return a
			}
			return b
		}},
		{isa.OpFADD, func(a, b uint32) uint32 { return a + b }},
		{isa.OpFMUL, func(a, b uint32) uint32 { return a * b }},
	}
	for _, c := range cases {
		got := runBinop(t, c.op, af, bf)
		for l := 0; l < isa.WarpWidth; l++ {
			if want := c.want(af(l), bf(l)); got[l] != want {
				t.Fatalf("%v lane %d: got %d, want %d", c.op, l, got[l], want)
			}
		}
	}
}

func TestImmediateOpSemantics(t *testing.T) {
	b := isa.NewBuilder("imm", 1)
	lane := b.Lane()
	addr := b.Muli(lane, 4)
	v1 := b.Addi(lane, 1000)
	v2 := b.OpImm(isa.OpSHLI, v1, 3)
	v3 := b.OpImm(isa.OpSHRI, v2, 1)
	v4 := b.Muli(v3, 5)
	b.Stg(addr, v4, 0x4000)
	b.Exit()
	k := b.MustKernel()
	mem := NewMemory(nil)
	g := cfg.New(k)
	w := NewWarp(k, g, 0, 0, mem)
	for !w.Done() {
		w.Step()
	}
	for l := 0; l < isa.WarpWidth; l++ {
		want := (uint32(l+1000) << 3 >> 1) * 5
		if got := mem.LoadGlobal(uint32(0x4000 + 4*l)); got != want {
			t.Fatalf("lane %d: got %d, want %d", l, got, want)
		}
	}
}

func TestTernaryOpSemantics(t *testing.T) {
	b := isa.NewBuilder("tri", 1)
	lane := b.Lane()
	addr := b.Muli(lane, 4)
	two := b.Movi(2)
	five := b.Movi(5)
	mad := b.Op3(isa.OpIMAD, lane, two, five) // lane*2 + 5
	parity := b.Op2(isa.OpAND, lane, b.Movi(1))
	sel := b.Op3(isa.OpSELP, mad, five, parity) // parity!=0 ? mad : 5
	ffma := b.Op3(isa.OpFFMA, sel, two, lane)   // sel*2 + lane
	b.Stg(addr, ffma, 0x5000)
	b.Exit()
	k := b.MustKernel()
	mem := NewMemory(nil)
	g := cfg.New(k)
	w := NewWarp(k, g, 0, 0, mem)
	for !w.Done() {
		w.Step()
	}
	for l := 0; l < isa.WarpWidth; l++ {
		sel := uint32(5)
		if l%2 == 1 {
			sel = uint32(l*2 + 5)
		}
		want := sel*2 + uint32(l)
		if got := mem.LoadGlobal(uint32(0x5000 + 4*l)); got != want {
			t.Fatalf("lane %d: got %d, want %d", l, got, want)
		}
	}
}

func TestSFUDeterministic(t *testing.T) {
	b := isa.NewBuilder("sfu", 1)
	lane := b.Lane()
	addr := b.Muli(lane, 4)
	s := b.Sfu(lane)
	b.Stg(addr, s, 0x6000)
	b.Exit()
	k := b.MustKernel()
	mem := NewMemory(nil)
	g := cfg.New(k)
	w := NewWarp(k, g, 0, 0, mem)
	for !w.Done() {
		w.Step()
	}
	for l := 0; l < isa.WarpWidth; l++ {
		if got := mem.LoadGlobal(uint32(0x6000 + 4*l)); got != Mix(uint32(l)) {
			t.Fatalf("lane %d: SFU result not Mix(lane)", l)
		}
	}
}

func TestNopAndWid(t *testing.T) {
	b := isa.NewBuilder("nw", 1)
	b.MoviTo(b.NewReg(), 0) // placeholder to allocate r0 deterministically
	wid := b.Wid()
	lane := b.Lane()
	addr := b.Muli(lane, 4)
	b.Stg(addr, wid, 0x7000)
	b.Exit()
	k := b.MustKernel()
	// NOP injection: prepend a NOP by hand.
	k.Blocks[0].Insns = append([]isa.Instruction{{Op: isa.OpNOP,
		Dst: isa.NoReg, Src: [3]isa.Reg{isa.NoReg, isa.NoReg, isa.NoReg}}},
		k.Blocks[0].Insns...)
	mem := NewMemory(nil)
	g := cfg.New(k)
	w := NewWarp(k, g, 5, 0, mem)
	for !w.Done() {
		w.Step()
	}
	if got := mem.LoadGlobal(0x7000); got != 5 {
		t.Fatalf("wid = %d, want 5", got)
	}
}

func TestActiveLaneCountAndMask(t *testing.T) {
	b := isa.NewBuilder("mask", 1)
	lane := b.Lane()
	parity := b.Op2(isa.OpAND, lane, b.Movi(1))
	skip := b.Label()
	b.Bnz(parity, skip)
	b.MoviTo(b.NewReg(), 1) // even lanes only
	b.Bind(skip)
	b.Exit()
	k := b.MustKernel()
	g := cfg.New(k)
	w := NewWarp(k, g, 0, 0, NewMemory(nil))
	if w.ActiveLaneCount() != isa.WarpWidth {
		t.Fatalf("initial active = %d", w.ActiveLaneCount())
	}
	// Step until the divergent movi executes; its mask must be 16 lanes.
	for !w.Done() {
		info := w.Step()
		if info.D.In.Op == isa.OpMOVI && info.D.PC.Block > 0 {
			if n := popcount(info.Mask); n != 16 {
				t.Fatalf("divergent movi mask = %d lanes", n)
			}
		}
	}
	if w.ActiveMask() != 0 {
		t.Fatal("mask nonzero after exit")
	}
}

func popcount(m uint32) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}
