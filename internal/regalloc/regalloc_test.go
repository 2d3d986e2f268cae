package regalloc

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

func TestAllocateStraightlineReuses(t *testing.T) {
	b := isa.NewBuilder("chain", 1)
	// A long dependence chain: each value dies immediately, so the
	// allocator should reuse a handful of registers, not 20.
	v := b.Movi(1)
	for i := 0; i < 20; i++ {
		v = b.Addi(v, 1)
	}
	b.Stg(v, v, 0)
	b.Exit()
	k := b.MustKernel()
	res, err := Allocate(k)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumArchRegs >= k.NumRegs {
		t.Fatalf("no reuse: %d arch regs from %d virtuals", res.NumArchRegs, k.NumRegs)
	}
	if res.NumArchRegs > 4 {
		t.Fatalf("chain needs few registers, got %d", res.NumArchRegs)
	}
}

func TestAllocatePreservesStructure(t *testing.T) {
	b := isa.NewBuilder("s", 1)
	x := b.Movi(3)
	y := b.Movi(4)
	z := b.Iadd(x, y)
	b.Stg(z, z, 0)
	b.Exit()
	k := b.MustKernel()
	res, err := Allocate(k)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Kernel
	if out.NumInsns() != k.NumInsns() || len(out.Blocks) != len(k.Blocks) {
		t.Fatal("allocation changed kernel shape")
	}
	// x and y overlap (both live at the iadd) so must differ.
	if res.Assign[x] == res.Assign[y] {
		t.Fatalf("overlapping virtuals share a register: %v", res.Assign)
	}
	// The original kernel must be untouched.
	if k.Blocks[0].Insns[2].Src[0] != x {
		t.Fatal("Allocate mutated its input")
	}
}

func TestOverlappingIntervalsDistinctColors(t *testing.T) {
	for _, k := range []*isa.Kernel{randomKernel(1), randomKernel(2), randomKernel(3), diamondLoop()} {
		res, err := Allocate(k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		checkNoColorConflicts(t, res)
	}
}

func checkNoColorConflicts(t *testing.T, res *Result) {
	t.Helper()
	for v1, iv1 := range res.Intervals {
		if iv1.Start < 0 {
			continue
		}
		for v2 := v1 + 1; v2 < len(res.Intervals); v2++ {
			iv2 := res.Intervals[v2]
			if iv2.Start < 0 {
				continue
			}
			if iv1.Overlaps(iv2) && res.Assign[v1] == res.Assign[v2] {
				t.Fatalf("virtuals %d and %d overlap (%v vs %v) but share %v",
					v1, v2, iv1, iv2, res.Assign[v1])
			}
		}
	}
}

// randomKernel builds a structured random kernel: straightline chunks,
// if/else diamonds, and counted loops with varying value lifetimes.
func randomKernel(seed int64) *isa.Kernel {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder("rand", 2)
	live := []isa.Reg{b.Tid(), b.Movi(7)}
	pick := func() isa.Reg { return live[rng.Intn(len(live))] }
	for step := 0; step < 12; step++ {
		switch rng.Intn(4) {
		case 0: // straightline ALU
			for i := 0; i < 1+rng.Intn(4); i++ {
				r := b.Iadd(pick(), pick())
				live = append(live, r)
			}
		case 1: // diamond
			elseL, join := b.Label(), b.Label()
			c := b.OpImm(isa.OpIADDI, pick(), uint32(rng.Intn(3)))
			b.Bnz(c, elseL)
			t1 := b.Addi(pick(), 1)
			b.Bra(join)
			b.Bind(elseL)
			t2 := b.Addi(pick(), 2)
			b.Bind(join)
			r := b.Iadd(t1, t2) // soft-ish merge of both arms
			live = append(live, r)
		case 2: // counted loop
			i := b.Movi(uint32(2 + rng.Intn(3)))
			acc := b.Movi(0)
			top := b.Label()
			b.Bind(top)
			b.Op2To(isa.OpIADD, acc, acc, pick())
			b.OpImmTo(isa.OpIADDI, i, i, ^uint32(0))
			b.Bnz(i, top)
			live = append(live, acc)
		case 3: // memory
			addr := b.Muli(pick(), 4)
			v := b.Ldg(addr, 0)
			b.Stg(addr, v, 64)
			live = append(live, v)
		}
		if len(live) > 8 {
			live = live[len(live)-8:]
		}
	}
	b.Stg(pick(), pick(), 0)
	b.Exit()
	return b.MustKernel()
}

func diamondLoop() *isa.Kernel {
	b := isa.NewBuilder("dloop", 2)
	i := b.Movi(5)
	acc := b.Movi(0)
	tidv := b.Tid()
	top := b.Label()
	elseL := b.Label()
	join := b.Label()
	b.Bind(top)
	b.Bnz(tidv, elseL)
	b.Op2To(isa.OpIADD, acc, acc, i) // soft def under divergence
	b.Bra(join)
	b.Bind(elseL)
	b.Op2To(isa.OpISUB, acc, acc, i) // the other arm's soft def
	b.Bind(join)
	b.OpImmTo(isa.OpIADDI, i, i, ^uint32(0))
	b.Bnz(i, top)
	b.Stg(acc, acc, 0)
	b.Exit()
	return b.MustKernel()
}

func TestLoopCarriedNotClobbered(t *testing.T) {
	// A value defined before a loop and read at the top of each
	// iteration must not share a register with a value defined at the
	// bottom of the loop body.
	b := isa.NewBuilder("carry", 1)
	base := b.Movi(100) // live across the whole loop
	i := b.Movi(4)
	acc := b.Movi(0)
	top := b.Label()
	b.Bind(top)
	b.Op2To(isa.OpIADD, acc, acc, base) // reads base at top
	tmp := b.Addi(acc, 9)               // defined at bottom of body
	b.Op2To(isa.OpMAX, acc, acc, tmp)
	b.OpImmTo(isa.OpIADDI, i, i, ^uint32(0))
	b.Bnz(i, top)
	b.Stg(acc, acc, 0)
	b.Exit()
	k := b.MustKernel()
	res, err := Allocate(k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[base] == res.Assign[tmp] {
		t.Fatal("loop-carried value shares a register with a body temporary")
	}
	checkNoColorConflicts(t, res)
}

func TestBankPreference(t *testing.T) {
	// With plenty of free registers, operands of one instruction should
	// land in distinct banks when possible. Build many independent pairs
	// and check the adds' source banks differ more often than not.
	b := isa.NewBuilder("banks", 1)
	sink := b.Movi(0)
	for i := 0; i < 10; i++ {
		x := b.Movi(uint32(i))
		y := b.Movi(uint32(i + 1))
		z := b.Iadd(x, y)
		b.Op2To(isa.OpMAX, sink, sink, z)
	}
	b.Stg(sink, sink, 0)
	b.Exit()
	k := b.MustKernel()
	res, err := Allocate(k)
	if err != nil {
		t.Fatal(err)
	}
	checkNoColorConflicts(t, res)
	conflicts := 0
	total := 0
	for _, blk := range res.Kernel.Blocks {
		for j := range blk.Insns {
			in := &blk.Insns[j]
			if in.Op != isa.OpIADD {
				continue
			}
			total++
			if int(in.Src[0])%isa.NumBanks == int(in.Src[1])%isa.NumBanks {
				conflicts++
			}
		}
	}
	if total == 0 {
		t.Fatal("no adds found")
	}
	if conflicts > total/2 {
		t.Fatalf("bank conflicts on %d/%d adds", conflicts, total)
	}
}
