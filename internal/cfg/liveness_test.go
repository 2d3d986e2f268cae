package cfg

import (
	"testing"

	"repro/internal/isa"
)

func TestLivenessStraightline(t *testing.T) {
	b := isa.NewBuilder("s", 1)
	x := b.Movi(1) // gi 0
	y := b.Movi(2) // gi 1
	z := b.Iadd(x, y)
	b.Stg(z, z, 0)
	b.Exit()
	k := b.MustKernel()
	g := New(k)
	lv := ComputeLiveness(g)

	// Before the iadd (gi 2), x and y are live.
	in2 := lv.LiveIn(2)
	if !in2.Get(int(x)) || !in2.Get(int(y)) || in2.Get(int(z)) {
		t.Fatalf("liveIn(2) = %v", in2)
	}
	// After the iadd, only z is live.
	out2 := lv.LiveOut(2)
	if out2.Get(int(x)) || out2.Get(int(y)) || !out2.Get(int(z)) {
		t.Fatalf("liveOut(2) = %v", out2)
	}
	// The iadd is a last use of both sources.
	if !lv.IsLastUse(2, x) || !lv.IsLastUse(2, y) {
		t.Fatal("iadd should be last use of x and y")
	}
	if lv.IsLastUse(2, z) {
		t.Fatal("z is not dead after its definition")
	}
	// Nothing is live before the first instruction.
	if c := lv.LiveIn(0).Count(); c != 0 {
		t.Fatalf("liveIn(0) count = %d", c)
	}
	if lv.MaxLive() != 2 {
		t.Fatalf("MaxLive = %d, want 2", lv.MaxLive())
	}
	counts := lv.LiveCounts()
	want := []int{0, 1, 2, 1, 0}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("LiveCounts = %v, want %v", counts, want)
		}
	}
	// No soft defs in straightline code.
	for gi, s := range lv.SoftDef {
		if s {
			t.Fatalf("unexpected soft def at gi %d", gi)
		}
	}
}

func TestLivenessAcrossLoop(t *testing.T) {
	lv := ComputeLiveness(New(loopKernel(t)))
	i, acc := isa.Reg(0), isa.Reg(1) // loopKernel's counter and accumulator

	// acc and i are live into the loop header (block 1).
	in := lv.BlockLiveIn(1)
	if !in.Get(int(acc)) || !in.Get(int(i)) {
		t.Fatalf("loop header live-in = %v", in)
	}
	// i dies on the loop-exit edge; acc is still live out of the loop.
	out := lv.BlockLiveIn(2)
	if out.Get(int(i)) {
		t.Fatal("i live after loop exit")
	}
	if !out.Get(int(acc)) {
		t.Fatal("acc dead after loop exit")
	}
}

// Figure 7 shape: r1 defined before a branch, redefined on one arm while
// the other arm (and the join) still read the original value. The arm
// redefinition must be detected as a soft definition.
func softDefKernel(t *testing.T) (*isa.Kernel, isa.Reg) {
	t.Helper()
	b := isa.NewBuilder("softdef", 1)
	c := b.Tid()
	r1 := b.Movi(10) // dominating definition
	elseL := b.Label()
	join := b.Label()
	b.Bnz(c, elseL)
	// then-arm (fallthrough): redefinition of r1 — candidate soft def.
	b.MoviTo(r1, 20)
	b.Bra(join)
	b.Bind(elseL)
	// else-arm reads the original r1.
	tmp := b.Iadd(r1, c)
	b.Stg(tmp, tmp, 0)
	b.Bind(join)
	b.Stg(r1, r1, 4) // join reads r1 (either version)
	b.Exit()
	return b.MustKernel(), r1
}

func TestSoftDefDetected(t *testing.T) {
	k, r1 := softDefKernel(t)
	g := New(k)
	lv := ComputeLiveness(g)

	// Find the redefinition (movi r1, 20) — block 1, insn 0.
	gi := g.GlobalIndex(isa.PC{Block: 1, Index: 0})
	if k.Blocks[1].Insns[0].Dst != r1 {
		t.Fatalf("test setup: expected redefinition at B1:0, got %s", k.Blocks[1].Insns[0].String())
	}
	if !lv.SoftDef[gi] {
		t.Fatal("redefinition under divergent control not marked soft")
	}
	// The dominating definition (B0) is not soft.
	gi0 := g.GlobalIndex(isa.PC{Block: 0, Index: 1})
	if lv.SoftDef[gi0] {
		t.Fatal("dominating definition wrongly marked soft")
	}
	// Because the redefinition is soft, r1 must be live *into* it.
	if !lv.LiveIn(gi).Get(int(r1)) {
		t.Fatal("r1 not live into its soft redefinition")
	}
}

// The same shape but with the else-arm NOT reading r1: the then-arm write
// still does not fully kill (divergent lanes), but Algorithm 2 only calls
// it soft if the old value is live on the other edge. With no other reader
// before the join's read... the join read makes it live on the else edge,
// so it is still soft. Remove the join read too and it must be hard.
func TestHardDefWhenNoOtherPathUse(t *testing.T) {
	b := isa.NewBuilder("harddef", 1)
	c := b.Tid()
	r1 := b.Movi(10)
	elseL := b.Label()
	join := b.Label()
	b.Bnz(c, elseL)
	b.MoviTo(r1, 20) // candidate
	b.Stg(r1, r1, 0)
	b.Bra(join)
	b.Bind(elseL)
	b.MoviTo(r1, 30) // the else arm fully overwrites r1 before use
	b.Stg(r1, r1, 4)
	b.Bind(join)
	b.Exit()
	k := b.MustKernel()
	g := New(k)
	lv := ComputeLiveness(g)
	// Neither arm redefinition is soft: the original value is not live
	// on the opposite edge (both arms overwrite before reading).
	for _, pc := range []isa.PC{{Block: 1, Index: 0}, {Block: 2, Index: 0}} {
		if lv.SoftDef[g.GlobalIndex(pc)] {
			t.Fatalf("definition at %v wrongly marked soft", pc)
		}
	}
}
