// Compiler walkthrough: builds a small divergent kernel and shows the
// analyses of paper §4 working — soft definitions (Algorithm 2), region
// creation (Algorithm 1), and the divergence-safe erase/evict/invalidate
// annotations.
package main

import (
	"fmt"
	"log"

	repro "repro"
	"repro/internal/cfg" // same-module access to the analysis layer
	"repro/internal/isa"
	"repro/internal/regions"
)

// buildDivergent reproduces the paper's Figure 7 shape: r1 defined before
// a branch, redefined on one arm while the other arm still reads the
// original value.
func buildDivergent() *repro.Kernel {
	b := repro.NewKernelBuilder("figure7", 8)
	lane := b.Lane()
	parity := b.Op2(isa.OpAND, lane, b.Movi(1))
	r1 := b.Movi(100) // dominating definition
	elseL, join := b.Label(), b.Label()
	b.Bnz(parity, elseL)
	b.MoviTo(r1, 200) // soft: odd lanes still need the old r1
	b.Bra(join)
	b.Bind(elseL)
	keep := b.Iadd(r1, lane) // the other arm reads the original value
	b.Stg(keep, keep, 0x0200_0000)
	b.Bind(join)
	out := b.Iadd(r1, lane)
	addr := b.Addi(b.Muli(lane, 4), 0x0280_0000)
	b.Stg(addr, out, 0)
	b.Exit()
	return b.MustKernel()
}

func main() {
	k, err := repro.AllocateRegisters(buildDivergent())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(k.Disassemble())

	g := cfg.New(k)
	lv := cfg.ComputeLiveness(g)
	fmt.Println("\nsoft definitions (Algorithm 2):")
	for bi, blk := range k.Blocks {
		for i := range blk.Insns {
			gi := g.GlobalIndex(isa.PC{Block: bi, Index: i})
			if lv.SoftDef[gi] {
				fmt.Printf("  B%d:%d  %-24s <- does not kill: inactive lanes still hold the old value\n",
					bi, i, blk.Insns[i].String())
			}
		}
	}

	c, err := repro.CompileKernel(k, repro.DefaultCompilerConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nregions and annotations:")
	for _, r := range c.Regions {
		fmt.Printf("  region %d (B%d[%d,%d)):", r.ID, r.Block, r.Start, r.End)
		for _, p := range r.Preloads {
			if p.Invalidate {
				fmt.Printf(" preload %v(invalidating)", p.Reg)
			} else {
				fmt.Printf(" preload %v", p.Reg)
			}
		}
		for _, reg := range r.CacheInvalidations {
			fmt.Printf(" cache-invalidate %v", reg)
		}
		fmt.Println()
		for _, gi := range regions.Indices(r.EraseAt) {
			fmt.Printf("      erase %v at %v (value fully dead)\n", r.EraseAt[gi], g.PCOf(gi))
		}
		for _, gi := range regions.Indices(r.EvictAt) {
			fmt.Printf("      evict %v at %v (may still be needed: divergent sibling or later region)\n",
				r.EvictAt[gi], g.PCOf(gi))
		}
	}
	fmt.Println("\nNote how the redefined register is preloaded (its inactive-lane values")
	fmt.Println("must be merged) and is only ever *evicted*, never erased, inside the")
	fmt.Println("divergent arms: the sibling path's lanes still need it (§4.4).")
}
