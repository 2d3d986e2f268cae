// Command kernelinfo inspects the RegLess compiler's output for a
// benchmark or for all of them: disassembly, region boundaries, register
// classification, annotations, and metadata cost.
//
// Usage:
//
//	kernelinfo -bench lud            # full dump for one benchmark
//	kernelinfo -bench lud -asm       # disassembly only
//	kernelinfo -summary              # one summary line per benchmark
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/metadata"
	"repro/internal/regions"
)

func main() {
	cfg := regions.DefaultConfig()
	var (
		bench   = flag.String("bench", "", "benchmark to inspect")
		file    = flag.String("file", "", "assembly file to inspect instead of a benchmark")
		format  = flag.Bool("format", false, "emit the kernel in assembly format and exit")
		asmOnly = flag.Bool("asm", false, "print disassembly only")
		summary = flag.Bool("summary", false, "print one summary line per benchmark")
	)
	flag.IntVar(&cfg.MaxRegsPerRegion, "max-regs", cfg.MaxRegsPerRegion, "compiler: max registers per region")
	flag.IntVar(&cfg.BankLines, "bank-lines", cfg.BankLines, "compiler: OSU lines per bank")
	flag.Parse()

	if *summary {
		fmt.Printf("%-16s %5s %6s %12s %9s %9s %9s %9s\n",
			"benchmark", "regs", "insns", "insns/region", "preloads", "maxlive", "interior", "meta")
		for _, b := range kernels.Suite() {
			k := kernels.MustLoad(b.Name)
			c, err := regions.Compile(k, cfg)
			check(err)
			total, err := metadata.Apply(c)
			check(err)
			s := c.Summarize()
			fmt.Printf("%-16s %5d %6d %12.1f %9.1f %9.1f %9.2f %9d\n",
				b.Name, k.NumRegs, k.NumInsns(), s.AvgInsns, s.AvgPreloads,
				s.MeanMaxLive, s.InteriorFrac, total)
		}
		return
	}

	var k *isa.Kernel
	var err error
	switch {
	case *file != "":
		src, rerr := os.ReadFile(*file)
		check(rerr)
		k, err = asm.Parse(string(src))
	case *bench != "":
		k, err = kernels.Load(*bench)
	default:
		flag.Usage()
		os.Exit(2)
	}
	check(err)
	if *format {
		fmt.Print(asm.Format(k))
		return
	}
	fmt.Print(k.Disassemble())
	if *asmOnly {
		return
	}
	c, err := regions.Compile(k, cfg)
	check(err)
	if _, err := metadata.Apply(c); err != nil {
		check(err)
	}
	fmt.Println()
	for _, r := range c.Regions {
		fmt.Printf("region %2d  B%d[%d,%d)  maxlive=%d  meta=%d insns\n",
			r.ID, r.Block, r.Start, r.End, r.MaxLive, r.MetaInsns)
		fmt.Printf("  bank usage   %v\n", r.BankUsage)
		if len(r.Preloads) > 0 {
			fmt.Printf("  preloads    ")
			for _, p := range r.Preloads {
				if p.Invalidate {
					fmt.Printf(" %v(inv)", p.Reg)
				} else {
					fmt.Printf(" %v", p.Reg)
				}
			}
			fmt.Println()
		}
		if len(r.CacheInvalidations) > 0 {
			fmt.Printf("  cache inval  %v\n", r.CacheInvalidations)
		}
		if len(r.Interior) > 0 {
			fmt.Printf("  interior     %v\n", r.Interior)
		}
		if len(r.Outputs) > 0 {
			fmt.Printf("  outputs      %v\n", r.Outputs)
		}
		for _, gi := range regions.Indices(r.EraseAt) {
			fmt.Printf("  erase @%d   %v\n", gi, r.EraseAt[gi])
		}
		for _, gi := range regions.Indices(r.EvictAt) {
			fmt.Printf("  evict @%d   %v\n", gi, r.EvictAt[gi])
		}
	}
	s := c.Summarize()
	fmt.Printf("\n%d regions, %.1f insns/region, %.1f preloads/region, interior value fraction %.2f\n",
		s.NumRegions, s.AvgInsns, s.AvgPreloads, s.InteriorFrac)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
