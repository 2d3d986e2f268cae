package experiments

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// coResidentPairs is the kernel pairings the interference table runs:
// a bandwidth-hungry kernel against a compute-leaning one, plus a
// same-kernel pairing (the worst case for L2 set conflicts, since the
// working sets are congruent).
var coResidentPairs = [][2]string{
	{"bfs", "hotspot"},
	{"streamcluster", "nw"},
	{"bfs", "bfs"},
}

// coResidentBias is the L2 address bias separating the second slot's
// congruent virtual layout from the first's (the top half of the
// 32-bit space; no legitimate address reaches it unbiased).
const coResidentBias uint32 = 0x8000_0000

// CoResident (extension) is the multi-kernel co-residency table: two
// kernels split the chip's SMs and contend for the banked L2 and DRAM
// budget. Each pairing is measured three ways — each kernel alone on
// its half of the chip (the isolation baseline; the other half idle),
// then both together — and the table reports the co-residency slowdown
// each kernel suffers, per scheme. RegLess adds register-staging
// traffic to the shared level, so its interference profile is the
// experiment's point.
func CoResident(in *inputs) (*Table, error) {
	t := &Table{
		ID:    "coresident",
		Title: "Multi-kernel co-residency: shared-L2 interference",
		Header: []string{"Pair", "Scheme", "Iso cycles (A/B)", "Co cycles (A/B)",
			"Slowdown A", "Slowdown B", "L2 hit% (iso A/co)"},
	}
	half := in.Opts.SMs / 2
	if half < 1 {
		half = 4
	}
	schemes := []Scheme{SchemeBaseline, SchemeRegLess}
	type cell struct {
		isoA, isoB uint64
		co         *gpu.Result
		isoAL2Hit  float64
	}
	cells := make([]cell, len(coResidentPairs)*len(schemes))
	err := in.Opts.forEach(len(cells), func(i int) error {
		pair := coResidentPairs[i/len(schemes)]
		scheme := schemes[i%len(schemes)]
		var ks [2]*isa.Kernel
		for j, bench := range pair {
			k, err := kernels.Load(bench)
			if err != nil {
				return err
			}
			ks[j] = k
		}
		// chip runs k on its half of the chip, alone or beside co. Every
		// chip is on a banked L2 of its own, a half of one SM included.
		chip := func(k *isa.Kernel, co ...gpu.KernelSlot) (*gpu.Result, error) {
			su := in.Opts.Setup(DefaultCapacity)
			su.CoResident = co
			var err error
			if su.L2, err = mem.NewBankedL2(mem.DefaultBankedL2Config()); err != nil {
				return nil, err
			}
			res, err := Launch([]*isa.Kernel{k}, scheme, half, half*su.Warps, su)
			if err != nil {
				return nil, err
			}
			return res.PerLaunch[0], nil
		}
		resA, err := chip(ks[0])
		if err != nil {
			return fmt.Errorf("%s iso %s: %w", pair[0], scheme, err)
		}
		resB, err := chip(ks[1])
		if err != nil {
			return fmt.Errorf("%s iso %s: %w", pair[1], scheme, err)
		}
		cores, err := chip(ks[0], gpu.KernelSlot{K: ks[1], SMs: half, AddrBias: coResidentBias})
		if err != nil {
			return fmt.Errorf("%s+%s co %s: %w", pair[0], pair[1], scheme, err)
		}
		c := &cells[i]
		c.isoA, c.isoB, c.co = resA.KernelCycles[0], resB.KernelCycles[0], cores
		if tot := resA.L2.Hits + resA.L2.Misses; tot > 0 {
			c.isoAL2Hit = 100 * float64(resA.L2.Hits) / float64(tot)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		pair := coResidentPairs[i/len(schemes)]
		scheme := schemes[i%len(schemes)]
		coHit := 0.0
		if tot := c.co.L2.Hits + c.co.L2.Misses; tot > 0 {
			coHit = 100 * float64(c.co.L2.Hits) / float64(tot)
		}
		t.AddRow(fmt.Sprintf("%s+%s", pair[0], pair[1]), string(scheme),
			fmt.Sprintf("%d/%d", c.isoA, c.isoB),
			fmt.Sprintf("%d/%d", c.co.KernelCycles[0], c.co.KernelCycles[1]),
			f3(float64(c.co.KernelCycles[0])/float64(c.isoA)),
			f3(float64(c.co.KernelCycles[1])/float64(c.isoB)),
			fmt.Sprintf("%.1f/%.1f", c.isoAL2Hit, coHit))
	}
	t.Note(fmt.Sprintf("extension: %d SMs per kernel on a %d-SM chip; slowdown = co-resident / isolated cycles", half, 2*half))
	return t, nil
}
