package experiments

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/launch"
)

// Oversubscription (extension) demonstrates the paper's related-work claim
// that "RegLess would be able to oversubscribe the register file without
// any design changes" (§7). The workload's per-warp register footprint
// exceeds 2048/64 = 32 registers, so the baseline register file caps
// occupancy at floor(2048 / regsPerWarp) resident warps and must run the
// grid in more waves; RegLess stages per-region registers only, keeps all
// 64 warps resident, and finishes the same grid in fewer waves.
func Oversubscription(in *inputs) (*Table, error) {
	k, err := kernels.MicroOccupancy()
	if err != nil {
		return nil, err
	}
	fullWarps := in.Opts.Warps
	// Occupancy limit, aligned down to a CTA-size multiple.
	baseWarps := BaselineEntries / k.NumRegs / k.WarpsPerCTA * k.WarpsPerCTA
	if baseWarps > fullWarps {
		baseWarps = fullWarps
	}
	if baseWarps < k.WarpsPerCTA {
		baseWarps = k.WarpsPerCTA
	}
	grid := 2 * fullWarps // the same total work for both schemes

	// The two launches are independent (each gets a private functional
	// memory, and nothing but it persists between a launch's waves); run
	// them on the worker pool.
	var base, rgl *launch.Result
	err = in.Opts.forEach(2, func(i int) error {
		scheme, dst := SchemeBaseline, &base
		su := in.Opts.Setup(DefaultCapacity)
		if i == 1 {
			scheme, dst = SchemeRegLess, &rgl
		} else {
			su.Warps = baseWarps
		}
		res, err := Launch([]*isa.Kernel{k}, scheme, 1, grid, su)
		*dst = res
		return err
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "oversub",
		Title: fmt.Sprintf("Register file oversubscription: %d-warp grid of a %d regs/warp kernel",
			grid, k.NumRegs),
		Header: []string{"Scheme", "Resident warps", "Waves", "Total cycles", "Speedup"},
	}
	t.AddRow("baseline (occupancy-limited)", fmt.Sprintf("%d", baseWarps),
		fmt.Sprintf("%d", base.Launches), fmt.Sprintf("%d", base.Cycles), "1.000")
	t.AddRow("RegLess-512 (oversubscribed)", fmt.Sprintf("%d", fullWarps),
		fmt.Sprintf("%d", rgl.Launches), fmt.Sprintf("%d", rgl.Cycles),
		f3(float64(base.Cycles)/float64(rgl.Cycles)))
	t.Note("baseline RF holds %d entries: at %d regs/warp only %d warps fit, forcing %d waves; RegLess keeps %d resident",
		BaselineEntries, k.NumRegs, baseWarps, base.Launches, fullWarps)
	return t, nil
}
