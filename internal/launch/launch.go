// Package launch runs a sequence of chip launches back to back, the way
// a CUDA stream does: each kernel's grid, when it holds more warps than
// the chip keeps resident, proceeds in sequential *waves* (as hardware
// CTA schedulers do once occupancy is exhausted), and an application's
// kernels follow one another. This is what makes occupancy experiments
// fair: an occupancy-limited configuration runs the same total work in
// more waves rather than silently doing less work.
//
// Within a wave each SM takes a contiguous CTA-aligned chunk of warps
// (gpu.Launch's warp range) and all SMs run concurrently. Waves are
// synchronous: a fast SM idles at the wave boundary rather than stealing
// the next chunk early. That sacrifices a little fidelity (real
// schedulers backfill per-CTA) for determinism — chunk->SM assignment is
// a pure function of grid size, chip size and occupancy, never of timing.
//
// Hardware state does not persist between launches unless the caller
// holds it and hands it to every chip it builds: the functional memory
// (always, or later launches would not see earlier stores), a banked L2
// whose contents stay warm across waves, an SM's whole hierarchy across
// an application's kernels. The loop itself carries nothing over.
package launch

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/isa"
)

// Result aggregates a launch sequence.
type Result struct {
	// Cycles is the total run time: launches execute back to back, each
	// taking its chip's time (the slowest SM).
	Cycles uint64
	// Launches is how many chips ran.
	Launches int
	// Insns sums dynamic instructions across all SMs and launches.
	Insns uint64
	// FFSkippedCycles/FFJumps total the coordinated fast-forward's work.
	FFSkippedCycles, FFJumps uint64
	// PerLaunch holds each launch's chip result: numbers only, never the
	// chip.
	PerLaunch []*gpu.Result
}

// Run executes the kernels in order, each over a grid of gridWarps warps
// in waves of at most chipWarps (resident warps per SM x SMs). chip
// builds the machine for one launch: kernel k over warps [first, end) of
// its grid.
func Run(kernels []*isa.Kernel, gridWarps, chipWarps int,
	chip func(k *isa.Kernel, first, end int) (*gpu.GPU, error)) (*Result, error) {
	if len(kernels) == 0 {
		return nil, fmt.Errorf("launch: no kernels")
	}
	if gridWarps <= 0 || chipWarps <= 0 {
		return nil, fmt.Errorf("launch: warps must be positive")
	}
	for _, k := range kernels {
		if gridWarps%k.WarpsPerCTA != 0 {
			return nil, fmt.Errorf("launch: grid %d not a multiple of %s's CTA size %d",
				gridWarps, k.Name, k.WarpsPerCTA)
		}
	}
	res := &Result{}
	for ki, k := range kernels {
		for first := 0; first < gridWarps; first += chipWarps {
			g, err := chip(k, first, min(first+chipWarps, gridWarps))
			var r *gpu.Result
			if err == nil {
				r, err = g.Run()
			}
			if err != nil {
				return nil, fmt.Errorf("launch: kernel %d (%s) wave %d: %w", ki, k.Name, first/chipWarps, err)
			}
			res.Cycles += r.Cycles
			res.Insns += r.TotalInsns
			res.FFSkippedCycles += r.FFSkippedCycles
			res.FFJumps += r.FFJumps
			res.PerLaunch = append(res.PerLaunch, r)
			res.Launches++
		}
	}
	return res, nil
}
