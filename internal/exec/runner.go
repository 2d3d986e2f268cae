package exec

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/isa"
)

// RunResult is the architectural outcome of a functional kernel run.
type RunResult struct {
	// Stores is the final content of every written global word.
	Stores map[uint32]uint32
	// DynInsns is the total dynamic instruction count across warps.
	DynInsns uint64
	// FinalRegs[w] is warp w's final register file.
	FinalRegs [][][isa.WarpWidth]uint32
}

// Run executes numWarps warps of k functionally (no timing) with a simple
// round-robin interleaving and CTA barrier handling, and returns the final
// architectural state. It is the golden reference the timing models are
// checked against: any register-management scheme (baseline, RegLess, ...)
// must produce exactly this state.
func Run(k *isa.Kernel, numWarps int, mem *Memory) (*RunResult, error) {
	return RunLimit(k, numWarps, mem, 200_000_000)
}

// RunLimit is Run with an explicit dynamic-instruction budget; exceeding
// it returns an error (runaway-loop guard).
func RunLimit(k *isa.Kernel, numWarps int, mem *Memory, maxSteps uint64) (*RunResult, error) {
	if mem == nil {
		mem = NewMemory(nil)
	}
	g, _ := cfg.For(k)
	warps := make([]*Warp, numWarps)
	for i := range warps {
		warps[i] = NewWarp(k, g, i, i/k.WarpsPerCTA, mem)
	}
	atBarrier := make([]bool, numWarps)
	var total uint64
	for {
		progress := false
		allDone := true
		for i, w := range warps {
			if w.Done() {
				continue
			}
			allDone = false
			if atBarrier[i] {
				continue
			}
			// Run a bounded burst for speed.
			for burst := 0; burst < 64 && !w.Done(); burst++ {
				info := w.Step()
				total++
				progress = true
				if info.AtBarrier {
					atBarrier[i] = true
					break
				}
			}
			if total > maxSteps {
				return nil, fmt.Errorf("exec: kernel %q exceeded %d steps (runaway loop?)", k.Name, maxSteps)
			}
		}
		if allDone {
			break
		}
		// Release barriers per CTA when all live warps of the CTA have
		// arrived.
		released := releaseBarriers(warps, atBarrier, k.WarpsPerCTA)
		if !progress && !released {
			return nil, fmt.Errorf("exec: kernel %q deadlocked at barrier", k.Name)
		}
	}

	res := &RunResult{
		Stores:   mem.GlobalStores(),
		DynInsns: total,
	}
	for _, w := range warps {
		regs := make([][isa.WarpWidth]uint32, len(w.Regs))
		copy(regs, w.Regs)
		res.FinalRegs = append(res.FinalRegs, regs)
	}
	return res, nil
}

// releaseBarriers clears the barrier flag for every CTA whose live warps
// have all arrived, returning whether any warp was released.
func releaseBarriers(warps []*Warp, atBarrier []bool, warpsPerCTA int) bool {
	numCTAs := (len(warps) + warpsPerCTA - 1) / warpsPerCTA
	any := false
	for cta := 0; cta < numCTAs; cta++ {
		lo := cta * warpsPerCTA
		hi := lo + warpsPerCTA
		if hi > len(warps) {
			hi = len(warps)
		}
		ready := true
		waiting := false
		for i := lo; i < hi; i++ {
			if warps[i].Done() {
				continue
			}
			if !atBarrier[i] {
				ready = false
			} else {
				waiting = true
			}
		}
		if ready && waiting {
			for i := lo; i < hi; i++ {
				if atBarrier[i] {
					atBarrier[i] = false
					any = true
				}
			}
		}
	}
	return any
}
