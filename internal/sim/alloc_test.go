package sim_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/kernels"
)

// TestSteppedCycleAllocatesNothing is the allocation gate: once queues,
// pools and heaps have reached their working size, a stepped cycle — the
// memory system's completions, the provider's tick, LSU injection, four
// picks and issues — must not allocate: for the plain register file under
// either scheduler, for RFH, and for RegLess at the paper's 512-register
// point with and without the compressor, on the suite's most memory-bound
// kernel. Fast-forward is off so every cycle is stepped.
func TestSteppedCycleAllocatesNothing(t *testing.T) {
	k, err := kernels.Load("bfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range experiments.Schemes() {
		if scheme == experiments.SchemeRFV {
			// RFV's victim FIFO is model state that grows with the run: it
			// records every mapping and drains only when the pool spills.
			continue
		}
		su := experiments.Default().Setup(experiments.DefaultCapacity)
		su.NoFastForward = true
		// The functional memory allocates a 64 KiB page at the first store
		// into it: the simulated program's footprint, not cycle state. A
		// functional run over the image first leaves every page in place.
		su.Memory = exec.NewMemory(nil)
		if _, err := exec.Run(k, su.Warps, su.Memory); err != nil {
			t.Fatal(err)
		}
		g, _, err := experiments.Assemble(nil, k, scheme, 1, su, nil)
		if err != nil {
			t.Fatal(err)
		}
		sm := g.SMs[0]
		// The per-window backing series is the one structure that grows
		// with the run's length; give it its room up front.
		sm.Stats.BackingSeries = make([]uint64, 0, 1024)
		// AllocsPerRun divides and truncates, so the unit it averages over
		// is a whole span of cycles: any allocation in the span shows.
		const span = 3000
		step := func() {
			for i := 0; i < span; i++ {
				sm.Step()
			}
		}
		step() // warm-up, on top of the one AllocsPerRun makes itself
		allocs := testing.AllocsPerRun(1, step)
		if sm.Done() {
			t.Fatalf("%s: kernel finished inside the measured span; shorten it", scheme)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations in %d stepped cycles, want 0", scheme, allocs, span)
		}
	}
}
