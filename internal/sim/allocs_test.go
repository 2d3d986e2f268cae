package sim_test

import (
	"testing"

	"repro/internal/allocs"
	"repro/internal/arena"
	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/kernels"
)

// TestAllocations holds SM.Run to testdata/allocs.txt on the suite's two
// most memory-bound kernels — the most memory instructions queued at the
// LSU, the most preload fills in flight — with the machine in an arena
// that has reached its size. Nothing per memory op, fill or timer reaches
// the heap: each of those is a pointer into the arena, and so are the
// statistics the run returns.
func TestAllocations(t *testing.T) {
	l := allocs.Open(t)
	arena.Drop()
	defer arena.Drop()
	for _, bench := range []string{"nn", "streamcluster"} {
		k, err := kernels.Load(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []experiments.Scheme{experiments.SchemeBaseline, experiments.SchemeRegLess} {
			var a *arena.Arena
			var g *gpu.GPU
			l.Measure("run/"+bench+"/"+string(scheme), allocs.Op{
				Calls: 5,
				Prepare: func() { // a fresh machine in the arena the last one left
					if a != nil {
						arena.Put(a)
					}
					a = arena.Take()
					if g, _, err = experiments.Assemble(a, k, scheme, 1, experiments.Default().Setup(128), nil); err != nil {
						t.Fatal(err)
					}
				},
				Do: func() {
					if st, err := g.SMs[0].Run(); err != nil || st.MemLines == 0 {
						t.Fatalf("%s/%s: run failed or touched no memory: %v", bench, scheme, err)
					}
				},
			})
			arena.Put(a)
		}
	}
}
