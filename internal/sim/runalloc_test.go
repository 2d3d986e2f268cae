//go:build !race

package sim_test

import (
	"runtime"
	"testing"

	"repro/internal/arena"
	"repro/internal/experiments"
	"repro/internal/kernels"
)

// TestRunAllocatesItsResultOnly: with the machine in an arena that has
// reached its size, SM.Run of the suite's two most memory-bound kernels —
// the most memory instructions queued at the LSU, the most preload fills
// in flight — allocates the detached statistics it returns (the struct
// and its series) and nothing per memory op, fill or timer: each of those
// is a pointer into the arena, where it used to carry a completion
// closure made on the heap the first time its pool slot was used (about
// seventy objects a run on these kernels). A ceiling on the total, so
// that whatever else starts allocating in the cycle loop trips it too.
// (Built without the race detector, whose instrumentation allocates.)
func TestRunAllocatesItsResultOnly(t *testing.T) {
	const ceiling = 4 // the Stats, its series, and slack for the runtime's own
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	arena.Drop()
	defer arena.Drop()
	for _, bench := range []string{"nn", "streamcluster"} {
		k, err := kernels.Load(bench)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []experiments.Scheme{experiments.SchemeBaseline, experiments.SchemeRegLess} {
			run := func() uint64 {
				a := arena.Take()
				defer arena.Put(a)
				g, _, err := experiments.Assemble(a, k, scheme, 1, experiments.Default().Setup(128), nil)
				if err != nil {
					t.Fatal(err)
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				st, err := g.SMs[0].Run()
				runtime.ReadMemStats(&m1)
				if err != nil || st.MemLines == 0 {
					t.Fatalf("%s/%s: run failed or touched no memory: %v", bench, scheme, err)
				}
				return m1.Mallocs - m0.Mallocs
			}
			run() // the arena grows to this machine
			if got := run(); got > ceiling {
				t.Errorf("%s/%s: SM.Run allocates %d objects, ceiling %d", bench, scheme, got, ceiling)
			}
		}
	}
}
