//go:build !race

package experiments

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arena"
	"repro/internal/kernels"
)

// TestSteadyStateRunBudget is the gate on what a run throws away (built
// without the race detector, whose instrumentation changes what
// allocates; scripts/check.sh runs it beside the race gate). After
// one pass over every kernel under every scheme has taken the arena to
// its fixed point, a pass on a fresh Suite in another order may allocate,
// per run, no more than what a run keeps or cannot place: the result
// structs, the kernel's control-flow graph (and RFV's liveness), gauge
// and completion closures, the memory's page maps. Everything a machine is made
// of comes from the arena, which allocates nothing any more — so a third
// pass, in yet another order, allocates the same to within 0.1 %.
func TestSteadyStateRunBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-scale passes")
	}
	var keys []runKey
	for _, b := range kernels.Names() {
		for _, sc := range []schemeCap{{SchemeBaseline, 0}, {SchemeBaseline2L, 0}, {SchemeRFV, 0}, {SchemeRFH, 0},
			{SchemeRegLess, 128}, {SchemeRegLess, 512}, {SchemeRegLessNC, 512}} {
			keys = append(keys, runKey{b, sc.scheme, sc.capacity})
		}
	}
	opts := Default()
	opts.Parallelism = 1
	pass := func(seed int64) (bytes, mallocs uint64) {
		order := append([]runKey(nil), keys...)
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		s := NewSuite(opts)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, k := range order {
			if _, err := s.Get(k.bench, k.scheme, k.capacity); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
	}
	arena.Drop()
	defer arena.Drop()
	pass(1)
	n := uint64(len(keys))
	bytes2, mallocs2 := pass(2)
	bytes3, _ := pass(3)
	t.Logf("per run: %d B in %d allocations (second pass), %d B (third)", bytes2/n, mallocs2/n, bytes3/n)
	if bytes2/n > 24<<10 || mallocs2/n > 400 {
		t.Errorf("a steady-state run allocates %d B in %d allocations, budget 24 KiB in 400", bytes2/n, mallocs2/n)
	}
	if d := int64(bytes3) - int64(bytes2); d > int64(bytes2)/1000 || -d > int64(bytes2)/1000 {
		t.Errorf("two orders of the same runs allocate %d and %d B: more than 0.1 %% apart", bytes2, bytes3)
	}
	if arena.Held() != 1 {
		t.Errorf("%d arenas parked after three serial passes, want 1", arena.Held())
	}
}
