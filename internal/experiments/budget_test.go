//go:build !race

package experiments

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/arena"
	"repro/internal/gpu"
	"repro/internal/kernels"
)

// TestSteadyStateRunBudget is the gate on what a run throws away (built
// without the race detector, whose instrumentation changes what
// allocates; scripts/check.sh runs it beside the race gate). After one
// pass over every kernel under every scheme has taken the arena to its
// fixed point and filled the per-kernel memos (graph and liveness,
// compiled regions), a pass on a fresh Suite in another order may
// allocate, per run, no more than what a run keeps: the Run with its chip
// result, detached statistics and series, region profile, and the
// suite's cache entry. Everything else a run builds comes from the arena
// — the configuration Assemble tunes, the slot list and the providers as
// much as the machine (TestAssembleAllocatesNothing) — and whoever waits
// on a memory access or a timer is a pointer into it, so a third pass, in
// yet another order, allocates the same to within 0.1 %.
//
// What is left to vary is the runtime's, and is kept out of the reading
// or under the tolerance rather than widened for: a collection that
// wakes a second P may start an OS thread for it (some 5 KB, once,
// whenever it happens — the passes run on one P, as the benchmark's do),
// and an interface assertion the compiler's per-site cache has not seen
// builds a 48-byte cache entry one time in a thousand.
func TestSteadyStateRunBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-scale passes per row")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, row := range []struct {
		name           string
		sms            int
		schemes        []schemeCap
		bytes, mallocs uint64 // per run: the reading plus a quarter
	}{
		{"1sm", 1, []schemeCap{{SchemeBaseline, 0}, {SchemeBaseline2L, 0}, {SchemeRFV, 0}, {SchemeRFH, 0},
			{SchemeRegLess, 128}, {SchemeRegLess, 512}, {SchemeRegLessNC, 512}}, 2120, 9},
		{"4sm", 4, []schemeCap{{SchemeBaseline, 0}, {SchemeRegLess, 512}}, 5725, 19},
	} {
		t.Run(row.name, func(t *testing.T) {
			var keys []runKey
			for _, b := range kernels.Names() {
				for _, sc := range row.schemes {
					keys = append(keys, runKey{b, sc.scheme, sc.capacity})
				}
			}
			opts := Default()
			opts.Parallelism = 1
			opts.SMs = row.sms
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
			if bytes2/n > row.bytes || mallocs2/n > row.mallocs {
				t.Errorf("a steady-state run allocates %d B in %d allocations, budget %d B in %d",
					bytes2/n, mallocs2/n, row.bytes, row.mallocs)
			}
			if d := int64(bytes3) - int64(bytes2); d > int64(bytes2)/1000 || -d > int64(bytes2)/1000 {
				t.Errorf("two orders of the same runs allocate %d and %d B: more than 0.1 %% apart", bytes2, bytes3)
			}
			if arena.Held() != 1 {
				t.Errorf("%d arenas parked after three serial passes, want 1", arena.Held())
			}
		})
	}
}

// TestAssembleAllocatesNothing: once an arena has grown to a machine,
// assembling that machine again takes nothing from the heap — not the
// configuration it tunes, the slot list, the RegLess configuration, the
// providers or anything under the SMs — for every scheme, on one SM and
// on four, and with a co-resident kernel beside the assembled one.
func TestAssembleAllocatesNothing(t *testing.T) {
	k, co := kernels.MustLoad("nw"), kernels.MustLoad("bfs")
	type machine struct {
		scheme Scheme
		sms    int
		su     SimSetup
	}
	var machines []machine
	for _, scheme := range Schemes() {
		su := Quick().Setup(DefaultCapacity)
		shared := su
		shared.CoResident = []gpu.KernelSlot{{K: co, SMs: 1, AddrBias: coResidentBias}}
		machines = append(machines, machine{scheme, 1, su}, machine{scheme, 4, su}, machine{scheme, 1, shared})
	}
	a := arena.Take()
	assemble := func(m machine) {
		a.Reset()
		if _, _, err := Assemble(a, k, m.scheme, m.sms, m.su, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range machines { // grow the arena to every machine
		assemble(m)
	}
	for _, m := range machines {
		if n := testing.AllocsPerRun(20, func() { assemble(m) }); n != 0 {
			t.Errorf("%s on %d SMs (%d co-resident): Assemble allocates %.0f objects on the heap, want 0",
				m.scheme, m.sms, len(m.su.CoResident), n)
		}
	}
}
