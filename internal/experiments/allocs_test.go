package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/allocs"
	"repro/internal/arena"
	"repro/internal/gpu"
	"repro/internal/kernels"
)

// TestAllocations holds the run path's heap to testdata/allocs.txt.
//
// Assembling a machine in an arena that has grown to it takes nothing from
// the heap — not the configuration it tunes, the slot list, the RegLess
// configuration, the providers or anything under the SMs — for every
// scheme, on one SM and on four, and with a co-resident kernel beside the
// assembled one: a row per machine, so that one stray allocation in one of
// them cannot average away across the batch.
//
// A steady-state suite run allocates what it keeps and nothing else: the
// Run with its chip result, detached statistics and series, region
// profile, and the suite's cache entry. Each call is a pass over every
// kernel under every scheme of its row, in a new order on a fresh Suite;
// the warm-up pass takes the arena to its fixed point and fills the
// per-kernel memos (graph and liveness, compiled regions). Two passes in
// two more orders then allocate the same to within 0.1 %, with one arena
// parked afterwards. What is left to vary is the runtime's: a collection
// that wakes a second P may start an OS thread for it (some 5 KB, kept out
// by measuring on one P, as the benchmark does), and an interface
// assertion the compiler's per-site cache has not seen builds a 48-byte
// cache entry one time in a thousand.
func TestAllocations(t *testing.T) { measurePaths(t, allocs.Open(t)) }

// The tests below each hold some of the paths to their rows.

func TestAssembleAllocatesNothing(t *testing.T) {
	var paths []string
	for _, scheme := range Schemes() {
		for _, m := range []string{"1sm", "4sm", "1sm+bfs"} {
			paths = append(paths, fmt.Sprintf("assemble/%s/%s", scheme, m))
		}
	}
	measurePaths(t, allocs.Open(t, paths...))
}

func TestSteadyStateRunBudget(t *testing.T) {
	for _, sms := range []string{"1sm", "4sm"} {
		t.Run(sms, func(t *testing.T) { measurePaths(t, allocs.Open(t, "steady/"+sms)) })
	}
}

// measurePaths measures every path l holds.
func measurePaths(t *testing.T, l *allocs.Ledger) {
	k, co := kernels.MustLoad("nw"), kernels.MustLoad("bfs")
	a := arena.Take()
	for _, scheme := range Schemes() {
		su := Quick().Setup(DefaultCapacity)
		shared := su
		shared.CoResident = []gpu.KernelSlot{{K: co, SMs: 1, AddrBias: coResidentBias}}
		for _, m := range []struct {
			name string
			sms  int
			su   SimSetup
		}{{"1sm", 1, su}, {"4sm", 4, su}, {"1sm+bfs", 1, shared}} {
			l.Measure(fmt.Sprintf("assemble/%s/%s", scheme, m.name), allocs.Op{Calls: 20, Do: func() {
				a.Reset()
				if _, _, err := Assemble(a, k, scheme, m.sms, m.su, nil); err != nil {
					t.Fatal(err)
				}
			}})
		}
	}

	for _, row := range []struct {
		name    string
		sms     int
		schemes []schemeCap
	}{
		{"steady/1sm", 1, []schemeCap{{SchemeBaseline, 0}, {SchemeBaseline2L, 0}, {SchemeRFV, 0}, {SchemeRFH, 0},
			{SchemeRegLess, 128}, {SchemeRegLess, 512}, {SchemeRegLessNC, 512}}},
		{"steady/4sm", 4, []schemeCap{{SchemeBaseline, 0}, {SchemeRegLess, 512}}},
	} {
		var keys []runKey
		for _, b := range kernels.Names() {
			for _, sc := range row.schemes {
				keys = append(keys, runKey{b, sc.scheme, sc.capacity})
			}
		}
		opts := Default()
		opts.Parallelism = 1
		opts.SMs = row.sms
		var (
			s     *Suite
			order []runKey
			seed  int64
		)
		arena.Drop()
		_, passes := l.Measure(row.name, allocs.Op{
			Calls: 2,
			Per:   len(keys),
			Prepare: func() {
				seed++
				order = append(order[:0], keys...)
				rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				s = NewSuite(opts)
			},
			Do: func() {
				for _, k := range order {
					if _, err := s.Get(k.bench, k.scheme, k.capacity); err != nil {
						t.Fatal(err)
					}
				}
			},
		})
		if passes == nil {
			continue
		}
		if b2, b3 := int64(passes[0].Bytes), int64(passes[1].Bytes); max(b3-b2, b2-b3) > b2/1000 {
			t.Errorf("%s: two orders of the same runs allocate %d and %d B: more than 0.1 %% apart", row.name, b2, b3)
		}
		if n := arena.Held(); n != 1 {
			t.Errorf("%s: %d arenas parked after three serial passes, want 1", row.name, n)
		}
	}
	arena.Drop()
}
