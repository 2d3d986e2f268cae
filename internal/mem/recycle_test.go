package mem

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
)

// TestRecycledCachesBehaveAsFresh drives one seeded mix of register and
// data traffic through three hierarchies in turn — private L2, then two
// sharing a banked L2 — first built on the heap, then twice in an arena
// that goes back under poison (every line valid, dirty, wildly tagged,
// lru at the maximum; waiter lists and calendar cells all-ones) between
// generations. Every generation must count exactly what the first
// counted: a stale valid bit shows as a hit, a stale dirty bit as a
// writeback or a DRAM write.
func TestRecycledCachesBehaveAsFresh(t *testing.T) {
	arena.Drop()
	arena.SetPoison(true)
	defer arena.SetPoison(false)
	defer arena.Drop()

	drive := func(hs ...*Hierarchy) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 20_000; i++ {
			h := hs[i%len(hs)]
			a := uint32(rng.Intn(1<<14)) * LineSize
			if rng.Intn(3) == 0 {
				h.DataAccess(a, rng.Intn(2) == 0, nil)
			} else {
				h.L1Access(RegSpaceBase+a, rng.Intn(2) == 0, nil)
			}
			for _, h := range hs {
				h.Tick()
			}
		}
	}
	type counts struct {
		a, b Stats
		l2   BankedL2Stats
	}
	generation := func(ar *arena.Arena) (private Stats, banked counts) {
		h := NewIn(ar, DefaultConfig())
		drive(h)
		private = h.Stats

		l2, err := NewBankedL2In(ar, DefaultBankedL2Config())
		if err != nil {
			t.Fatal(err)
		}
		a, b := l2.AttachHierarchy(DefaultConfig()), l2.AttachHierarchy(DefaultConfig())
		drive(a, b)
		return private, counts{a.Stats, b.Stats, l2.Stats}
	}
	wantP, wantB := generation(nil)
	if wantP.L1Hits == 0 || wantP.L1Writebacks == 0 || wantP.L2Misses == 0 || wantB.l2.DRAMWrites == 0 {
		t.Fatalf("the traffic does not exercise hits, writebacks and misses: %+v %+v", wantP, wantB)
	}
	var first *arena.Arena
	for gen := 1; gen <= 3; gen++ {
		ar := arena.Take()
		if first == nil {
			first = ar
		} else if ar != first {
			t.Fatalf("generation %d was not built in the arena the last one put back", gen)
		}
		gotP, gotB := generation(ar)
		if gotP != wantP {
			t.Fatalf("generation %d, private L2: in the arena it counts\n%+v\non the heap\n%+v", gen, gotP, wantP)
		}
		if gotB != wantB {
			t.Fatalf("generation %d, banked L2: in the arena it counts\n%+v\non the heap\n%+v", gen, gotB, wantB)
		}
		arena.Put(ar)
	}
}
