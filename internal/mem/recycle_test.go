package mem

import (
	"math/rand"
	"testing"

	"repro/internal/freelist"
)

// TestRecycledCachesBehaveAsFresh drives one seeded mix of register and
// data traffic through three hierarchies in turn — private L2, then two
// sharing a banked L2 — each generation built on the arrays the previous
// one released, scribbled over (valid, dirty, wild tags, lru at the
// maximum) on the way into the list. Every generation must count exactly
// what the first, built on fresh arrays, counted: a stale valid bit
// shows as a hit, a stale dirty bit as a writeback or a DRAM write.
func TestRecycledCachesBehaveAsFresh(t *testing.T) {
	freelist.Drop()
	freelist.SetPoison(true)
	defer freelist.SetPoison(false)

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
	generation := func() (private Stats, banked counts) {
		h := New(DefaultConfig())
		drive(h)
		h.Release()

		l2, err := NewBankedL2(DefaultBankedL2Config())
		if err != nil {
			t.Fatal(err)
		}
		a, b := l2.AttachHierarchy(DefaultConfig()), l2.AttachHierarchy(DefaultConfig())
		drive(a, b)
		a.Release()
		b.Release()
		l2.Release()
		return h.Stats, counts{a.Stats, b.Stats, l2.Stats}
	}
	wantP, wantB := generation()
	if wantP.L1Hits == 0 || wantP.L1Writebacks == 0 || wantP.L2Misses == 0 || wantB.l2.DRAMWrites == 0 {
		t.Fatalf("the traffic does not exercise hits, writebacks and misses: %+v %+v", wantP, wantB)
	}
	// The private slice, the two L1s alive at once, every bank.
	parked := 3 + DefaultBankedL2Config().Banks
	if got, want := freelist.Held(), parked; got != want {
		t.Fatalf("%d arrays parked after one generation, want %d", got, want)
	}
	for gen := 1; gen <= 2; gen++ {
		gotP, gotB := generation()
		if gotP != wantP {
			t.Fatalf("generation %d, private L2: recycled arrays count\n%+v\nfresh\n%+v", gen, gotP, wantP)
		}
		if gotB != wantB {
			t.Fatalf("generation %d, banked L2: recycled arrays count\n%+v\nfresh\n%+v", gen, gotB, wantB)
		}
	}

	h := New(DefaultConfig())
	h.Release()
	h.Release() // idempotent: nothing is parked twice
	if got, want := freelist.Held(), parked; got != want {
		t.Fatalf("%d arrays parked after a double release, want %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a released hierarchy accepted an access")
		}
	}()
	h.L1Access(RegSpaceBase, false, nil)
}
