package exec

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/isa"
)

// recycled returns what arena.Take hands out after a was put back under
// poison: the same arena, everything it had handed out scribbled over
// and then reset.
func recycled(t *testing.T, a *arena.Arena) *arena.Arena {
	t.Helper()
	arena.Drop()
	arena.SetPoison(true)
	arena.Put(a)
	arena.SetPoison(false)
	if got := arena.Take(); got != a {
		t.Fatal("Take did not return the arena just put")
	}
	return a
}

// TestRecycledPagesReadAsFresh: a memory built in an arena another
// memory's pages were made from — scribbled over on the way back — reads
// exactly as one built on the heap: unwritten global words through the
// init generator, unwritten shared words as zero, and GlobalStores only
// what it stored itself.
func TestRecycledPagesReadAsFresh(t *testing.T) {
	storeGlobal := func(m *Memory, a, v uint32) { m.global.ensure(m.a, a).store(a, v) }
	a := arena.Take()
	old := NewMemoryIn(a, nil)
	for addr := uint32(0); addr < 3<<pageShift; addr += 4096 {
		storeGlobal(old, addr, addr+1)
	}
	old.StoreShared(0, 64, 7)
	old.StoreShared(2, 128, 9)
	firstPage := old.global.pages[0].pg

	m := NewMemoryIn(recycled(t, a), nil)
	storeGlobal(m, 8, 42)
	m.StoreShared(1, 16, 5)
	if m.global.pages[0].pg != firstPage {
		t.Fatal("the second memory's page is not the first's, recycled")
	}
	if got := m.GlobalStores(); len(got) != 1 || got[8] != 42 {
		t.Fatalf("GlobalStores on a recycled page = %v, want {8: 42}", got)
	}
	if got, want := m.LoadGlobal(4096), Mix(4096); got != want {
		t.Fatalf("unwritten global word reads %#x, want the init value %#x", got, want)
	}
	if got := m.LoadShared(1, 64); got != 0 {
		t.Fatalf("unwritten shared word reads %#x, want 0", got)
	}
	if got := m.LoadShared(1, 16); got != 5 {
		t.Fatalf("shared word reads %d, want 5", got)
	}
}

// TestPagesFoundInAnyStoreOrder: the page list is kept in key order by
// insertion, so pages first stored to in descending, ascending or
// scattered order — from the heap and from an arena, whose list moves to
// a larger span as it grows — are all found again, unwritten pages are
// not, and GlobalStores reports every word once.
func TestPagesFoundInAnyStoreOrder(t *testing.T) {
	orders := map[string][]uint32{
		"descending": {9, 7, 5, 3, 1},
		"ascending":  {0, 2, 4, 6, 8, 10, 12, 14, 16, 18},
		"scattered":  {40000, 3, 65535, 0, 977, 12, 30001, 4, 5, 977, 3},
	}
	for name, keys := range orders {
		for _, a := range []*arena.Arena{nil, arena.Take()} {
			m := NewMemoryIn(a, nil)
			want := map[uint32]uint32{}
			for i, key := range keys {
				addr := key<<pageShift + uint32(i)*4
				m.global.ensure(m.a, addr).store(addr, addr^0x5a5a)
				want[addr] = addr ^ 0x5a5a
				m.StoreShared(0, addr, uint32(i)+1)
			}
			for i := 1; i < len(m.global.pages); i++ {
				if m.global.pages[i-1].key >= m.global.pages[i].key {
					t.Fatalf("%s: page list out of order at %d: %d then %d", name, i, m.global.pages[i-1].key, m.global.pages[i].key)
				}
			}
			got := m.GlobalStores()
			if len(got) != len(want) {
				t.Fatalf("%s: %d stored words, want %d", name, len(got), len(want))
			}
			for addr, v := range want {
				if got[addr] != v || m.LoadGlobal(addr) != v {
					t.Fatalf("%s: word %#x reads %#x (GlobalStores %#x), want %#x", name, addr, m.LoadGlobal(addr), got[addr], v)
				}
			}
			for i, key := range keys {
				if addr := key<<pageShift + uint32(i)*4; m.LoadShared(0, addr) == 0 {
					t.Fatalf("%s: shared word %#x lost", name, addr)
				}
			}
			const unwritten = 20 << pageShift
			if got, want := m.LoadGlobal(unwritten), Mix(unwritten); got != want {
				t.Fatalf("%s: a page never stored to reads %#x, want the init value %#x", name, got, want)
			}
			if m.global.lookup(unwritten) != nil {
				t.Fatalf("%s: lookup made a page", name)
			}
		}
	}
}

// TestRegFileLayoutAndRecycling: warps get disjoint, zeroed, full-length
// register slices that cannot grow into a neighbour's, from the heap and
// from an arena alike, and a file made in a recycled arena comes back
// zeroed however the last one was left.
func TestRegFileLayoutAndRecycling(t *testing.T) {
	a := arena.Take()
	for _, tc := range []struct{ warps, numRegs int }{
		{64, 15}, {16, 40}, {3, 512}, {2, 513}, {4, 0}, {64, 8},
	} {
		for _, from := range []*arena.Arena{nil, a} {
			rf := NewRegFile(from, tc.warps, tc.numRegs)
			seen := map[*[isa.WarpWidth]uint32]bool{}
			for w := 0; w < tc.warps; w++ {
				regs := rf.Warp(w)
				if len(regs) != tc.numRegs || cap(regs) != tc.numRegs {
					t.Fatalf("warp %d: len %d cap %d, want %d", w, len(regs), cap(regs), tc.numRegs)
				}
				for r := range regs {
					if seen[&regs[r]] {
						t.Fatalf("warp %d register %d aliases another warp's", w, r)
					}
					seen[&regs[r]] = true
					if regs[r] != ([isa.WarpWidth]uint32{}) {
						t.Fatalf("%d warps x %d regs: warp %d r%d = %v, want zeros", tc.warps, tc.numRegs, w, r, regs[r])
					}
					regs[r][w%isa.WarpWidth] = uint32(w + 1) // leave something behind
				}
			}
		}
		a = recycled(t, a)
	}
}
