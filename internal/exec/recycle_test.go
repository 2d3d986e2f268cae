package exec

import (
	"testing"

	"repro/internal/freelist"
	"repro/internal/isa"
)

// TestRecycledPagesReadAsFresh: a memory built on pages another memory
// released — scribbled over on the way into the list — reads exactly as
// one built on new pages: unwritten global words through the init
// generator, unwritten shared words as zero, and GlobalStores only what
// it stored itself.
func TestRecycledPagesReadAsFresh(t *testing.T) {
	storeGlobal := func(m *Memory, a, v uint32) { m.global.ensure(a).store(a, v) }
	freelist.Drop()
	freelist.SetPoison(true)
	defer freelist.SetPoison(false)

	old := NewMemory(nil)
	for a := uint32(0); a < 3<<pageShift; a += 4096 {
		storeGlobal(old, a, a+1)
	}
	old.StoreShared(0, 64, 7)
	old.StoreShared(2, 128, 9)
	old.Release()
	if n := freelist.Held(); n != 5 {
		t.Fatalf("released memory parked %d pages, want 3 global + 2 shared", n)
	}
	if got := old.GlobalStores(); len(got) != 0 {
		t.Fatalf("released memory still reports %d stores", len(got))
	}

	m := NewMemory(nil)
	storeGlobal(m, 8, 42)
	m.StoreShared(1, 16, 5)
	if n := freelist.Held(); n != 3 {
		t.Fatalf("%d pages parked after two takes, want 3", n)
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

// TestRegFileLayoutAndRecycling: warps get disjoint, zeroed, full-length
// register slices that cannot grow into a neighbour's; a released file's
// chunks come back zeroed however they were left; a released file
// panics instead of handing out storage it no longer owns.
func TestRegFileLayoutAndRecycling(t *testing.T) {
	freelist.Drop()
	freelist.SetPoison(true)
	defer freelist.SetPoison(false)

	for _, tc := range []struct{ warps, numRegs, chunks int }{
		{64, 15, 2},                // 34 warps per chunk
		{16, 40, 2},                // 12 per chunk
		{3, regChunkRegs, 3},       // one warp fills a chunk
		{2, regChunkRegs + 1, 0},   // more than a chunk: plain allocations
		{4, 0, 0},                  // a kernel with no registers
		{regChunkRegs / 8, 8, 1},   // exactly full
		{regChunkRegs/8 + 1, 8, 2}, // one warp over
	} {
		rf := NewRegFile(tc.warps, tc.numRegs)
		if len(rf.chunks) != tc.chunks {
			t.Fatalf("%d warps x %d regs: %d chunks, want %d", tc.warps, tc.numRegs, len(rf.chunks), tc.chunks)
		}
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
				for lane, v := range regs[r] {
					if v != 0 {
						t.Fatalf("warp %d r%d lane %d = %#x on a fresh file", w, r, lane, v)
					}
				}
				regs[r][w%isa.WarpWidth] = uint32(w + 1) // leave something behind
			}
		}
		rf.Release()
		if n := freelist.Held(); n != tc.chunks {
			t.Fatalf("released file parked %d chunks, want %d", n, tc.chunks)
		}
		again := NewRegFile(tc.warps, tc.numRegs)
		if n := freelist.Held(); n != 0 {
			t.Fatalf("the next file left %d chunks parked", n)
		}
		for w := 0; w < tc.warps; w++ {
			for r, reg := range again.Warp(w) {
				if reg != ([isa.WarpWidth]uint32{}) {
					t.Fatalf("warp %d r%d on a recycled chunk = %v, want zeros", w, r, reg)
				}
			}
		}
		if tc.chunks > 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("a released file handed out registers")
					}
				}()
				rf.Warp(0)
			}()
		}
	}
}
