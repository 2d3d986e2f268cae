package osu

import (
	"reflect"
	"testing"

	"repro/internal/arena"
	"repro/internal/isa"
)

// TestRecycledLinesAreAFreshUnit: a unit built in the arena another was
// built and used in — every line, count and index cell scribbled over on
// the way back — is cell for cell the unit New makes on the heap.
func TestRecycledLinesAreAFreshUnit(t *testing.T) {
	arena.Drop()
	arena.SetPoison(true)
	defer arena.SetPoison(false)
	defer arena.Drop()

	fresh := newTestOSU()
	a := arena.Take()
	used := New(a, fresh.cfg)
	for w := 0; w < 8; w++ {
		mustInstall(t, used, w, isa.Reg(w))
		used.MarkEvictable(w, isa.Reg(w), w%2 == 0)
	}
	lines := used.lines // the unit itself, holding pointers, goes back zeroed
	arena.Put(a)
	if lines[0].lru != ^uint64(0) || lines[0].state != 0xff {
		t.Fatalf("the arena went back unscribbled: %+v", lines[0])
	}
	again := New(arena.Take(), fresh.cfg)
	if &again.lines[0] != &lines[0] {
		t.Fatal("the second unit was not built on the first one's memory")
	}
	if !reflect.DeepEqual(again.lines, fresh.lines) || !reflect.DeepEqual(again.count, fresh.count) ||
		!reflect.DeepEqual(again.index, fresh.index) {
		t.Fatalf("recycled unit differs from a fresh one:\n%v\n%v", again.lines, fresh.lines)
	}
	if err := again.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
