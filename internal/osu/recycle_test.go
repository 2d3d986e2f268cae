package osu

import (
	"reflect"
	"testing"

	"repro/internal/freelist"
	"repro/internal/isa"
)

// TestRecycledLinesAreAFreshUnit: a unit built on the line array another
// released — every cell scribbled into a resident dirty line on the way
// into the list — is cell for cell the unit New makes from nothing, and
// a released unit panics instead of touching the array it gave away.
func TestRecycledLinesAreAFreshUnit(t *testing.T) {
	freelist.Drop()
	freelist.SetPoison(true)
	defer freelist.SetPoison(false)

	fresh := newTestOSU()
	used := newTestOSU()
	for w := 0; w < 8; w++ {
		mustInstall(t, used, w, isa.Reg(w))
		used.MarkEvictable(w, isa.Reg(w), w%2 == 0)
	}
	used.Release()
	used.Release() // idempotent
	if n := freelist.Held(); n != 1 {
		t.Fatalf("%d arrays parked, want 1", n)
	}
	if o := New(Config{Banks: 8, LinesPerBank: 8, Warps: 16, NumRegs: 32}); freelist.Held() != 1 {
		t.Fatalf("a unit of another size (%d lines) took the array", len(o.lines))
	}
	again := newTestOSU()
	if freelist.Held() != 0 {
		t.Fatal("a unit of the same size did not take the array")
	}
	if !reflect.DeepEqual(again.lines, fresh.lines) {
		t.Fatalf("recycled line array differs from a fresh one:\n%v\n%v", again.lines, fresh.lines)
	}
	if err := again.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a released unit accepted an install")
		}
	}()
	used.Install(9, 9)
}
