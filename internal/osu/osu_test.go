package osu

import (
	"math/rand"
	"testing"

	"repro/internal/isa"
)

func newTestOSU() *OSU { return New(nil, Config{Banks: 8, LinesPerBank: 4, Warps: 16, NumRegs: 32}) }

func TestBankMapping(t *testing.T) {
	o := newTestOSU()
	if o.Bank(0, 3) != 3 || o.Bank(1, 3) != 4 || o.Bank(7, 1) != 0 {
		t.Fatal("bank mapping wrong")
	}
}

func TestInstallLookupErase(t *testing.T) {
	o := newTestOSU()
	if _, ok := o.Lookup(2, 5); ok {
		t.Fatal("lookup hit in empty OSU")
	}
	if _, _, err := o.Install(2, 5); err != nil {
		t.Fatal(err)
	}
	st, ok := o.Lookup(2, 5)
	if !ok || st != StateActive {
		t.Fatalf("lookup = %v, %v", st, ok)
	}
	if _, _, err := o.Install(2, 5); err == nil {
		t.Fatal("double install accepted")
	}
	if !o.Erase(2, 5) {
		t.Fatal("erase missed")
	}
	if o.Erase(2, 5) {
		t.Fatal("double erase succeeded")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionPreference(t *testing.T) {
	o := New(nil, Config{Banks: 1, LinesPerBank: 3, Warps: 1, NumRegs: 8})
	// Fill the single bank: one clean, one dirty, one active.
	mustInstall(t, o, 0, 0)
	o.MarkEvictable(0, 0, false) // clean
	mustInstall(t, o, 0, 1)
	o.MarkEvictable(0, 1, true) // dirty
	mustInstall(t, o, 0, 2)     // active

	// Next install must drop the clean line, no writeback.
	v, wb, err := o.Install(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wb {
		t.Fatalf("clean reclaim triggered writeback of %+v", v)
	}
	if _, ok := o.Lookup(0, 0); ok {
		t.Fatal("clean line still resident")
	}
	// Next install must displace the dirty line with a writeback.
	v, wb, err = o.Install(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !wb || v.Reg != 1 {
		t.Fatalf("expected dirty victim reg 1, got %+v wb=%v", v, wb)
	}
	// Bank now all active: further installs must fail.
	if _, _, err := o.Install(0, 5); err == nil {
		t.Fatal("install succeeded with all-active bank")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func mustInstall(t *testing.T, o *OSU, w int, r isa.Reg) {
	t.Helper()
	if _, _, err := o.Install(w, r); err != nil {
		t.Fatal(err)
	}
}

func TestActivateResident(t *testing.T) {
	o := newTestOSU()
	mustInstall(t, o, 1, 2)
	o.MarkEvictable(1, 2, true)
	if !o.Activate(1, 2) {
		t.Fatal("activate missed resident line")
	}
	st, ok := o.Lookup(1, 2)
	if !ok || st != StateActive {
		t.Fatalf("state after activate = %v", st)
	}
	if o.Activate(3, 9) {
		t.Fatal("activate hit absent line")
	}
}

func TestMarkEvictableRequiresActive(t *testing.T) {
	o := newTestOSU()
	mustInstall(t, o, 0, 0)
	if !o.MarkEvictable(0, 0, false) {
		t.Fatal("mark failed on active line")
	}
	if o.MarkEvictable(0, 0, true) {
		t.Fatal("mark succeeded on already-evictable line")
	}
}

func TestFreeWarp(t *testing.T) {
	o := newTestOSU()
	mustInstall(t, o, 3, 0)
	mustInstall(t, o, 3, 1)
	mustInstall(t, o, 4, 0)
	if n := o.FreeWarp(3); n != 2 {
		t.Fatalf("freed %d lines, want 2", n)
	}
	if _, ok := o.Lookup(4, 0); !ok {
		t.Fatal("other warp's line freed")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestActiveLinesCount(t *testing.T) {
	o := newTestOSU()
	mustInstall(t, o, 0, 8) // bank 0
	mustInstall(t, o, 0, 16)
	o.MarkEvictable(0, 16, true)
	if o.ActiveLines(0) != 1 {
		t.Fatalf("active lines = %d", o.ActiveLines(0))
	}
	if o.ResidentLines(0) != 2 {
		t.Fatalf("resident lines = %d", o.ResidentLines(0))
	}
}

// Random workout: interleave installs, evictable marks, erases and
// activates; invariants must hold throughout and capacity never exceeded.
func TestRandomWorkout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	o := New(nil, Config{Banks: 4, LinesPerBank: 3, Warps: 6, NumRegs: 12})
	type key struct {
		w int
		r isa.Reg
	}
	resident := map[key]State{}
	for step := 0; step < 3000; step++ {
		w := rng.Intn(6)
		r := isa.Reg(rng.Intn(12))
		k := key{w, r}
		switch rng.Intn(4) {
		case 0:
			if _, ok := resident[k]; ok {
				break
			}
			// Install only if some line in the bank is reclaimable.
			b := o.Bank(w, r)
			if o.ActiveLines(b) >= 3 {
				break
			}
			v, wb, err := o.Install(w, r)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if wb {
				delete(resident, key{v.Warp, v.Reg})
			}
			// Clean drops may also remove entries; resync below.
			resident[k] = StateActive
		case 1:
			if o.MarkEvictable(w, r, rng.Intn(2) == 0) {
				if st, ok := o.Lookup(w, r); ok {
					resident[k] = st
				}
			}
		case 2:
			if o.Erase(w, r) {
				delete(resident, k)
			}
		case 3:
			o.Activate(w, r)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestTagIndexUnderShards: a unit that is one of four shards is handed
// SM-wide warp IDs a stride apart and keeps one index row per warp it
// serves; removals move lines within a bank and the index follows them.
func TestTagIndexUnderShards(t *testing.T) {
	o := New(nil, Config{Banks: 2, LinesPerBank: 4, Warps: 16, Shards: 4, NumRegs: 8})
	if len(o.index) != 4*8 {
		t.Fatalf("index holds %d cells, want one row of 8 per served warp (32)", len(o.index))
	}
	warps := []int{1, 5, 9, 13} // shard 1 of 4
	for _, w := range warps {
		for r := isa.Reg(0); r < 2; r++ {
			mustInstall(t, o, w, r)
		}
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Erase from the front of each bank: the bank's last line moves into
	// the hole and must still answer to its tag.
	if !o.Erase(1, 0) || !o.Erase(1, 1) {
		t.Fatal("erase missed")
	}
	for _, w := range warps[1:] {
		for r := isa.Reg(0); r < 2; r++ {
			if st, ok := o.Lookup(w, r); !ok || st != StateActive {
				t.Fatalf("w%d %v lost after a removal moved lines: %v, %v", w, r, st, ok)
			}
		}
	}
	if _, ok := o.Lookup(1, 0); ok {
		t.Fatal("erased line still found")
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := o.FreeWarp(9); n != 2 {
		t.Fatalf("FreeWarp freed %d lines, want 2", n)
	}
	if err := o.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// A tag outside the configured bounds is an error, not a panic.
	if _, _, err := o.Install(16, 0); err == nil {
		t.Fatal("install of a warp beyond the unit's bound accepted")
	}
	if _, _, err := o.Install(1, 8); err == nil {
		t.Fatal("install of a register beyond the unit's bound accepted")
	}
}

// TestCorruptedTagStopsAnswering: a line whose tag was flipped (fault
// injection) no longer answers to its old name or its new one, keeps its
// cell until its warp is freed, and never disturbs the index of the line
// that rightfully carries the tag it now shows.
func TestCorruptedTagStopsAnswering(t *testing.T) {
	o := New(nil, Config{Banks: 4, LinesPerBank: 2, Warps: 2, NumRegs: 8})
	mustInstall(t, o, 0, 2) // bank 2; corrupted below to show tag r3
	mustInstall(t, o, 0, 3) // bank 3: the rightful r3
	if _, ok := o.CorruptTag(0); !ok {
		t.Fatal("nothing to corrupt")
	}
	if err := o.CheckInvariants(); err == nil {
		t.Fatal("corrupted tag passed CheckInvariants")
	}
	if _, ok := o.Lookup(0, 2); ok {
		t.Fatal("corrupted line still answers to its old tag")
	}
	if st, ok := o.Lookup(0, 3); !ok || st != StateActive {
		t.Fatal("the rightful r3 line was disturbed")
	}
	mustInstall(t, o, 0, 6) // bank 2 again: sits beside the orphan
	if !o.Erase(0, 6) {
		t.Fatal("erase missed")
	}
	if _, ok := o.Lookup(0, 3); !ok {
		t.Fatal("the rightful r3 line lost its index cell to the orphan")
	}
	if n := o.FreeWarp(0); n != 2 {
		t.Fatalf("FreeWarp freed %d lines, want the orphan and r3", n)
	}
	for b := 0; b < o.Banks(); b++ {
		if o.ResidentLines(b) != 0 {
			t.Fatalf("bank %d still holds %d lines", b, o.ResidentLines(b))
		}
	}
	// The orphan's old index cell is stale for good — harmless to lookups
	// (a free cell matches no tag), and the unit stays flagged.
	if _, ok := o.Lookup(0, 2); ok {
		t.Fatal("stale index cell answered a lookup")
	}
	if err := o.CheckInvariants(); err == nil {
		t.Fatal("a unit with a stale index cell passed CheckInvariants")
	}
}
