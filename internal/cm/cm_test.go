package cm

import "testing"

func cfg() Config { return Config{Banks: 8, LinesPerBank: 4} }

func usage(vals ...int) []int {
	u := make([]int, 8)
	copy(u, vals)
	return u
}

func TestInitialStackOrder(t *testing.T) {
	c := New(nil, cfg(), 4)
	if c.Top() != 0 {
		t.Fatalf("top = %d, want warp 0 first", c.Top())
	}
	for w := 0; w < 4; w++ {
		if c.StateOf(w) != Inactive {
			t.Fatalf("warp %d state %v", w, c.StateOf(w))
		}
	}
}

func TestActivateReserveRelease(t *testing.T) {
	c := New(nil, cfg(), 2)
	w, err := c.ActivateTop(7, usage(2, 1), 0, 100)
	if err != nil || w != 0 {
		t.Fatalf("ActivateTop = %d, %v", w, err)
	}
	if c.StateOf(0) != Active {
		t.Fatalf("state = %v (no preloads => Active)", c.StateOf(0))
	}
	if c.RegionOf(0) != 7 {
		t.Fatalf("region = %d", c.RegionOf(0))
	}
	// Rotation: warp 0 usage lands unrotated.
	if c.Reserved(0) != 2 || c.Reserved(1) != 1 {
		t.Fatalf("reserved = %d,%d", c.Reserved(0), c.Reserved(1))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.BeginDrain(0, usage(1, 0)) // one line still held in bank 0
	if c.Reserved(0) != 1 || c.Reserved(1) != 0 {
		t.Fatalf("after drain shrink: %d,%d", c.Reserved(0), c.Reserved(1))
	}
	c.ReleaseLine(0, 0)
	if c.Reserved(0) != 0 {
		t.Fatalf("after release: %d", c.Reserved(0))
	}
	cycles := c.FinishDrain(0, 150)
	if cycles != 50 {
		t.Fatalf("region cycles = %d", cycles)
	}
	if c.StateOf(0) != Inactive || c.Top() != 0 {
		t.Fatal("warp not pushed back on top (LIFO)")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSecondWarpReservesIndependently(t *testing.T) {
	c := New(nil, cfg(), 4)
	// Pop warp 0 with zero usage so warp 1 is next.
	if _, err := c.ActivateTop(0, usage(), 0, 0); err != nil {
		t.Fatal(err)
	}
	w, err := c.ActivateTop(1, usage(0, 3), 0, 0)
	if err != nil || w != 1 {
		t.Fatalf("w = %d, %v", w, err)
	}
	if c.Reserved(1) != 3 || c.Reserved(0) != 0 {
		t.Fatalf("reserved = %d,%d", c.Reserved(0), c.Reserved(1))
	}
}

func TestFitsRejectsOverflow(t *testing.T) {
	c := New(nil, cfg(), 2)
	if _, err := c.ActivateTop(0, usage(3), 0, 0); err != nil {
		t.Fatal(err)
	}
	// Bank 0 has 3/4 used: 2 more does not fit.
	over := make([]int, 8)
	over[0] = 2
	if c.Fits(over) {
		t.Fatal("Fits accepted overflow")
	}
	over[0] = 1
	if !c.Fits(over) {
		t.Fatal("Fits rejected a fitting region")
	}
	if _, err := c.ActivateTop(1, over, 0, 0); err != nil {
		t.Fatal(err)
	}
	if c.Reserved(0) != 4 {
		t.Fatalf("bank 0 reserved %d", c.Reserved(0))
	}
}

func TestPreloadingTransition(t *testing.T) {
	c := New(nil, cfg(), 1)
	if _, err := c.ActivateTop(0, usage(1), 2, 0); err != nil {
		t.Fatal(err)
	}
	if c.StateOf(0) != Preloading {
		t.Fatalf("state = %v", c.StateOf(0))
	}
	c.PreloadDone(0)
	if c.StateOf(0) != Preloading {
		t.Fatal("activated early")
	}
	c.PreloadDone(0)
	if c.StateOf(0) != Active {
		t.Fatalf("state = %v after all preloads", c.StateOf(0))
	}
}

func TestLIFOPrefersRecentWarp(t *testing.T) {
	c := New(nil, cfg(), 3)
	// Activate warps 0 and 1, finish warp 0's region: it must return to
	// the top, ahead of warp 2 which never ran.
	if _, err := c.ActivateTop(0, usage(1), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ActivateTop(1, usage(1), 0, 0); err != nil {
		t.Fatal(err)
	}
	c.BeginDrain(0, usage())
	c.FinishDrain(0, 10)
	if c.Top() != 0 {
		t.Fatalf("top = %d, want recently-run warp 0", c.Top())
	}
}

func TestFinishReleasesEverything(t *testing.T) {
	c := New(nil, cfg(), 2)
	if _, err := c.ActivateTop(0, usage(2, 2, 2), 0, 0); err != nil {
		t.Fatal(err)
	}
	c.Finish(0)
	for b := 0; b < 8; b++ {
		if c.Reserved(b) != 0 {
			t.Fatalf("bank %d leaked %d", b, c.Reserved(b))
		}
	}
	if c.StateOf(0) != Finished {
		t.Fatalf("state = %v", c.StateOf(0))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestActivateTopErrors(t *testing.T) {
	c := New(nil, cfg(), 1)
	if _, err := c.ActivateTop(0, usage(9), 0, 0); err == nil {
		t.Fatal("oversized region activated")
	}
	if _, err := c.ActivateTop(0, usage(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ActivateTop(1, usage(), 0, 0); err == nil {
		t.Fatal("ActivateTop succeeded on empty stack")
	}
}

func TestDeferTop(t *testing.T) {
	c := New(nil, cfg(), 3) // stack (bottom..top): 2, 1, 0
	if c.Top() != 0 {
		t.Fatalf("top = %d", c.Top())
	}
	c.DeferTop() // 0 moves to the bottom
	if c.Top() != 1 {
		t.Fatalf("top after defer = %d", c.Top())
	}
	c.DeferTop()
	c.DeferTop()
	if c.Top() != 0 {
		t.Fatalf("top after full rotation = %d", c.Top())
	}
	// Defer on a single-element stack is a no-op.
	c1 := New(nil, cfg(), 1)
	c1.DeferTop()
	if c1.Top() != 0 {
		t.Fatal("single-warp defer changed the stack")
	}
}

func TestFIFOStackOrder(t *testing.T) {
	c := New(nil, Config{Banks: 8, LinesPerBank: 4, FIFOStack: true}, 3)
	if _, err := c.ActivateTop(0, usage(1), 0, 0); err != nil {
		t.Fatal(err)
	}
	c.BeginDrain(0, usage())
	c.FinishDrain(0, 5)
	// FIFO: warp 0 rejoins at the BOTTOM; warp 1 is next.
	if c.Top() != 1 {
		t.Fatalf("FIFO top = %d, want 1", c.Top())
	}
}

func TestBeginDrainOnlyFromActive(t *testing.T) {
	c := New(nil, cfg(), 1)
	c.BeginDrain(0, usage()) // Inactive: must be a no-op
	if c.StateOf(0) != Inactive {
		t.Fatalf("state = %v", c.StateOf(0))
	}
	if _, err := c.ActivateTop(0, usage(1), 1, 0); err != nil {
		t.Fatal(err)
	}
	c.BeginDrain(0, usage()) // Preloading: also a no-op
	if c.StateOf(0) != Preloading {
		t.Fatalf("state = %v", c.StateOf(0))
	}
	c.PreloadDone(0)
	// Extra PreloadDone calls on an Active warp must not corrupt state.
	c.PreloadDone(0)
	if c.StateOf(0) != Active {
		t.Fatalf("state = %v", c.StateOf(0))
	}
}

func TestReleaseLineClampsAtZero(t *testing.T) {
	c := New(nil, cfg(), 1)
	if _, err := c.ActivateTop(0, usage(1), 0, 0); err != nil {
		t.Fatal(err)
	}
	c.ReleaseLine(0, 0)
	c.ReleaseLine(0, 0) // second release must not go negative
	if c.Reserved(0) != 0 {
		t.Fatalf("reserved = %d", c.Reserved(0))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestActiveMaskTracksState walks warps through every transition and
// holds the Active mask to the state array after each: the mask is what
// the warp scheduler reads instead of asking about one warp at a time.
// More than 64 warps, so the mask spans two words.
func TestActiveMaskTracksState(t *testing.T) {
	const n = 70
	c := New(nil, Config{Banks: 8, LinesPerBank: 2 * n}, n)
	mask := c.ActiveMask()
	check := func(step string) {
		t.Helper()
		for w := 0; w < n; w++ {
			if bit := mask[w>>6]>>(uint(w)&63)&1 != 0; bit != (c.StateOf(w) == Active) {
				t.Fatalf("%s: warp %d bit %v, state %v", step, w, bit, c.StateOf(w))
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	check("new")
	for w := 0; w < n; w++ {
		if _, err := c.ActivateTop(w, usage(1), w%2, 0); err != nil {
			t.Fatal(err)
		}
	}
	check("activated (odd warps preloading)")
	for w := 1; w < n; w += 2 {
		c.PreloadDone(w)
	}
	check("preloads done")
	c.BeginDrain(3, usage(1))
	c.BeginDrain(66, usage())
	check("draining")
	c.FinishDrain(3, 10)
	c.Finish(66)
	c.Finish(67)
	check("drained and finished")

	mask[1] ^= 1 << 5 // warp 69: Active, bit dropped
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("a dropped Active bit passed CheckInvariants")
	}
	mask[1] ^= 1 << 5
	mask[0] |= 1 << 3 // warp 3: Inactive, bit set
	if err := c.CheckInvariants(); err == nil {
		t.Fatal("a stray Active bit passed CheckInvariants")
	}
}

// TestEpochMovesWithReservationsAndStack: whether the stack's top fits
// depends on the reservations and the stack alone, and Epoch is the
// caller's licence to remember the answer — so every write to either
// must move it, and nothing else needs to.
func TestEpochMovesWithReservationsAndStack(t *testing.T) {
	c := New(nil, cfg(), 3)
	last := c.Epoch()
	if last == 0 {
		t.Fatal("a fresh manager's epoch must differ from the zero value a caller starts with")
	}
	moved := func(step string, want bool) {
		t.Helper()
		if got := c.Epoch() != last; got != want {
			t.Fatalf("%s: epoch moved = %v, want %v", step, got, want)
		}
		last = c.Epoch()
	}
	c.Fits(usage(4))
	c.Top()
	moved("queries", false)
	c.ActivateTop(1, usage(2, 1), 1, 0)
	moved("ActivateTop", true)
	c.PreloadDone(0)
	moved("PreloadDone", false)
	c.DeferTop()
	moved("DeferTop", true)
	c.BeginDrain(0, usage(1, 1))
	moved("BeginDrain", true)
	c.ReleaseLine(0, 0)
	moved("ReleaseLine", true)
	c.ReleaseLine(0, 0) // nothing left in bank 0
	moved("empty ReleaseLine", false)
	c.FinishDrain(0, 5)
	moved("FinishDrain", true)
	w, err := c.ActivateTop(2, usage(1), 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	moved("second ActivateTop", true)
	c.Finish(w)
	moved("Finish", true)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
