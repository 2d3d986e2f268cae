package sim

import (
	"math/bits"

	"repro/internal/isa"
)

// eventWheel is the SM's timing calendar: a ring of per-cycle FIFOs.
// Every delay the machine schedules is a small constant (the execution
// latencies, the compressor's decompress delay), so an event due at
// cycle c lives in slot c mod len(slots), the ring is sized past the
// longest configured latency, and push and pop are O(1) — no ordering
// structure to sift. Events of one cycle fire in insertion order, the
// property the rest of the machine is written against (a provider
// callback and a writeback landing together keep their scheduling order).
//
// The caller owns the clock and passes it in. Its side of the contract:
// time does not go backwards, and every cycle holding an event is
// drained (due/pop until empty) before the clock moves past it — step
// does so each cycle, and fast-forward never jumps past nextCycle. Under
// that contract all pending events lie in [now, now+len(slots)), which
// is what lets a slot index stand for a cycle.
//
// The FIFOs are threaded through one slab of entries with a free list:
// a slot is a (head, tail) pair of slab indices, so the ring costs one
// allocation however many slots it has and the steady state allocates
// nothing. The common entry is a scoreboard release (a fixed-latency
// writeback), stored inline as (warp, reg, mem) instead of a closure;
// provider callbacks carry a fn.
type wheelEntry struct {
	fn   func()
	next int32 // slab link: the slot's next entry, or the next free cell
	warp int32
	reg  isa.Reg
	mem  bool
}

// wheelSlot is one cycle's FIFO as slab indices; head < 0 means empty.
type wheelSlot struct{ head, tail int32 }

type eventWheel struct {
	slots []wheelSlot // length is a power of two, at least 64
	occ   []uint64    // bit s set iff slots[s] is non-empty
	slab  []wheelEntry
	free  int32 // head of the free-cell list, -1 when none
}

// newEventWheel sizes the ring so that a delay of maxDelay cycles fits
// without growing.
func newEventWheel(maxDelay int) eventWheel {
	w := eventWheel{free: -1, slab: make([]wheelEntry, 0, 64)}
	w.resize(ringSize(uint64(maxDelay)))
	return w
}

// ringSize is the smallest power-of-two ring (64 at least, so the
// occupancy bitmap is whole words) holding a delay of d cycles.
func ringSize(d uint64) int {
	return max(64, 1<<uint(bits.Len64(d)))
}

func (w *eventWheel) resize(size int) {
	w.slots = make([]wheelSlot, size)
	for i := range w.slots {
		w.slots[i].head = -1
	}
	w.occ = make([]uint64, size>>6)
}

// push schedules e at cycle at >= now.
func (w *eventWheel) push(now, at uint64, e wheelEntry) {
	if at-now >= uint64(len(w.slots)) {
		w.grow(now, at-now)
	}
	i := w.free
	if i >= 0 {
		w.free = w.slab[i].next
	} else {
		i = int32(len(w.slab))
		w.slab = append(w.slab, wheelEntry{})
	}
	e.next = -1
	w.slab[i] = e
	s := at & uint64(len(w.slots)-1)
	if sl := &w.slots[s]; sl.head < 0 {
		sl.head, sl.tail = i, i
		w.occ[s>>6] |= 1 << (s & 63)
	} else {
		w.slab[sl.tail].next = i
		sl.tail = i
	}
}

// grow re-buckets the ring into one that holds a delay of d cycles. A
// slot's events all share one cycle — now plus the slot's distance ahead
// of now's slot — so each FIFO moves whole, order intact.
func (w *eventWheel) grow(now, d uint64) {
	old := w.slots
	oldMask := uint64(len(old) - 1)
	w.resize(ringSize(d))
	mask := uint64(len(w.slots) - 1)
	for s, sl := range old {
		if sl.head >= 0 {
			t := (now + (uint64(s)-now)&oldMask) & mask
			w.slots[t] = sl
			w.occ[t>>6] |= 1 << (t & 63)
		}
	}
}

// due reports whether an event is scheduled at cycle now; step asks
// before popping, so a cycle with nothing due costs one bit test.
func (w *eventWheel) due(now uint64) bool {
	s := now & uint64(len(w.slots)-1)
	return w.occ[s>>6]>>(s&63)&1 != 0
}

// pop removes the oldest event of cycle now; due(now) must hold.
func (w *eventWheel) pop(now uint64) wheelEntry {
	s := now & uint64(len(w.slots)-1)
	sl := &w.slots[s]
	i := sl.head
	e := w.slab[i]
	if sl.head = e.next; sl.head < 0 {
		w.occ[s>>6] &^= 1 << (s & 63)
	}
	w.slab[i] = wheelEntry{next: w.free} // drops the fn for GC
	w.free = i
	return e
}

// nextCycle returns the earliest cycle at or after now holding an event
// (ok=false when the wheel is empty): the occupancy words are walked once
// around the ring from now's slot, a trailing-zeros count in the first
// non-empty one — two words at most for the usual 64-slot ring.
func (w *eventWheel) nextCycle(now uint64) (uint64, bool) {
	mask := uint64(len(w.slots) - 1)
	s := now & mask
	words := uint64(len(w.occ))
	for k := uint64(0); k <= words; k++ {
		j := (s>>6 + k) & (words - 1)
		m := w.occ[j]
		if k == 0 {
			m &= ^uint64(0) << (s & 63) // slots at or after now's
		}
		if k == words {
			m &= 1<<(s&63) - 1 // wrapped: the slots before now's
		}
		if m != 0 {
			return now + (j<<6+uint64(bits.TrailingZeros64(m))-s)&mask, true
		}
	}
	return 0, false
}
