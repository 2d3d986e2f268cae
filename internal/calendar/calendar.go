// Package calendar is the machine's timing structure: a ring of
// per-cycle FIFOs. The SM's calendar (scoreboard releases, provider
// callbacks — package sim) and the memory hierarchy's (line deliveries,
// DRAM fetches, bank retries — package mem) are both instances of Ring.
//
// An event due at cycle c lives in slot c mod len(slots); the ring is
// sized past the longest delay its owner expects and re-buckets itself
// when one outruns it, so push and pop are O(1) with no ordering
// structure to sift. Events of one cycle fire in insertion order, the
// property the rest of the machine is written against (a provider
// callback and a writeback landing together keep their scheduling order).
//
// The caller owns the clock and passes it in. Its side of the contract:
// time does not go backwards, an event is pushed for a cycle that has
// not been drained yet, and every cycle holding an event is drained
// (Due/Pop until empty) before the clock moves past it — a fast-forward
// never jumps past NextCycle. Under that contract all pending events lie
// in [now, now+len(slots)), which is what lets a slot index stand for a
// cycle.
//
// The FIFOs are threaded through one slab of cells with a free list — a
// slot is a (head, tail) pair of slab indices — so the ring costs a fixed
// few allocations however many slots it has and the steady state
// allocates nothing.
package calendar

import (
	"math/bits"

	"repro/internal/arena"
)

// Cell is one slab entry: an event and its link (the slot's next entry,
// or the next free cell). It is exported so that an instantiating package
// can register the arena handle its ring's slab is made through.
type Cell[E any] struct {
	e    E
	next int32
}

// slot is one cycle's FIFO as slab indices; head < 0 means empty.
type slot struct{ head, tail int32 }

var (
	slotT = arena.Of[slot]()
	occT  = arena.Of[uint64]()
)

// Ring is a calendar of events of type E. The zero Ring is not usable;
// build one with New.
type Ring[E any] struct {
	slots []slot   // length is a power of two, at least 64
	occ   []uint64 // bit s set iff slots[s] is non-empty
	slab  []Cell[E]
	free  int32 // head of the free-cell list, -1 when none
	n     int   // events pending

	a     *arena.Arena
	cells arena.Type[Cell[E]]
}

// New sizes the ring so that a delay of maxDelay cycles fits without
// growing. Its storage comes from a (nil: the heap), the slab through
// the caller's handle.
func New[E any](a *arena.Arena, cells arena.Type[Cell[E]], maxDelay int) Ring[E] {
	w := Ring[E]{free: -1, a: a, cells: cells, slab: cells.Make(a, 64)[:0]}
	w.resize(ringSize(uint64(maxDelay)))
	return w
}

// ringSize is the smallest power-of-two ring (64 at least, so the
// occupancy bitmap is whole words) holding a delay of d cycles.
func ringSize(d uint64) int {
	return max(64, 1<<uint(bits.Len64(d)))
}

func (w *Ring[E]) resize(size int) {
	w.slots = slotT.Make(w.a, size)
	for i := range w.slots {
		w.slots[i].head = -1
	}
	w.occ = occT.Make(w.a, size>>6)
}

// Push schedules e at cycle at >= now.
func (w *Ring[E]) Push(now, at uint64, e E) {
	if at-now >= uint64(len(w.slots)) {
		w.grow(now, at-now)
	}
	i := w.free
	if i >= 0 {
		w.free = w.slab[i].next
	} else {
		i = int32(len(w.slab))
		w.slab = append(w.cells.Grow(w.a, w.slab, 1), Cell[E]{})
	}
	w.slab[i] = Cell[E]{e: e, next: -1}
	w.n++
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
func (w *Ring[E]) grow(now, d uint64) {
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

// Due reports whether an event is scheduled at cycle now; the owner asks
// before popping, so a cycle with nothing due costs one bit test.
func (w *Ring[E]) Due(now uint64) bool {
	s := now & uint64(len(w.slots)-1)
	return w.occ[s>>6]>>(s&63)&1 != 0
}

// Pop removes the oldest event of cycle now; Due(now) must hold.
func (w *Ring[E]) Pop(now uint64) E {
	s := now & uint64(len(w.slots)-1)
	sl := &w.slots[s]
	i := sl.head
	c := w.slab[i]
	if sl.head = c.next; sl.head < 0 {
		w.occ[s>>6] &^= 1 << (s & 63)
	}
	w.slab[i] = Cell[E]{next: w.free} // drops what the event referenced
	w.free = i
	w.n--
	return c.e
}

// Len returns the number of events pending.
func (w *Ring[E]) Len() int { return w.n }

// NextCycle returns the earliest cycle at or after now holding an event
// (ok=false when the ring is empty): the occupancy words are walked once
// around the ring from now's slot, a trailing-zeros count in the first
// non-empty one — two words at most for a 64-slot ring.
func (w *Ring[E]) NextCycle(now uint64) (uint64, bool) {
	if w.n == 0 {
		return 0, false
	}
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
