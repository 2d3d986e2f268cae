package sim

import "repro/internal/isa"

// eventWheel is the SM's timing calendar: a hand-rolled binary min-heap
// ordered by (cycle, seq) so same-cycle entries fire in insertion order —
// the exact semantics of the append-per-cycle map it replaced, without the
// per-cycle map churn the profiles surfaced.
//
// The common entry is a scoreboard release (a fixed-latency writeback): it
// is stored inline as (warp, reg, mem) instead of a closure, so the steady
// state allocates nothing. Provider callbacks (compressor decompress
// delays) still carry a fn.
type wheelEntry struct {
	cycle uint64
	seq   uint64
	fn    func()
	warp  int32
	reg   isa.Reg
	mem   bool
}

type eventWheel struct {
	h   []wheelEntry
	seq uint64
}

func (w *eventWheel) len() int { return len(w.h) }

// nextCycle peeks the earliest scheduled cycle (ok=false when empty).
func (w *eventWheel) nextCycle() (uint64, bool) {
	if len(w.h) == 0 {
		return 0, false
	}
	return w.h[0].cycle, true
}

func (w *eventWheel) before(a, b wheelEntry) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

func (w *eventWheel) push(e wheelEntry) {
	w.seq++
	e.seq = w.seq
	w.h = append(w.h, e)
	i := len(w.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !w.before(w.h[i], w.h[parent]) {
			break
		}
		w.h[i], w.h[parent] = w.h[parent], w.h[i]
		i = parent
	}
}

// due reports whether an entry is scheduled at or before now; step asks
// before popping, so a cycle with nothing due builds no empty entry.
func (w *eventWheel) due(now uint64) bool { return len(w.h) > 0 && w.h[0].cycle <= now }

// pop removes the earliest entry; the wheel must not be empty.
func (w *eventWheel) pop() wheelEntry {
	top := w.h[0]
	n := len(w.h) - 1
	w.h[0] = w.h[n]
	w.h[n] = wheelEntry{} // release the fn for GC
	w.h = w.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && w.before(w.h[l], w.h[min]) {
			min = l
		}
		if r < n && w.before(w.h[r], w.h[min]) {
			min = r
		}
		if min == i {
			break
		}
		w.h[i], w.h[min] = w.h[min], w.h[i]
		i = min
	}
	return top
}
