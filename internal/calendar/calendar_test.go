package calendar

import (
	"math/rand"
	"testing"

	"repro/internal/arena"
)

// heapQueue is the oracle the ring is held to: the binary min-heap
// ordered by (cycle, insertion sequence) that the memory hierarchy
// scheduled its completions on before it moved to the ring.
type heapEvent struct {
	cycle, seq uint64
	id         int
}

type heapQueue struct {
	h   []heapEvent
	seq uint64
}

func before(a, b *heapEvent) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

func (q *heapQueue) push(cycle uint64, id int) {
	q.seq++
	q.h = append(q.h, heapEvent{cycle, q.seq, id})
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !before(&q.h[i], &q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *heapQueue) due(now uint64) bool { return len(q.h) > 0 && q.h[0].cycle <= now }

func (q *heapQueue) pop() heapEvent {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	for i := 0; ; {
		l, r, min := 2*i+1, 2*i+2, i
		if l < n && before(&q.h[l], &q.h[min]) {
			min = l
		}
		if r < n && before(&q.h[r], &q.h[min]) {
			min = r
		}
		if min == i {
			break
		}
		q.h[i], q.h[min] = q.h[min], q.h[i]
		i = min
	}
	return top
}

var intCellT = arena.Of[Cell[int]]()

// TestRingMatchesHeapOracle drives a ring and the heap with the same
// seeded schedules — delays of 1 to 5 000 cycles against a ring sized
// for 320, so a burst of long ones re-buckets it more than once; pushes
// made while a cycle is being drained, as a completion that schedules
// the next does; a clock that steps, and that jumps to just short of the
// next event as fast-forward does — and requires the same events in the
// same (cycle, insertion) order, and the same NextCycle and Len at every
// step. Once on the heap, once in an arena.
func TestRingMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		var a *arena.Arena
		if seed%2 == 0 {
			a = new(arena.Arena)
		}
		rng := rand.New(rand.NewSource(seed))
		w := New(a, intCellT, 320)
		var ref heapQueue
		var now uint64
		next, long := 0, 900
		schedule := func() {
			delay := uint64(1 + rng.Intn(400))
			switch rng.Intn(40) {
			case 0:
				delay = uint64(1 + rng.Intn(long))
			case 1:
				delay = 1
			}
			ref.push(now+delay, next)
			w.Push(now, now+delay, next)
			next++
		}
		grows, fired, size := 0, 0, len(w.slots)
		for step := 0; step < 20000; step++ {
			if step == 10000 {
				long = 5000 // a second, deeper backlog
			}
			for n := rng.Intn(4); n > 0; n-- {
				schedule()
			}
			if len(w.slots) != size {
				grows, size = grows+1, len(w.slots)
			}
			if w.Len() != len(ref.h) {
				t.Fatalf("seed %d cycle %d: Len() = %d, oracle holds %d", seed, now, w.Len(), len(ref.h))
			}
			got, ok := w.NextCycle(now)
			if ok != (len(ref.h) > 0) || (ok && got != ref.h[0].cycle) {
				t.Fatalf("seed %d cycle %d: NextCycle = %d,%v; oracle's earliest is %v", seed, now, got, ok, ref.h)
			}
			if ok && got > now+1 && rng.Intn(3) == 0 {
				now = got - 1 // fast-forward stops one short of the wakeup
			}
			now++
			for ref.due(now) {
				want := ref.pop()
				if want.cycle != now {
					t.Fatalf("seed %d: the oracle's clock skipped an event due at %d (now %d)", seed, want.cycle, now)
				}
				if !w.Due(now) {
					t.Fatalf("seed %d cycle %d: oracle fires event %d, the ring has nothing due", seed, now, want.id)
				}
				if id := w.Pop(now); id != want.id {
					t.Fatalf("seed %d cycle %d: the ring fired event %d, the oracle %d", seed, now, id, want.id)
				}
				fired++
				if rng.Intn(5) == 0 {
					schedule() // a completion that schedules the next
				}
			}
			if w.Due(now) {
				t.Fatalf("seed %d cycle %d: the ring still has an event due after the oracle drained", seed, now)
			}
		}
		if grows < 2 || fired < 10000 {
			t.Fatalf("seed %d: schedule too thin to prove anything (%d grows, %d fired)", seed, grows, fired)
		}
	}
}

// TestRingSteadyStateAllocatesNothing: cells come back through the free
// list, so a ring that has reached its working size pushes and pops
// without allocating — on the heap, and in an arena it does not grow.
func TestRingSteadyStateAllocatesNothing(t *testing.T) {
	for _, a := range []*arena.Arena{nil, new(arena.Arena)} {
		w := New(a, intCellT, 320)
		now := uint64(0)
		round := func() {
			for i := 0; i < 500; i++ {
				w.Push(now, now+24, 1)
				w.Push(now, now+320, 2)
				w.Push(now, now+95, 3)
				now++
				for w.Due(now) {
					w.Pop(now)
				}
			}
		}
		round()
		if got := testing.AllocsPerRun(10, round); got != 0 {
			t.Errorf("%v allocations per round, want 0", got)
		}
	}
}
