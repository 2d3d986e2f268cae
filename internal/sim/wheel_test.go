package sim

import (
	"container/heap"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/calendar"
	"repro/internal/exec"
)

// refEvent and refHeap are the reference the calendar is held to: a
// binary heap ordered by (cycle, insertion sequence) — the timing
// structure the calendar replaced.
type refEvent struct {
	cycle, seq uint64
	id         int32
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].cycle != h[j].cycle {
		return h[i].cycle < h[j].cycle
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// TestWheelMatchesReferenceHeap drives the SM's calendar (package
// calendar's ring over wheelEntry) and the reference
// with the same random schedule — the machine's own delays, so bursts
// from several of them meet in one cycle; now and then a delay past the
// ring, which must re-bucket; pushes made from inside a firing callback,
// some for the very cycle being drained — and requires the same firing
// order and the same nextCycle at every step. The clock advances the two
// ways the SM's does: cycle by cycle, and by jumping to just before the
// next event.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	delays := []uint64{1, 3, 6, 6, 6, 24, 26}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := calendar.New(nil, wheelCellT, 26)
		ring := uint64(64) // the delays the ring holds: 26 fits the smallest
		var ref refHeap
		var now, seq uint64
		var nextID int32
		var fired []int32

		var schedule func(delay uint64)
		schedule = func(delay uint64) {
			id := nextID
			nextID++
			seq++
			heap.Push(&ref, refEvent{now + delay, seq, id})
			e := wheelEntry{warp: id}
			if rng.Intn(4) == 0 {
				// A callback event: firing it schedules more, sometimes
				// into the cycle being drained.
				e.t = timerFunc(func() {
					for n := rng.Intn(3); n > 0; n-- {
						schedule(uint64(rng.Intn(8)))
					}
				})
			}
			w.Push(now, now+delay, e)
		}
		checkNext := func(where string) {
			t.Helper()
			got, ok := w.NextCycle(now)
			if len(ref) == 0 {
				if ok {
					t.Fatalf("seed %d cycle %d %s: nextCycle = %d on an empty wheel", seed, now, where, got)
				}
				return
			}
			if !ok || got != ref[0].cycle {
				t.Fatalf("seed %d cycle %d %s: nextCycle = %d,%v, reference %d", seed, now, where, got, ok, ref[0].cycle)
			}
		}

		grown := false
		for step := 0; step < 4000; step++ {
			for n := rng.Intn(4); n > 0; n-- {
				schedule(delays[rng.Intn(len(delays))])
			}
			if rng.Intn(500) == 0 {
				delay := ring + uint64(rng.Intn(300)) // past the ring
				for ring <= delay {
					ring <<= 1
				}
				schedule(delay)
				grown = true
			}
			checkNext("before the drain")
			for len(ref) > 0 && ref[0].cycle == now {
				want := heap.Pop(&ref).(refEvent)
				if !w.Due(now) {
					t.Fatalf("seed %d cycle %d: reference fires event %d, wheel has nothing due", seed, now, want.id)
				}
				e := w.Pop(now)
				if e.warp != want.id {
					t.Fatalf("seed %d cycle %d: wheel fired event %d, reference %d (after %v)",
						seed, now, e.warp, want.id, fired)
				}
				fired = append(fired, e.warp)
				if e.t != nil {
					e.t.Fire()
				}
			}
			if w.Due(now) {
				t.Fatalf("seed %d cycle %d: wheel still has an event due after the reference drained", seed, now)
			}
			checkNext("after the drain")
			if next, ok := w.NextCycle(now); ok && next > now+1 && rng.Intn(3) == 0 {
				now = next - 1 // fast-forward stops one short of the wakeup
			}
			now++
		}
		if !grown || len(fired) < 1000 {
			t.Fatalf("seed %d: schedule too thin to prove anything (grown=%v, %d fired)", seed, grown, len(fired))
		}
	}
}

// TestWheelSteadyStateAllocatesNothing: cells come back through the free
// list, so a wheel that has reached its working size pushes and pops
// without allocating.
func TestWheelSteadyStateAllocatesNothing(t *testing.T) {
	w := calendar.New(nil, wheelCellT, 26)
	now := uint64(0)
	round := func() {
		for i := 0; i < 200; i++ {
			w.Push(now, now+6, wheelEntry{warp: 1})
			w.Push(now, now+26, wheelEntry{warp: 2})
			for w.Due(now) {
				w.Pop(now)
			}
			now++
		}
	}
	round()
	if got := testing.AllocsPerRun(10, round); got != 0 {
		t.Errorf("%v allocations per round, want 0", got)
	}
}

// timerFunc is a Timer that calls a func.
type timerFunc func()

func (f timerFunc) Fire() { f() }

// afterProvider schedules a callback delay cycles ahead at cycle 50.
type afterProvider struct {
	nullStager
	sm    *SM
	delay int
	ran   bool
}

func (p *afterProvider) Attach(sm *SM) error { p.sm = sm; return nil }
func (p *afterProvider) Tick() {
	if p.sm.Cycle() == 50 {
		p.sm.After(p.delay, p)
	}
}
func (p *afterProvider) Fire() { p.ran = true }

// TestAfterRejectsNonPositiveDelay: this cycle's events have already
// fired when a provider runs, so a delay below one cycle has no cycle to
// land on. It used to wrap to a delay of 2^64-1; it is a diagnostic.
func TestAfterRejectsNonPositiveDelay(t *testing.T) {
	for _, delay := range []int{0, -3} {
		p := &afterProvider{delay: delay}
		sm, err := New(testConfig(), smallKernel(t), p, exec.NewMemory(nil))
		if err != nil {
			t.Fatal(err)
		}
		_, err = sm.Run()
		d := asDiagnostic(t, err)
		if d.Component != "sim/after" || d.Cycle != 50 || !strings.Contains(d.Violation, "at least 1") {
			t.Errorf("delay %d: got %s at cycle %d: %q", delay, d.Component, d.Cycle, d.Violation)
		}
		if p.ran {
			t.Errorf("delay %d: the rejected callback ran", delay)
		}
	}
	p := &afterProvider{delay: 1}
	sm, err := New(testConfig(), smallKernel(t), p, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.ran {
		t.Error("a one-cycle delay never fired")
	}
}
