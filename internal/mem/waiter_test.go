package mem

import (
	"testing"

	"repro/internal/faults"
)

// heard is what a requester learns of its access: how often it was
// answered, when, and from which level.
type heard struct {
	n     int
	cycle uint64
	src   Source
}

// listener is a requester's own record waiting on an access, as the SM's
// memory op and RegLess's fill are.
type listener struct {
	h *Hierarchy
	heard
}

func (l *listener) MemDone(src Source) { l.n, l.cycle, l.src = l.n+1, l.h.now, src }

// TestWaiterAndFuncPathsAgree: L1Access/DataAccess (a func) are adaptors
// over L1AccessFor/DataAccessFor (a Waiter), so the same access on the
// same hierarchy state must be answered once, on the same cycle, from the
// same level whichever way it was submitted — through the L1 hit path, a
// miss merged onto an MSHR already in flight, the bypassing data path,
// and both write paths — and an injected mem-delay or mem-drop must reach
// the Waiter exactly as it reaches the func.
func TestWaiterAndFuncPathsAgree(t *testing.T) {
	const line = RegSpaceBase + 41*LineSize
	cases := []struct {
		name  string
		setup func(t *testing.T, h *Hierarchy) // the state the access meets
		data  bool                             // the bypassing path, not the L1
		write bool
		src   Source // who answers a healthy access
	}{
		{name: "L1 hit", setup: func(t *testing.T, h *Hierarchy) {
			if !h.L1Access(line, true, nil) {
				t.Fatal("setup write refused")
			}
			h.Tick()
		}, src: SrcL1},
		{name: "L1 miss merged into an MSHR in flight", setup: func(t *testing.T, h *Hierarchy) {
			if !h.L1Access(line, false, nil) {
				t.Fatal("setup miss refused")
			}
			h.Tick()
			if h.mshrs.inUse() != 1 {
				t.Fatal("setup left no MSHR in flight")
			}
		}, src: SrcDRAM},
		{name: "bypass read", data: true, src: SrcDRAM},
		{name: "L1 write", write: true, src: SrcL1},
		{name: "bypass write", data: true, write: true, src: SrcL2},
	}
	for _, c := range cases {
		for _, fault := range []string{"", "mem-delay@0:delay=37", "mem-drop@0"} {
			t.Run(c.name+"/"+fault, func(t *testing.T) {
				submit := func(viaWaiter bool) (heard, Stats) {
					h := New(DefaultConfig())
					h.Tick()
					if c.setup != nil {
						c.setup(t, h)
					}
					if fault != "" { // armed now, so the access under test takes it
						plan, err := faults.Parse(fault)
						if err != nil {
							t.Fatal(err)
						}
						h.SetFaults(faults.NewInjector(plan))
					}
					l := &listener{h: h}
					var w Waiter = l
					ok := false
					switch {
					case c.data && viaWaiter:
						ok = h.DataAccessFor(line, c.write, w)
					case c.data:
						ok = h.DataAccess(line, c.write, l.MemDone)
					case viaWaiter:
						ok = h.L1AccessFor(line, c.write, w)
					default:
						ok = h.L1Access(line, c.write, l.MemDone)
					}
					if !ok {
						t.Fatal("access refused")
					}
					for i := 0; i < 2000; i++ {
						h.Tick()
					}
					if !h.Drained() {
						t.Fatal("hierarchy did not drain")
					}
					return l.heard, h.Stats
				}
				viaFunc, statsFunc := submit(false)
				viaWaiter, statsWaiter := submit(true)
				if viaFunc != viaWaiter {
					t.Fatalf("func heard %+v, Waiter heard %+v", viaFunc, viaWaiter)
				}
				if statsFunc != statsWaiter {
					t.Fatalf("stats differ:\n%+v\n%+v", statsFunc, statsWaiter)
				}
				switch fault {
				case "mem-drop@0":
					if viaWaiter.n != 0 || statsWaiter.FaultDrops != 1 {
						t.Fatalf("dropped response: heard %+v, %d drops", viaWaiter, statsWaiter.FaultDrops)
					}
				default:
					if viaWaiter.n != 1 || viaWaiter.src != c.src {
						t.Fatalf("heard %+v, want one answer from %v", viaWaiter, c.src)
					}
				}
			})
		}
	}
	// The delay is added to the healthy answer's cycle, on both paths.
	healthy, delayed := uint64(0), uint64(0)
	for i, fault := range []string{"", "mem-delay@0:delay=37"} {
		h := New(DefaultConfig())
		if fault != "" {
			plan, _ := faults.Parse(fault)
			h.SetFaults(faults.NewInjector(plan))
		}
		l := &listener{h: h}
		h.DataAccessFor(line, false, l)
		for l.n == 0 {
			h.Tick()
		}
		if i == 0 {
			healthy = l.cycle
		} else {
			delayed = l.cycle
		}
	}
	if delayed != healthy+37 {
		t.Fatalf("delayed answer at cycle %d, healthy at %d: want 37 apart", delayed, healthy)
	}
}

// TestWaiterAccessAllocatesNothing: a pointer in an interface is carried
// as is, so an access submitted for a Waiter allocates nothing on its way
// down and back, hit or miss.
func TestWaiterAccessAllocatesNothing(t *testing.T) {
	h := New(DefaultConfig())
	l := &listener{h: h}
	round := func() {
		for i := uint32(0); i < 64; i++ {
			for !h.L1AccessFor(RegSpaceBase+i*97*LineSize, false, l) {
				h.Tick()
			}
			for !h.DataAccessFor(i*4096, i%2 == 0, l) {
				h.Tick()
			}
			h.Tick()
		}
		for !h.Drained() {
			h.Tick()
		}
	}
	round() // the MSHR waiter lists and the calendar reach their size
	if got := testing.AllocsPerRun(5, round); got != 0 {
		t.Errorf("%v allocations per round of 128 accesses, want 0", got)
	}
	if l.n == 0 {
		t.Fatal("nothing was answered")
	}
}
