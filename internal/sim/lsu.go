package sim

import (
	"repro/internal/arena"
	"repro/internal/isa"
	"repro/internal/mem"
)

// lsu is the load/store unit: a queue of coalesced memory instructions
// whose line requests drain into the bypassing L2 path as the interconnect
// accepts them. One memory instruction is accepted per issue (the SM's
// single LSU port); its lines may take several cycles to inject.
//
// Ops are pooled, their line list is an inline array (a warp has at most
// WarpWidth lanes, so at most WarpWidth distinct lines), and the op is
// itself what the memory system calls back (mem.Waiter), so a memory
// instruction allocates nothing: no line slice, no completion closure.
type lsu struct {
	sm    *SM
	queue []*memOp
	cap   int
	free  *memOp
}

type memOp struct {
	l         *lsu
	w         *Warp
	dst       isa.Reg // NoReg for stores
	write     bool
	lines     [isa.WarpWidth]uint32
	nLines    int
	submitted int
	remaining int
	next      *memOp // pool free list
}

// MemDone implements mem.Waiter: one of the op's lines has completed.
func (op *memOp) MemDone(mem.Source) {
	op.remaining--
	if op.remaining == 0 {
		op.l.finish(op)
		op.l.release(op)
	}
}

var (
	lsuT      = arena.Of[lsu]()
	memOpT    = arena.Of[memOp]()
	memOpPtrT = arena.Of[*memOp]()
)

func newLSU(sm *SM, capacity int) *lsu {
	l := lsuT.New(sm.a)
	// The pick refuses a global access while the queue is full, so it
	// never outgrows its capacity.
	*l = lsu{sm: sm, cap: capacity, queue: memOpPtrT.Make(sm.a, capacity)[:0]}
	return l
}

func (l *lsu) hasRoom() bool { return len(l.queue) < l.cap }

func (l *lsu) empty() bool { return len(l.queue) == 0 }

func (l *lsu) alloc() *memOp {
	op := l.free
	if op == nil {
		op = memOpT.New(l.sm.a)
		op.l = l
		return op
	}
	l.free = op.next
	return op
}

func (l *lsu) release(op *memOp) {
	op.w = nil
	op.next = l.free
	l.free = op
}

// submit coalesces one memory instruction's lane addresses and enqueues
// it. With no active lanes the op completes immediately.
func (l *lsu) submit(w *Warp, dst isa.Reg, addrs []uint32, write bool) {
	op := l.alloc()
	op.w, op.dst, op.write = w, dst, write
	op.nLines = coalesceInto(&op.lines, addrs)
	op.submitted, op.remaining = 0, op.nLines
	l.sm.Stats.MemLines += uint64(op.nLines)
	if op.nLines == 0 {
		l.finish(op)
		l.release(op)
		return
	}
	l.queue = append(l.queue, op)
}

// tick injects as many line requests as the memory system accepts,
// in order across queued ops (one op's lines first).
func (l *lsu) tick() {
	for len(l.queue) > 0 {
		op := l.queue[0]
		for op.submitted < op.nLines {
			if !l.sm.Mem.DataAccessFor(op.lines[op.submitted], op.write, op) {
				return
			}
			op.submitted++
		}
		// All lines injected; pop. Completion happens via MemDone.
		// Copy down rather than reslice from the front: queue[1:] gives
		// up a slot of capacity per pop, so submit's append regrew the
		// queue for the whole run.
		n := copy(l.queue, l.queue[1:])
		l.queue[n] = nil
		l.queue = l.queue[:n]
	}
}

func (l *lsu) finish(op *memOp) {
	if !op.write && op.dst.Valid() {
		op.w.completePending(op.dst, true)
	}
}

// coalesceInto groups per-lane byte addresses into distinct 128 B lines,
// writing them into the caller's inline buffer; returns the line count.
func coalesceInto(lines *[isa.WarpWidth]uint32, addrs []uint32) int {
	n := 0
	for _, a := range addrs {
		ln := a &^ (mem.LineSize - 1)
		found := false
		for i := 0; i < n; i++ {
			if lines[i] == ln {
				found = true
				break
			}
		}
		if !found {
			lines[n] = ln
			n++
		}
	}
	return n
}
