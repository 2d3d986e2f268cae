package mem

// request says who waits on an access below the L1 and what the data's
// arrival means to them. It travels by value through the L2 level and
// the event queue, so a line request allocates no closure on its way
// down and back: the callback the caller passed in is the only func
// involved.
type request struct {
	kind reqKind
	line uint32 // reqL1Fill: the L1 line (unbiased address) to install
	done func(Source)
}

type reqKind uint8

const (
	// reqNone: nobody waits (writes).
	reqNone reqKind = iota
	// reqCall: call done with the source.
	reqCall
	// reqData: a bypassing data access — free its queue slot, then call
	// done if there is one.
	reqData
	// reqL1Fill: an L1 read miss — install the line and wake every
	// waiter merged on its MSHR.
	reqL1Fill
)

// reuse pops a released waiter list off free (nil when there is none);
// release clears a list and parks it there. MSHR waiter lists cycle
// through these so a miss allocates no slice.
func reuse[T any](free *[][]T) []T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	l := (*free)[n-1]
	*free = (*free)[:n-1]
	return l
}

func release[T any](free *[][]T, l []T) {
	clear(l)
	*free = append(*free, l[:0])
}

// evKind says what a scheduled event does when it comes due.
type evKind uint8

const (
	// evDeliver hands src to the request (Hierarchy.deliver).
	evDeliver evKind = iota
	// evFetched: the DRAM fetch of L2 line addr has landed (l2Level.fetched).
	evFetched
	// evRetry re-presents a read the banked L2 bounced off a full MSHR file.
	evRetry
)

// event is one pending completion, stored inline in the heap — the same
// shape sim's eventWheel uses for scoreboard releases.
type event struct {
	cycle uint64
	seq   uint64
	kind  evKind
	src   Source
	addr  uint32 // evFetched, evRetry: the (bias-adjusted) L2 line
	req   request
}

// eventQueue is a min-heap of pending completions ordered by cycle.
// Events scheduled for the same cycle fire in insertion order (the seq
// tiebreak). Hand-rolled rather than container/heap so the per-event
// push/pop stays monomorphic in the simulation hot loop, and so the
// cycle-skip fast-forward can peek the earliest completion.
type eventQueue struct {
	h   []event
	seq uint64
}

func (q *eventQueue) before(a, b *event) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(e event) {
	q.seq++
	e.seq = q.seq
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(&q.h[i], &q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// due reports whether an event is scheduled at or before now. Tick asks
// this before popping: an idle cycle then costs two compares, not the
// construction of an empty event.
func (q *eventQueue) due(now uint64) bool { return len(q.h) > 0 && q.h[0].cycle <= now }

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *eventQueue) pop() event {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[n] = event{} // release the callback for GC
	q.h = q.h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.before(&q.h[l], &q.h[min]) {
			min = l
		}
		if r < n && q.before(&q.h[r], &q.h[min]) {
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

// nextCycle peeks the earliest scheduled completion (ok=false when empty).
func (q *eventQueue) nextCycle() (uint64, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].cycle, true
}

func (q *eventQueue) len() int { return len(q.h) }
