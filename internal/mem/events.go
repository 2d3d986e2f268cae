package mem

// request says who waits on an access below the L1 and what the data's
// arrival means to them. It travels by value through the L2 level and
// the event queue, so a line request allocates nothing on its way down
// and back: the Waiter the caller passed in is the only party involved.
type request struct {
	kind reqKind
	line uint32 // reqL1Fill: the L1 line (unbiased address) to install
	w    Waiter
}

type reqKind uint8

const (
	// reqNone: nobody waits (writes).
	reqNone reqKind = iota
	// reqCall: tell w the source.
	reqCall
	// reqData: a bypassing data access — free its queue slot, then tell
	// w if there is one.
	reqData
	// reqL1Fill: an L1 read miss — install the line and wake every
	// waiter merged on its MSHR.
	reqL1Fill
)

// evKind says what a scheduled event does when it comes due.
type evKind uint8

const (
	// evDeliver hands src to the request (Hierarchy.deliver).
	evDeliver evKind = iota
	// evFetched: the DRAM fetch of L2 line addr has landed (BankedL2.fetched).
	evFetched
	// evRetry re-presents a read the banked L2 bounced off a full MSHR file.
	evRetry
)

// event is one pending completion on the hierarchy's calendar (package
// calendar, the structure the SM's timing events use too): events due in
// the same cycle fire in the order they were scheduled.
type event struct {
	kind evKind
	src  Source
	addr uint32 // evFetched, evRetry: the (bias-adjusted) L2 line
	wait int    // cycles still to go once this hop lands (schedule)
	req  request
}

// horizon is the farthest ahead an event is put on the calendar, whose
// ring spans the delays it holds. Nothing the machine does on its own
// waits that long — a DRAM round trip behind a deep backlog is a thousand
// cycles — but a mem-delay fault takes its delay from the command line,
// so an event due later gets there in hops of a horizon each.
const horizon = 1 << 12

// schedule queues e delay cycles from now. A completion lands at the next
// Tick at the earliest — which is all a delay below one cycle ever meant:
// this cycle's events have fired when an access is accepted.
func (h *Hierarchy) schedule(delay int, e event) {
	delay = max(delay, 1)
	if delay > horizon {
		e.wait, delay = delay-horizon, horizon
	}
	h.events.Push(h.now, h.now+uint64(delay), e)
}
