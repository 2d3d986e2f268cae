// Package mem models the memory hierarchy at cycle granularity: the
// per-SM L1 data cache (48 KB, 32 MSHRs, one request per cycle —
// Table 1), an L2, and DRAM with a bandwidth limit. The L2 level sits
// behind one seam (l2Level) with two implementations: a private flat
// slice with a per-SM DRAM share (privateL2, this file — what a chip of
// one SM runs on) or the chip-wide BankedL2 (l2.go) that all SMs'
// hierarchies share. Which one a run gets is decided where the chip is
// assembled (experiments.Assemble), not here.
//
// Following the paper's GTX 980 configuration, ordinary global data
// accesses *bypass* the L1 and go straight to L2 ("data accesses bypassed",
// Table 1); the L1 serves the register backing store. For register lines
// the L1 is write-back with no fetch-on-write, because RegLess guarantees
// whole-line writes by preloading any partially-written register (§5.2.3).
//
// Timing is cycle-ticked: callers submit requests (which may be refused
// when a port or MSHR is unavailable — callers retry next cycle) and
// completions are delivered during Tick. Whoever waits on an access is a
// Waiter — the requester's own record (the SM's memory op, RegLess's
// preload fill), held by pointer through the request, the MSHR waiter
// lists, the L2 level and the event queue, so an access allocates
// nothing on its way down and back. L1Access and DataAccess take a func
// instead and are adaptors over the same path (WaiterFunc).
package mem

import (
	"repro/internal/arena"
	"repro/internal/calendar"
	"repro/internal/events"
	"repro/internal/faults"
)

// LineSize is the cache line size in bytes; one register (32 lanes x 4 B)
// fills exactly one line.
const LineSize = 128

// Address-space bases. The CUDA-level allocator in the paper places the
// register backing store with cudaMalloc (§5.2.3); we fix the layout.
const (
	// RegSpaceBase is the uncompressed register backing store.
	RegSpaceBase uint32 = 0x4000_0000
	// CompressedBase is the adjacent space holding compressed register
	// lines (§5.3).
	CompressedBase uint32 = 0x6000_0000
)

// Config sets the hierarchy geometry and latencies (defaults follow
// Table 1 and common GTX 980 figures).
type Config struct {
	L1Sets       int // 64 sets x 6 ways x 128 B = 48 KB
	L1Ways       int
	L1MSHRs      int
	L1HitLatency int

	L2Sets    int // per-SM slice of the 2 MB L2
	L2Ways    int
	L2Latency int

	DRAMLatency int
	// DRAMCyclesPerLine throttles DRAM bandwidth: minimum cycles between
	// line transfers for this SM's share of the 224 GB/s.
	DRAMCyclesPerLine int
	// DataQueueDepth bounds in-flight bypassing data accesses.
	DataQueueDepth int
	// DataCyclesPerReq throttles the SM's interconnect injection rate.
	DataCyclesPerReq int

	// AddrBias shifts this hierarchy's addresses before they reach a
	// shared (banked) L2, so co-resident kernels with identical virtual
	// layouts occupy distinct lines. Zero for private L2s and for
	// single-kernel multi-SM runs (SMs of one kernel genuinely share
	// lines).
	AddrBias uint32
}

// DefaultConfig returns the Table 1 configuration for one SM.
func DefaultConfig() Config {
	return Config{
		L1Sets:       64,
		L1Ways:       6,
		L1MSHRs:      32,
		L1HitLatency: 24,
		L2Sets:       512, // 512 x 8 x 128 B = 512 KB slice
		L2Ways:       8,
		L2Latency:    95,
		DRAMLatency:  225,
		// One SM's share of 224 GB/s at 1 GHz is ~14 B/cycle, i.e. one
		// 128 B line every ~9 cycles.
		DRAMCyclesPerLine: 9,
		DataQueueDepth:    64,
		DataCyclesPerReq:  2,
	}
}

// Source tells a waiter which level satisfied the access — the
// provenance Figure 17 reports for register preloads.
type Source uint8

const (
	// SrcL1 marks an L1 hit (or a write absorbed by L1).
	SrcL1 Source = iota
	// SrcL2 marks an L1 miss satisfied by the L2.
	SrcL2
	// SrcDRAM marks a miss that went to DRAM.
	SrcDRAM
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SrcL1:
		return "L1"
	case SrcL2:
		return "L2"
	default:
		return "DRAM"
	}
}

// Waiter is whoever an access completes for: MemDone is called during
// Tick, once, when a read's data is available or a write is accepted,
// with the level that supplied it. A pointer that implements it is
// carried as is — no closure per access.
type Waiter interface {
	MemDone(Source)
}

// WaiterFunc makes a Waiter of a func (a func value is a pointer, so the
// conversion allocates nothing either).
type WaiterFunc func(Source)

// MemDone calls f.
func (f WaiterFunc) MemDone(src Source) { f(src) }

// funcWaiter is the Waiter for the func-taking entry points: none for nil.
func funcWaiter(done func(Source)) Waiter {
	if done == nil {
		return nil
	}
	return WaiterFunc(done)
}

// Stats counts hierarchy events for the energy model and Figures 17/18.
type Stats struct {
	L1Hits          uint64 `metric:"l1_hits"`
	L1Misses        uint64 `metric:"l1_misses"`
	L1Reads         uint64 `metric:"l1_reads"`
	L1Writes        uint64 `metric:"l1_writes"`
	L1Writebacks    uint64 `metric:"l1_writebacks"`
	L1Invalidations uint64 `metric:"l1_invalidations"`
	L2Hits          uint64 `metric:"l2_hits"`
	L2Misses        uint64 `metric:"l2_misses"`
	DataReads       uint64 `metric:"data_reads"`
	DataWrites      uint64 `metric:"data_writes"`
	DRAMAccesses    uint64 `metric:"dram_accesses"`

	// Structural-hazard rejections (the submitting unit retries next
	// cycle, so these count contention cycles, not lost requests):
	// L1PortRejects are requests refused because the single L1 port was
	// claimed this cycle, MSHRRejects because all MSHRs were in use, and
	// DataRejects because the bypass queue or injection port was busy.
	L1PortRejects uint64 `metric:"l1_port_rejects"`
	MSHRRejects   uint64 `metric:"mshr_rejects"`
	DataRejects   uint64 `metric:"data_rejects"`

	// FaultDrops/FaultDelays count injected response faults applied
	// (zero outside fault-injection runs).
	FaultDrops  uint64
	FaultDelays uint64
}

type line struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64
}

type cache struct {
	sets, ways int
	lines      []line
}

var (
	cacheT     = arena.Of[cache]()
	lineT      = arena.Of[line]()
	hierarchyT = arena.Of[Hierarchy]()
	privateL2T = arena.Of[privateL2]()
	waiterT    = arena.Of[Waiter]()
	l1mshrT    = arena.Of[mshr[Waiter]]()
)

func newCache(a *arena.Arena, sets, ways int) *cache {
	c := cacheT.New(a)
	*c = cache{sets: sets, ways: ways, lines: lineT.Make(a, sets*ways)}
	return c
}

func (c *cache) set(addr uint32) []line {
	idx := int(addr/LineSize) % c.sets
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

// lookup returns the way holding addr, or nil.
func (c *cache) lookup(addr uint32, now uint64) *line {
	tag := addr / LineSize
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = now
			return &set[i]
		}
	}
	return nil
}

// victim returns the way to fill for addr (LRU; invalid ways first).
func (c *cache) victim(addr uint32) *line {
	set := c.set(addr)
	var v *line
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if v == nil || set[i].lru < v.lru {
			v = &set[i]
		}
	}
	return v
}

// invalidate drops addr's line if present, returning whether it was dirty.
func (c *cache) invalidate(addr uint32) (present, dirty bool) {
	tag := addr / LineSize
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			return true, set[i].dirty
		}
	}
	return false, false
}

// Hierarchy is the per-SM memory system.
type Hierarchy struct {
	cfg   Config
	Stats Stats

	// a is what the hierarchy was made from and its waiter lists and
	// calendar grow in (nil: the heap).
	a *arena.Arena

	l1 *cache
	// l2 is the level below the L1: this hierarchy's private slice or
	// the chip-wide banked L2 it is attached to.
	l2 l2Level

	// now is the clock every stamp below is kept in (ports, queues, LRU,
	// the DRAM throttle); it runs on across the SMs of a standing
	// hierarchy. epoch is where it stood when the present SM's clock read
	// zero: the cycles exchanged with the SM (NextWake, FastForwardTo,
	// fault arming) are now - epoch.
	now, epoch uint64

	// L1 port: one request per cycle (Table 1).
	l1PortCycle uint64

	// MSHRs: the L1 lines being fetched, each with who waits on it.
	mshrs mshrFile[Waiter]

	// Bypassing data path.
	dataInFlight int
	dataNextFree uint64

	// rec, when attached, observes accepted L1 accesses (nil-safe).
	rec *events.Recorder

	// flt, when armed, corrupts accepted responses (nil-safe: the
	// disabled path costs one branch per accepted access).
	flt *faults.Injector

	events calendar.Ring[event]
}

// SetRecorder attaches an event recorder for backing-store L1 traffic.
func (h *Hierarchy) SetRecorder(r *events.Recorder) { h.rec = r }

// SetFaults arms a fault injector: accepted L1/data responses consult it
// for mem-delay/mem-drop faults.
func (h *Hierarchy) SetFaults(in *faults.Injector) { h.flt = in }

// applyFault runs the waiter of one accepted access through the injector:
// a dropped response returns nil (the requester never hears back — the
// hierarchy's own accounting is unaffected), a delayed one a stand-in
// that re-delivers to w after the extra latency. Called only at accept
// points, never on rejected requests, so a fault is consumed exactly when
// it takes effect.
func (h *Hierarchy) applyFault(w Waiter) Waiter {
	if h.flt == nil || w == nil {
		return w
	}
	drop, delay := h.flt.MemResponse(h.now - h.epoch)
	if drop {
		h.Stats.FaultDrops++
		return nil
	}
	if delay > 0 {
		h.Stats.FaultDelays++
		return &delayed{h: h, delay: delay, w: w}
	}
	return w
}

// delayed is a mem-delay fault standing between an access and its waiter
// (fault runs only: the one completion record the hierarchy allocates).
type delayed struct {
	h     *Hierarchy
	delay int
	w     Waiter
}

func (d *delayed) MemDone(src Source) {
	d.h.deliverAfter(d.delay, request{kind: reqCall, w: d.w}, src)
}

// l2Level is what sits below a hierarchy's L1. Every call takes the
// bias-adjusted line address. access charges the requesting hierarchy's
// statistics and schedules r's delivery (reqNone for writes) on its event
// queue; a read miss schedules evFetched there instead, which comes back
// through fetched when the line arrives from DRAM.
type l2Level interface {
	access(h *Hierarchy, a uint32, write bool, r request)
	fetched(h *Hierarchy, a uint32, r request)
	invalidate(a uint32)
}

// New builds a hierarchy over its own private L2 slice.
func New(cfg Config) *Hierarchy { return NewIn(nil, cfg) }

// NewIn is New with everything allocated from a (nil: the heap).
func NewIn(a *arena.Arena, cfg Config) *Hierarchy {
	l2 := privateL2T.New(a)
	l2.cache = newCache(a, cfg.L2Sets, cfg.L2Ways)
	return newHierarchy(a, cfg, l2)
}

func newHierarchy(a *arena.Arena, cfg Config, l2 l2Level) *Hierarchy {
	h := hierarchyT.New(a)
	*h = Hierarchy{
		cfg:   cfg,
		a:     a,
		l1:    newCache(a, cfg.L1Sets, cfg.L1Ways),
		l2:    l2,
		mshrs: newMSHRFile(a, l1mshrT, cfg.L1MSHRs),
		// Sized for a DRAM round trip; a backlog behind the bandwidth
		// throttle re-buckets the ring.
		events: calendar.New(a, eventCellT, cfg.L2Latency+cfg.DRAMLatency),
	}
	return h
}

// ResetTiming restarts the clock the hierarchy shows its SM at zero, for
// the next SM of a standing hierarchy (an application's kernels), which
// starts its own there. The hierarchy's own clock runs on, so contents,
// statistics, replacement order and what is left of the DRAM throttle
// carry over exactly as if one SM had run the whole sequence. The caller
// guarantees the hierarchy is drained.
func (h *Hierarchy) ResetTiming() { h.epoch = h.now }

// Tick advances one cycle and fires due completions.
func (h *Hierarchy) Tick() {
	h.now++
	for h.events.Due(h.now) {
		e := h.events.Pop(h.now)
		if wait := e.wait; wait > 0 {
			e.wait = 0
			h.schedule(wait, e) // a hop on the way to a cycle past the horizon
			continue
		}
		switch e.kind {
		case evDeliver:
			h.deliver(e.req, e.src)
		case evFetched:
			h.l2.fetched(h, e.addr, e.req)
		case evRetry:
			h.l2.access(h, e.addr, false, e.req)
		}
	}
}

// deliverAfter schedules r's delivery delay cycles from now.
func (h *Hierarchy) deliverAfter(delay int, r request, src Source) {
	h.schedule(delay, event{kind: evDeliver, src: src, req: r})
}

// deliver completes a request: src is the level that supplied the data.
func (h *Hierarchy) deliver(r request, src Source) {
	switch r.kind {
	case reqData:
		h.dataInFlight--
		fallthrough
	case reqCall:
		if r.w != nil {
			r.w.MemDone(src)
		}
	case reqL1Fill:
		h.fill(r.line, false)
		if m := h.mshrs.find(r.line); m != nil {
			for _, w := range m.waiters {
				if w != nil {
					w.MemDone(src)
				}
			}
			h.mshrs.release(m)
		}
	}
}

// NextWake returns the earliest future cycle at which the hierarchy can
// change observable state on its own: the next scheduled completion, plus
// — when the caller has a data access waiting to retry (dataWaiting) —
// the cycle the injection port frees. ok=false means no self-driven
// activity is pending. Used by the SM's cycle-skip fast-forward.
func (h *Hierarchy) NextWake(dataWaiting bool) (uint64, bool) {
	wake, ok := h.events.NextCycle(h.now)
	if dataWaiting && h.dataInFlight < h.cfg.DataQueueDepth {
		// The port frees at dataNextFree; a retry then succeeds (queue
		// depth permitting). If the port is already free the retry
		// succeeds next cycle.
		t := h.dataNextFree
		if t <= h.now {
			t = h.now + 1
		}
		if !ok || t < wake {
			wake, ok = t, true
		}
	}
	return wake - h.epoch, ok
}

// FastForwardTo jumps the hierarchy clock to cycle without ticking the
// intermediate cycles. The caller guarantees no event is due at or before
// cycle (the fast-forward wake computation stops short of the earliest
// completion), so skipped cycles are provably inert.
func (h *Hierarchy) FastForwardTo(cycle uint64) {
	if cycle += h.epoch; cycle > h.now {
		h.now = cycle
	}
}

func align(addr uint32) uint32 { return addr &^ (LineSize - 1) }

func (h *Hierarchy) countL1(write bool) {
	if write {
		h.Stats.L1Writes++
	} else {
		h.Stats.L1Reads++
	}
}

// l1PortAvailable reports whether the single L1 port is unused this cycle;
// claimL1Port marks it used. A request refused for a structural hazard
// (e.g. no MSHR) does not claim the port.
func (h *Hierarchy) l1PortAvailable() bool { return h.l1PortCycle != h.now+1 }
func (h *Hierarchy) claimL1Port()          { h.l1PortCycle = h.now + 1 }

// L1Access is L1AccessFor with a func to call in place of a Waiter (nil:
// nobody waits).
func (h *Hierarchy) L1Access(addr uint32, write bool, done func(Source)) bool {
	return h.L1AccessFor(addr, write, funcWaiter(done))
}

// L1AccessFor submits a register-space L1 access. w hears when the data is
// available (reads) or accepted (writes), and which level supplied it.
// Returns false when the port or an MSHR is unavailable; the caller
// retries. w may be nil.
func (h *Hierarchy) L1AccessFor(addr uint32, write bool, w Waiter) bool {
	a := align(addr)
	if !h.l1PortAvailable() {
		h.Stats.L1PortRejects++
		return false
	}
	if ln := h.l1.lookup(a, h.now); ln != nil {
		h.claimL1Port()
		h.countL1(write)
		h.Stats.L1Hits++
		h.rec.L1(write, true, a)
		if write {
			ln.dirty = true
		}
		h.l1HitDone(w)
		return true
	}
	if write {
		// No fetch-on-write: whole-line register writes allocate
		// directly (§5.2.3).
		h.claimL1Port()
		h.countL1(write)
		h.Stats.L1Hits++ // counts as a hit: no lower-level traffic
		h.rec.L1(write, true, a)
		h.fill(a, true)
		h.l1HitDone(w)
		return true
	}
	// Read miss: take an MSHR (merge secondary misses).
	if m := h.mshrs.find(a); m != nil {
		h.claimL1Port()
		h.countL1(write)
		m.waiters = append(waiterT.Grow(h.a, m.waiters, 1), h.applyFault(w))
		h.Stats.L1Misses++
		h.rec.L1(write, false, a)
		return true
	}
	if h.mshrs.full() {
		h.Stats.MSHRRejects++
		return false
	}
	h.claimL1Port()
	h.countL1(write)
	h.Stats.L1Misses++
	h.rec.L1(write, false, a)
	m := h.mshrs.take(a)
	m.waiters = append(waiterT.Grow(h.a, m.waiters, 1), h.applyFault(w))
	h.l2Access(a, false, request{kind: reqL1Fill, line: a})
	return true
}

// l1HitDone schedules the completion of an access the L1 absorbed.
func (h *Hierarchy) l1HitDone(w Waiter) {
	if w = h.applyFault(w); w != nil {
		h.deliverAfter(h.cfg.L1HitLatency, request{kind: reqCall, w: w}, SrcL1)
	}
}

// fill installs a line in L1, writing back a dirty victim.
func (h *Hierarchy) fill(a uint32, dirty bool) {
	v := h.l1.victim(a)
	if v.valid && v.dirty {
		h.Stats.L1Writebacks++
		h.l2Access(v.tag*LineSize, true, request{})
	}
	*v = line{tag: a / LineSize, valid: true, dirty: dirty, lru: h.now}
}

// L1Invalidate drops a register line from L1 and L2 (a compiler cache
// invalidation annotation, §4.3). It consumes the L1 port.
func (h *Hierarchy) L1Invalidate(addr uint32) bool {
	a := align(addr)
	if !h.l1PortAvailable() {
		h.Stats.L1PortRejects++
		return false
	}
	h.claimL1Port()
	h.Stats.L1Invalidations++
	h.l1.invalidate(a)
	h.l2.invalidate(a + h.cfg.AddrBias)
	return true
}

// L1InvalidateQuiet drops a register line from L1 and L2 without consuming
// the L1 port — used for invalidating reads, where the invalidation
// piggybacks on the read access itself (§4.3).
func (h *Hierarchy) L1InvalidateQuiet(addr uint32) {
	a := align(addr)
	h.l1.invalidate(a)
	h.l2.invalidate(a + h.cfg.AddrBias)
}

// l2Access runs an access at the L2 level (L1 misses and writebacks,
// bypassing data accesses); r is reqNone for writes. The co-residency
// address bias is applied here, once, for either implementation.
func (h *Hierarchy) l2Access(a uint32, write bool, r request) {
	h.l2.access(h, a+h.cfg.AddrBias, write, r)
}

// privateL2 is one SM's flat L2 slice with its own share of the DRAM
// bandwidth: no banks, ports, or MSHRs, so nothing another SM does can
// be seen through it.
type privateL2 struct {
	cache *cache
	// DRAM bandwidth throttle (this SM's share).
	dramNextFree uint64
}

func (l2 *privateL2) invalidate(a uint32) { l2.cache.invalidate(a) }

func (l2 *privateL2) access(h *Hierarchy, a uint32, write bool, r request) {
	if ln := l2.cache.lookup(a, h.now); ln != nil {
		h.Stats.L2Hits++
		if write {
			ln.dirty = true
		}
		if r.kind != reqNone {
			h.deliverAfter(h.cfg.L2Latency, r, SrcL2)
		}
		return
	}
	h.Stats.L2Misses++
	if write {
		// Write-allocate without fetch (register lines are whole).
		v := l2.cache.victim(a)
		if v.valid && v.dirty {
			l2.dramQueueDelay(h) // consumes bandwidth; completion not tracked
		}
		*v = line{tag: a / LineSize, valid: true, dirty: true, lru: h.now}
		return
	}
	delay := h.cfg.L2Latency + h.cfg.DRAMLatency + l2.dramQueueDelay(h)
	h.schedule(delay, event{kind: evFetched, addr: a, req: r})
}

func (l2 *privateL2) fetched(h *Hierarchy, a uint32, r request) {
	v := l2.cache.victim(a)
	if v.valid && v.dirty {
		l2.dramQueueDelay(h)
	}
	*v = line{tag: a / LineSize, valid: true, lru: h.now}
	h.deliver(r, SrcDRAM)
}

// dramQueueDelay advances the slice's DRAM bandwidth throttle and
// returns the queueing delay for one line transfer.
func (l2 *privateL2) dramQueueDelay(h *Hierarchy) int {
	h.Stats.DRAMAccesses++
	start := h.now
	if l2.dramNextFree > start {
		start = l2.dramNextFree
	}
	l2.dramNextFree = start + uint64(h.cfg.DRAMCyclesPerLine)
	return int(start - h.now)
}

// DataAccess is DataAccessFor with a func to call in place of a Waiter
// (nil: nobody waits).
func (h *Hierarchy) DataAccess(addr uint32, write bool, done func(Source)) bool {
	return h.DataAccessFor(addr, write, funcWaiter(done))
}

// DataAccessFor submits a global data access that bypasses L1 (Table 1).
// w hears when a read's data returns; writes complete immediately after
// acceptance. Returns false when the data queue is full or the injection
// port is busy. w may be nil.
func (h *Hierarchy) DataAccessFor(addr uint32, write bool, w Waiter) bool {
	a := align(addr)
	if h.dataInFlight >= h.cfg.DataQueueDepth || h.dataNextFree > h.now {
		h.Stats.DataRejects++
		return false
	}
	h.dataNextFree = h.now + uint64(h.cfg.DataCyclesPerReq)
	h.dataInFlight++
	w = h.applyFault(w)
	if write {
		// Writes are fire-and-forget at the core: the L2 update is
		// submitted now, the queue slot frees after the injection
		// latency, and the warp side hears immediately.
		h.Stats.DataWrites++
		h.l2Access(a, true, request{})
		h.deliverAfter(h.cfg.L2Latency, request{kind: reqData}, SrcL2)
		if w != nil {
			h.deliverAfter(1, request{kind: reqCall, w: w}, SrcL2)
		}
		return true
	}
	h.Stats.DataReads++
	h.l2Access(a, false, request{kind: reqData, w: w})
	return true
}

// Drained reports whether no events or in-flight accesses remain.
func (h *Hierarchy) Drained() bool {
	return h.events.Len() == 0 && h.mshrs.inUse() == 0 && h.dataInFlight == 0
}
