// BankedL2 is the one L2 + DRAM back end: a set-associative cache
// interleaved across banks by line address, each bank with its own
// request-per-cycle port limit and its own MSHR file (secondary misses
// from *any* SM merge onto the first fetch of a line), all backed by one
// DRAM interface with a latency and a bandwidth budget. A chip of one's
// slice is the degenerate level (New: one bank, no port limit, no MSHRs,
// the SM's DRAM share); a larger chip's is the shared one every SM's
// hierarchy attaches to, and that is where inter-SM interference lives:
// one SM's preload traffic occupies bank ports, steals MSHRs, and evicts
// lines another SM staged.
//
// Access is single-threaded: the GPU model ticks its SMs in lockstep on
// one goroutine, so SM index order is the (deterministic) arbitration
// order for same-cycle bank-port contention. The BankedL2 has no clock
// of its own — it trusts the submitting hierarchy's cycle, which is
// identical across SMs in lockstep — and schedules every completion on
// the *requesting* hierarchy's event queue, so the cycle-skip
// fast-forward's per-SM wake computation covers all chip-level events.
package mem

import (
	"fmt"

	"repro/internal/arena"
)

// BankedL2Config sizes the chip-level L2 and DRAM interface.
type BankedL2Config struct {
	// Banks is the number of address-interleaved banks
	// (bank = line address mod Banks).
	Banks int
	// SetsPerBank x Ways x Banks x 128 B is the total capacity.
	SetsPerBank int
	Ways        int
	// PortsPerBank is how many requests one bank accepts per cycle;
	// further same-cycle requests queue (charged as delay). 0 models an
	// unported ideal bank.
	PortsPerBank int
	// MSHRsPerBank bounds outstanding DRAM fetches per bank; secondary
	// misses to an in-flight line merge onto the first fetch. 0 disables
	// MSHR tracking entirely (every miss fetches independently).
	MSHRsPerBank int
	// MSHRRetry is the back-off before a request rejected by a full MSHR
	// file retries the bank.
	MSHRRetry int
	// Latency is the L2 access latency in cycles (pipelined: latency,
	// not occupancy).
	Latency int
	// DRAMLatency is the miss penalty beyond L2.
	DRAMLatency int
	// DRAMCyclesPerLine throttles the level's DRAM interface: minimum
	// cycles between line transfers (the chip's 224 GB/s at 1 GHz moves a
	// 128 B line every ~0.57 cycles; rounded to 1).
	DRAMCyclesPerLine int
}

// DefaultBankedL2Config returns the GTX 980's 2 MB L2 as 16 banks x 128
// sets x 8 ways x 128 B with one port and 32 MSHRs per bank.
func DefaultBankedL2Config() BankedL2Config {
	return BankedL2Config{
		Banks:             16,
		SetsPerBank:       128,
		Ways:              8,
		PortsPerBank:      1,
		MSHRsPerBank:      32,
		MSHRRetry:         4,
		Latency:           95,
		DRAMLatency:       225,
		DRAMCyclesPerLine: 1,
	}
}

// Validate rejects geometries the model cannot represent.
func (c BankedL2Config) Validate() error {
	if c.Banks < 1 || c.SetsPerBank < 1 || c.Ways < 1 {
		return fmt.Errorf("mem: banked L2 needs at least 1 bank/set/way, got %d/%d/%d",
			c.Banks, c.SetsPerBank, c.Ways)
	}
	if c.PortsPerBank < 0 || c.MSHRsPerBank < 0 {
		return fmt.Errorf("mem: negative bank ports (%d) or MSHRs (%d)", c.PortsPerBank, c.MSHRsPerBank)
	}
	return nil
}

// BankedL2Stats aggregates chip-level memory traffic.
type BankedL2Stats struct {
	Hits   uint64 `metric:"hits"`
	Misses uint64 `metric:"misses"`
	// PortQueueCycles sums the cycles requests waited for a bank port
	// (the chip-level contention signal).
	PortQueueCycles uint64 `metric:"port_queue_cycles"`
	// MSHRMerges counts secondary misses folded onto an in-flight fetch
	// (cross-SM merges included).
	MSHRMerges uint64 `metric:"mshr_merges"`
	// MSHRFullRetries counts requests bounced by a full per-bank MSHR
	// file (each retries after MSHRRetry cycles).
	MSHRFullRetries uint64 `metric:"mshr_full_retries"`
	// DRAMAccesses counts line fetches, DRAMWrites dirty writebacks;
	// DRAMQueueCycles sums bandwidth-throttle queueing delay.
	DRAMAccesses    uint64 `metric:"dram_accesses"`
	DRAMWrites      uint64 `metric:"dram_writes"`
	DRAMQueueCycles uint64 `metric:"dram_queue_cycles"`
}

// l2waiter is one merged requester parked on an in-flight fetch: the
// request and the hierarchy (any SM's) that delivers it.
type l2waiter struct {
	h *Hierarchy
	r request
}

// l2bank is one address-interleaved slice of the chip L2.
type l2bank struct {
	cache *cache
	// Port accounting: portsUsed requests accepted at portCycle; the
	// overflow queues (nextFree).
	portCycle uint64
	portsUsed int
	nextFree  uint64
	// In-flight DRAM fetches by (bias-adjusted) line address.
	mshrs        mshrFile[l2waiter]
	hits, misses uint64
}

// BankedL2 is an L2 + DRAM interface: one SM's slice or the chip's.
type BankedL2 struct {
	cfg BankedL2Config
	// a is what the level was made from, its waiter lists grow in, and the
	// hierarchies attached to it are made from (nil: the heap).
	a     *arena.Arena
	banks []l2bank
	// DRAM bandwidth throttle (the whole level's).
	dramNextFree uint64
	Stats        BankedL2Stats
}

// NewBankedL2 builds the shared level.
func NewBankedL2(cfg BankedL2Config) (*BankedL2, error) { return NewBankedL2In(nil, cfg) }

// NewBankedL2In is NewBankedL2 with the level — and every hierarchy later
// attached to it — allocated from a (nil: the heap).
func NewBankedL2In(a *arena.Arena, cfg BankedL2Config) (*BankedL2, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newBankedL2(a, cfg), nil
}

// newBankedL2 builds the level unchecked: NewBankedL2In validates a
// geometry handed in, NewIn derives the slice's from a mem.Config.
func newBankedL2(a *arena.Arena, cfg BankedL2Config) *BankedL2 {
	l2 := arena.New[BankedL2](a)
	*l2 = BankedL2{cfg: cfg, a: a, banks: arena.Make[l2bank](a, cfg.Banks)}
	for i := range l2.banks {
		l2.banks[i].cache = newCache(a, cfg.SetsPerBank, cfg.Ways)
		l2.banks[i].mshrs = newMSHRFile[l2waiter](a, cfg.MSHRsPerBank)
	}
	return l2
}

// bankOf interleaves line addresses across banks and returns the bank
// plus the bank-local probe address (consecutive lines hit consecutive
// banks; within a bank, the line's bank-local index feeds the existing
// set mapping).
func (l2 *BankedL2) bankOf(a uint32) (*l2bank, uint32) {
	ln, n := a/LineSize, uint32(l2.cfg.Banks)
	return &l2.banks[ln%n], ln / n * LineSize
}

// portDelay charges bank-port arbitration at cycle now: the request is
// serviced at the first cycle with a free port slot, and the wait is
// returned as added latency. PortsPerBank == 0 models an ideal bank.
func (l2 *BankedL2) portDelay(b *l2bank, now uint64) int {
	if l2.cfg.PortsPerBank <= 0 {
		return 0
	}
	at := now
	if b.nextFree > at {
		at = b.nextFree
	}
	if at != b.portCycle {
		b.portCycle = at
		b.portsUsed = 0
	}
	b.portsUsed++
	if b.portsUsed >= l2.cfg.PortsPerBank {
		b.nextFree = at + 1
	}
	wait := at - now
	l2.Stats.PortQueueCycles += wait
	return int(wait)
}

// dramQueueDelay advances the level's bandwidth throttle and returns
// the queueing delay for one line transfer.
func (l2 *BankedL2) dramQueueDelay(now uint64) int {
	start := now
	if l2.dramNextFree > start {
		start = l2.dramNextFree
	}
	l2.dramNextFree = start + uint64(l2.cfg.DRAMCyclesPerLine)
	l2.Stats.DRAMQueueCycles += start - now
	return int(start - now)
}

// dramWrite consumes write bandwidth for a dirty victim h's access
// evicted, and charges the DRAM access to h (completion is not tracked —
// the line is already installed and the writeback buffer is not
// modelled).
func (l2 *BankedL2) dramWrite(h *Hierarchy) {
	l2.Stats.DRAMWrites++
	h.Stats.DRAMAccesses++
	l2.dramQueueDelay(h.now)
}

// access runs one L2 access submitted by hierarchy h at h.Now(). The
// address must already carry the hierarchy's timing bias. Completions
// are scheduled on h's event queue; merged secondary misses fire from
// the *first* requester's queue (deterministic under lockstep).
func (l2 *BankedL2) access(h *Hierarchy, a uint32, write bool, r request) {
	now := h.now
	bank, ba := l2.bankOf(a)
	if ln := bank.cache.lookup(ba, now); ln != nil {
		pd := l2.portDelay(bank, now)
		l2.Stats.Hits++
		bank.hits++
		h.Stats.L2Hits++
		if write {
			ln.dirty = true
		}
		if r.kind != reqNone {
			h.deliverAfter(pd+l2.cfg.Latency, r, SrcL2)
		}
		return
	}
	if write {
		// Write-allocate without fetch: register lines are written whole
		// (§5.2.3), so a miss installs the line directly and only a dirty
		// victim costs DRAM bandwidth.
		l2.portDelay(bank, now) // books the slot; writes have no completion to delay
		l2.Stats.Misses++
		bank.misses++
		h.Stats.L2Misses++
		v := bank.cache.victim(ba)
		if v.valid && v.dirty {
			l2.dramWrite(h)
		}
		*v = line{tag: ba / LineSize, valid: true, dirty: true, lru: now}
		return
	}
	// Read miss: merge onto an in-flight fetch when MSHR tracking is on.
	if l2.cfg.MSHRsPerBank > 0 {
		if m := bank.mshrs.find(a); m != nil {
			l2.portDelay(bank, now)
			l2.Stats.Misses++
			bank.misses++
			h.Stats.L2Misses++
			l2.Stats.MSHRMerges++
			m.waiters = append(arena.Grow(l2.a, m.waiters, 1), l2waiter{h, r})
			return
		}
		if bank.mshrs.full() {
			// MSHR file full: the request is refused at the bank input
			// queue and retries after the back-off. Critically, a bounced
			// request consumes NO port slot and counts NO miss — hundreds
			// of spinning retries against a 1-request/cycle port would
			// otherwise grow the port backlog without bound, receding
			// every in-flight fetch's completion horizon (a livelock
			// observed at 16 SMs, not a slowdown: MSHRs stop turning over
			// entirely). The miss is counted once, when accepted.
			l2.Stats.MSHRFullRetries++
			h.schedule(l2.cfg.MSHRRetry, event{kind: evRetry, addr: a, req: r})
			return
		}
		m := bank.mshrs.take(a)
		m.waiters = append(arena.Grow(l2.a, m.waiters, 1), l2waiter{h, r})
	}
	pd := l2.portDelay(bank, now)
	l2.Stats.Misses++
	bank.misses++
	h.Stats.L2Misses++
	delay := pd + l2.cfg.Latency + l2.cfg.DRAMLatency + l2.dramQueueDelay(now)
	l2.Stats.DRAMAccesses++
	h.Stats.DRAMAccesses++
	h.schedule(delay, event{kind: evFetched, addr: a, req: r})
}

// fetched installs line a, fetched on behalf of h's request r, and wakes
// everyone waiting on it: with MSHR tracking every requester merged on
// the fetch (r among them, first), without it r alone.
func (l2 *BankedL2) fetched(h *Hierarchy, a uint32, r request) {
	bank, ba := l2.bankOf(a)
	v := bank.cache.victim(ba)
	if v.valid && v.dirty {
		l2.dramWrite(h)
	}
	*v = line{tag: ba / LineSize, valid: true, lru: h.now}
	if l2.cfg.MSHRsPerBank == 0 {
		h.deliver(r, SrcDRAM)
		return
	}
	if m := bank.mshrs.find(a); m != nil {
		for _, w := range m.waiters {
			w.h.deliver(w.r, SrcDRAM)
		}
		bank.mshrs.release(m)
	}
}

// ResetTiming clears the level's timing bookkeeping at a wave boundary
// (the launch block scheduler's per-wave SMs restart their clocks at 0):
// bank ports and the DRAM throttle free, and every resident line's LRU
// stamp collapses to 0 so stale large timestamps from the previous wave
// cannot outrank the new wave's touches. Cache contents and statistics
// persist — the warm L2 across waves is the point. The caller guarantees
// all attached hierarchies are drained (no in-flight MSHR fetches).
func (l2 *BankedL2) ResetTiming() {
	l2.dramNextFree = 0
	for i := range l2.banks {
		b := &l2.banks[i]
		b.portCycle, b.portsUsed, b.nextFree = 0, 0, 0
		for j := range b.cache.lines {
			b.cache.lines[j].lru = 0
		}
	}
}

// invalidate drops a line from its bank (compiler cache-invalidation
// annotations reach the shared level too).
func (l2 *BankedL2) invalidate(a uint32) {
	bank, ba := l2.bankOf(a)
	bank.cache.invalidate(ba)
}

// CheckInvariants validates the level's structural invariants (run by
// the chip loop under -sanitize): per-bank MSHR occupancy within bounds
// and hit/miss accounting consistent with the aggregate.
func (l2 *BankedL2) CheckInvariants() error {
	var hits, misses uint64
	for i := range l2.banks {
		b := &l2.banks[i]
		if l2.cfg.MSHRsPerBank > 0 && b.mshrs.inUse() > l2.cfg.MSHRsPerBank {
			return fmt.Errorf("mem/l2bank: bank %d holds %d MSHRs (limit %d)",
				i, b.mshrs.inUse(), l2.cfg.MSHRsPerBank)
		}
		hits += b.hits
		misses += b.misses
	}
	if hits != l2.Stats.Hits || misses != l2.Stats.Misses {
		return fmt.Errorf("mem/l2bank: per-bank totals %d/%d disagree with aggregate %d/%d",
			hits, misses, l2.Stats.Hits, l2.Stats.Misses)
	}
	return nil
}

// AttachHierarchy builds a per-SM hierarchy (private L1) whose L2 level
// is this chip-wide banked L2.
func (l2 *BankedL2) AttachHierarchy(cfg Config) *Hierarchy {
	return newHierarchy(l2.a, cfg, l2)
}
