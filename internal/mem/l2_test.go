package mem

import (
	"math/rand"
	"testing"
)

// call is the request form of a bare completion callback.
func call(done func(Source)) request { return request{kind: reqCall, w: funcWaiter(done)} }

// drainHier ticks the hierarchy until every scheduled completion (L2
// fetches, MSHR retries) has fired.
func drainHier(t *testing.T, h *Hierarchy) {
	t.Helper()
	for i := 0; !h.Drained(); i++ {
		if i > 1_000_000 {
			t.Fatal("hierarchy did not drain")
		}
		h.Tick()
	}
}

// l2Oracle replays an access stream against a plain map-and-slices model
// of the banked L2: per-bank set-associative LRU arrays with the same
// interleaving (bank = line mod Banks, bank-local index = line / Banks).
// It is only valid for *serialized* accesses (the caller drains between
// submissions), where installation order equals access order and a
// monotonic counter reproduces the LRU ordering.
type l2Oracle struct {
	cfg   BankedL2Config
	banks [][]struct {
		tag   uint32
		valid bool
		dirty bool
		last  uint64
	}
	tick                          uint64
	hits, misses, fetches, writes uint64
}

func newL2Oracle(cfg BankedL2Config) *l2Oracle {
	o := &l2Oracle{cfg: cfg}
	o.banks = make([][]struct {
		tag   uint32
		valid bool
		dirty bool
		last  uint64
	}, cfg.Banks)
	for i := range o.banks {
		o.banks[i] = make([]struct {
			tag   uint32
			valid bool
			dirty bool
			last  uint64
		}, cfg.SetsPerBank*cfg.Ways)
	}
	return o
}

func (o *l2Oracle) access(a uint32, write bool) {
	o.tick++
	ln := a / LineSize
	bank := o.banks[int(ln)%o.cfg.Banks]
	tag := ln / uint32(o.cfg.Banks) // bank-local line index == cache tag
	si := int(tag) % o.cfg.SetsPerBank
	set := bank[si*o.cfg.Ways : (si+1)*o.cfg.Ways]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			o.hits++
			set[i].last = o.tick
			if write {
				set[i].dirty = true
			}
			return
		}
	}
	o.misses++
	v := &set[0]
	for i := range set {
		if !set[i].valid {
			v = &set[i]
			break
		}
		if set[i].last < v.last {
			v = &set[i]
		}
	}
	if !write {
		o.fetches++
	}
	if v.valid && v.dirty {
		o.writes++
	}
	v.tag, v.valid, v.dirty, v.last = tag, true, write, o.tick
}

// TestBankedL2MapOracle replays a random mixed read/write stream through
// the banked L2, serialized (drain between accesses), and checks every
// counter against the oracle: hits, misses, DRAM fetches, and dirty
// writebacks must agree exactly.
func TestBankedL2MapOracle(t *testing.T) {
	cfg := BankedL2Config{
		Banks: 4, SetsPerBank: 4, Ways: 2,
		PortsPerBank: 1, MSHRsPerBank: 8, MSHRRetry: 2,
		Latency: 2, DRAMLatency: 3, DRAMCyclesPerLine: 1,
	}
	l2, err := NewBankedL2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := l2.AttachHierarchy(DefaultConfig())
	oracle := newL2Oracle(cfg)

	rng := rand.New(rand.NewSource(1))
	// 3x the capacity in distinct lines forces conflict evictions.
	lines := cfg.Banks * cfg.SetsPerBank * cfg.Ways * 3
	for i := 0; i < 4000; i++ {
		a := uint32(rng.Intn(lines)) * LineSize
		write := rng.Intn(3) == 0
		fired := false
		l2.access(h, a, write, call(func(Source) { fired = true }))
		drainHier(t, h)
		// Write misses complete inline with no event, so the drain can do
		// zero ticks; advance one cycle so LRU stamps strictly increase
		// per access (the ordering the oracle's counter reproduces).
		h.Tick()
		if !write && !fired {
			t.Fatalf("access %d: read callback never fired", i)
		}
		oracle.access(a, write)
	}

	if l2.Stats.Hits != oracle.hits || l2.Stats.Misses != oracle.misses {
		t.Fatalf("hits/misses = %d/%d, oracle %d/%d",
			l2.Stats.Hits, l2.Stats.Misses, oracle.hits, oracle.misses)
	}
	if l2.Stats.DRAMAccesses != oracle.fetches {
		t.Fatalf("DRAM fetches = %d, oracle %d", l2.Stats.DRAMAccesses, oracle.fetches)
	}
	if l2.Stats.DRAMWrites != oracle.writes {
		t.Fatalf("DRAM writes = %d, oracle %d", l2.Stats.DRAMWrites, oracle.writes)
	}
	if err := l2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Timing reset keeps contents: a line the oracle says is resident
	// must still hit after ResetTiming.
	l2.ResetTiming()
	for b := range oracle.banks {
		for _, ln := range oracle.banks[b] {
			if !ln.valid {
				continue
			}
			// Reconstruct the global address from (bank, tag).
			a := (ln.tag*uint32(cfg.Banks) + uint32(b)) * LineSize
			before := l2.Stats.Hits
			l2.access(h, a, false, request{})
			drainHier(t, h)
			if l2.Stats.Hits != before+1 {
				t.Fatalf("bank %d tag %d: resident line missed after ResetTiming", b, ln.tag)
			}
		}
	}
}

// TestBankedL2MSHRMerge checks that a same-cycle secondary read miss to
// an in-flight line merges onto the first fetch: one DRAM access, both
// callbacks fire from the same completion.
func TestBankedL2MSHRMerge(t *testing.T) {
	cfg := BankedL2Config{
		Banks: 2, SetsPerBank: 4, Ways: 2,
		MSHRsPerBank: 4, MSHRRetry: 2, Latency: 2, DRAMLatency: 5,
	}
	l2, err := NewBankedL2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := l2.AttachHierarchy(DefaultConfig())
	var got []Source
	addr := uint32(0x1000)
	l2.access(h, addr, false, call(func(s Source) { got = append(got, s) }))
	l2.access(h, addr, false, call(func(s Source) { got = append(got, s) }))
	if l2.Stats.MSHRMerges != 1 {
		t.Fatalf("merges = %d, want 1", l2.Stats.MSHRMerges)
	}
	if l2.Stats.DRAMAccesses != 1 {
		t.Fatalf("DRAM accesses = %d, want 1 (merged)", l2.Stats.DRAMAccesses)
	}
	drainHier(t, h)
	if len(got) != 2 || got[0] != SrcDRAM || got[1] != SrcDRAM {
		t.Fatalf("callbacks = %v, want two SrcDRAM", got)
	}
	if l2.Stats.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (both accesses count)", l2.Stats.Misses)
	}
}

// TestBankedL2MSHRFull checks the bounce-and-retry path: with one MSHR
// per bank, a second same-cycle miss to a different line is rejected,
// retries after the back-off, and still completes.
func TestBankedL2MSHRFull(t *testing.T) {
	cfg := BankedL2Config{
		Banks: 1, SetsPerBank: 4, Ways: 2,
		MSHRsPerBank: 1, MSHRRetry: 3, Latency: 2, DRAMLatency: 5,
	}
	l2, err := NewBankedL2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := l2.AttachHierarchy(DefaultConfig())
	done := 0
	l2.access(h, 0, false, call(func(Source) { done++ }))
	l2.access(h, 128, false, call(func(Source) { done++ }))
	if l2.Stats.MSHRFullRetries == 0 {
		t.Fatal("second miss was not bounced by the full MSHR file")
	}
	drainHier(t, h)
	if done != 2 {
		t.Fatalf("completions = %d, want 2", done)
	}
	if l2.Stats.DRAMAccesses != 2 {
		t.Fatalf("DRAM accesses = %d, want 2", l2.Stats.DRAMAccesses)
	}
	if err := l2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBankedL2PortContention checks single-port bank arbitration: the
// second same-cycle request to one bank waits exactly one cycle, and the
// wait is charged to PortQueueCycles.
func TestBankedL2PortContention(t *testing.T) {
	cfg := BankedL2Config{
		Banks: 2, SetsPerBank: 4, Ways: 2,
		PortsPerBank: 1, MSHRsPerBank: 8, MSHRRetry: 2,
		Latency: 2, DRAMLatency: 5,
	}
	l2, err := NewBankedL2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := l2.AttachHierarchy(DefaultConfig())
	var t1, t2 uint64
	// Lines 0 and 2 both land in bank 0 (line mod 2).
	l2.access(h, 0, false, call(func(Source) { t1 = h.now }))
	l2.access(h, 2*LineSize, false, call(func(Source) { t2 = h.now }))
	drainHier(t, h)
	if l2.Stats.PortQueueCycles != 1 {
		t.Fatalf("port queue cycles = %d, want 1", l2.Stats.PortQueueCycles)
	}
	if t2 != t1+1 {
		t.Fatalf("second completion at %d, want %d (one cycle after first)", t2, t1+1)
	}
}

// TestBankedL2Interleave checks the address interleaving: consecutive
// lines land on consecutive banks, spreading a streaming sweep evenly.
func TestBankedL2Interleave(t *testing.T) {
	cfg := BankedL2Config{Banks: 8, SetsPerBank: 4, Ways: 2, Latency: 1, DRAMLatency: 1}
	l2, err := NewBankedL2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := l2.AttachHierarchy(DefaultConfig())
	for i := 0; i < cfg.Banks; i++ {
		l2.access(h, uint32(i)*LineSize, false, request{})
	}
	drainHier(t, h)
	_, misses := l2.BankLoads()
	for b, m := range misses {
		if m != 1 {
			t.Fatalf("bank %d got %d misses, want exactly 1 (round-robin interleave)", b, m)
		}
	}
}

// TestBankedL2DRAMThrottle checks the chip-wide bandwidth budget: two
// same-cycle misses on different banks (no port conflict) still serialize
// at the DRAM interface.
func TestBankedL2DRAMThrottle(t *testing.T) {
	cfg := BankedL2Config{
		Banks: 2, SetsPerBank: 4, Ways: 2,
		PortsPerBank: 1, Latency: 2, DRAMLatency: 5, DRAMCyclesPerLine: 10,
	}
	l2, err := NewBankedL2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := l2.AttachHierarchy(DefaultConfig())
	var t1, t2 uint64
	l2.access(h, 0, false, call(func(Source) { t1 = h.now }))        // bank 0
	l2.access(h, LineSize, false, call(func(Source) { t2 = h.now })) // bank 1
	drainHier(t, h)
	if l2.Stats.DRAMQueueCycles != 10 {
		t.Fatalf("DRAM queue cycles = %d, want 10", l2.Stats.DRAMQueueCycles)
	}
	if t2 != t1+10 {
		t.Fatalf("throttled completion at %d, want %d", t2, t1+10)
	}
}

// TestBankedL2WriteAllocate checks write-allocate-without-fetch: a write
// miss installs the line with zero DRAM fetch traffic (register lines
// are written whole, §5.2.3), and the line then hits on read.
func TestBankedL2WriteAllocate(t *testing.T) {
	cfg := BankedL2Config{Banks: 2, SetsPerBank: 4, Ways: 2, Latency: 1, DRAMLatency: 1}
	l2, err := NewBankedL2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := l2.AttachHierarchy(DefaultConfig())
	l2.access(h, 0x2000, true, request{})
	if l2.Stats.DRAMAccesses != 0 {
		t.Fatalf("write miss fetched from DRAM (%d accesses)", l2.Stats.DRAMAccesses)
	}
	hit := false
	l2.access(h, 0x2000, false, call(func(s Source) { hit = s == SrcL2 }))
	drainHier(t, h)
	if !hit || l2.Stats.Hits != 1 {
		t.Fatalf("read after write-allocate: hit=%v hits=%d", hit, l2.Stats.Hits)
	}
}

// TestBankedL2Validate rejects degenerate geometries.
func TestBankedL2Validate(t *testing.T) {
	bad := []BankedL2Config{
		{Banks: 0, SetsPerBank: 4, Ways: 2},
		{Banks: 2, SetsPerBank: 0, Ways: 2},
		{Banks: 2, SetsPerBank: 4, Ways: 0},
		{Banks: 2, SetsPerBank: 4, Ways: 2, PortsPerBank: -1},
		{Banks: 2, SetsPerBank: 4, Ways: 2, MSHRsPerBank: -1},
	}
	for i, cfg := range bad {
		if _, err := NewBankedL2(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := DefaultBankedL2Config().Validate(); err != nil {
		t.Fatal(err)
	}
}
