package mem

import "testing"

// run advances the hierarchy until a condition holds or maxCycles elapse.
func run(t *testing.T, h *Hierarchy, max int, cond func() bool) {
	t.Helper()
	for i := 0; i < max; i++ {
		if cond() {
			return
		}
		h.Tick()
	}
	if !cond() {
		t.Fatalf("condition not reached in %d cycles", max)
	}
}

func TestL1HitLatency(t *testing.T) {
	h := New(DefaultConfig())
	addr := RegSpaceBase + 3*LineSize

	// First access: write (no fetch-on-write => allocates, "hit" path).
	doneW := false
	if !h.L1Access(addr, true, func(Source) { doneW = true }) {
		t.Fatal("L1 write refused")
	}
	run(t, h, 100, func() bool { return doneW })

	h.Tick() // free the port
	start := h.now
	doneR := false
	if !h.L1Access(addr, false, func(Source) { doneR = true }) {
		t.Fatal("L1 read refused")
	}
	run(t, h, 100, func() bool { return doneR })
	lat := int(h.now - start)
	if lat != DefaultConfig().L1HitLatency {
		t.Fatalf("hit latency = %d, want %d", lat, DefaultConfig().L1HitLatency)
	}
	if h.Stats.L1Hits != 2 || h.Stats.L1Misses != 0 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestL1MissGoesToL2(t *testing.T) {
	h := New(DefaultConfig())
	addr := RegSpaceBase + 77*LineSize
	done := false
	if !h.L1Access(addr, false, func(Source) { done = true }) {
		t.Fatal("refused")
	}
	start := h.now
	run(t, h, 2000, func() bool { return done })
	lat := int(h.now - start)
	if lat <= DefaultConfig().L1HitLatency {
		t.Fatalf("miss latency %d not above hit latency", lat)
	}
	if h.Stats.L1Misses != 1 {
		t.Fatalf("stats = %+v", h.Stats)
	}
	// Second read hits.
	h.Tick()
	done2 := false
	if !h.L1Access(addr, false, func(Source) { done2 = true }) {
		t.Fatal("refused")
	}
	run(t, h, 100, func() bool { return done2 })
	if h.Stats.L1Hits != 1 {
		t.Fatalf("stats after refill = %+v", h.Stats)
	}
}

func TestL1PortOneRequestPerCycle(t *testing.T) {
	h := New(DefaultConfig())
	h.Tick()
	a := RegSpaceBase
	if !h.L1Access(a, true, func(Source) {}) {
		t.Fatal("first access refused")
	}
	if h.L1Access(a+LineSize, true, func(Source) {}) {
		t.Fatal("second access in same cycle accepted")
	}
	h.Tick()
	if !h.L1Access(a+LineSize, true, func(Source) {}) {
		t.Fatal("access refused after port freed")
	}
}

func TestMSHRLimitAndMerge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1MSHRs = 2
	h := New(cfg)
	calls := 0
	// Two distinct misses fill the MSHRs.
	h.Tick()
	if !h.L1Access(RegSpaceBase, false, func(Source) { calls++ }) {
		t.Fatal("miss 1 refused")
	}
	h.Tick()
	if !h.L1Access(RegSpaceBase+LineSize, false, func(Source) { calls++ }) {
		t.Fatal("miss 2 refused")
	}
	// Third distinct miss must be refused.
	h.Tick()
	if h.L1Access(RegSpaceBase+2*LineSize, false, func(Source) { calls++ }) {
		t.Fatal("third miss accepted beyond MSHR limit")
	}
	// Secondary miss to an existing line merges.
	if !h.L1Access(RegSpaceBase, false, func(Source) { calls++ }) {
		t.Fatal("secondary miss refused")
	}
	run(t, h, 5000, func() bool { return calls == 3 })
	if h.Stats.L1Misses != 3 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Sets = 1
	cfg.L1Ways = 2
	h := New(cfg)
	write := func(addr uint32) {
		h.Tick()
		ok := false
		if !h.L1Access(addr, true, func(Source) { ok = true }) {
			t.Fatalf("write %#x refused", addr)
		}
		run(t, h, 200, func() bool { return ok })
	}
	write(RegSpaceBase)
	write(RegSpaceBase + LineSize)
	write(RegSpaceBase + 2*LineSize) // evicts a dirty line
	if h.Stats.L1Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1 (stats %+v)", h.Stats.L1Writebacks, h.Stats)
	}
}

func TestInvalidateDropsLine(t *testing.T) {
	h := New(DefaultConfig())
	addr := RegSpaceBase + 5*LineSize
	done := false
	h.Tick()
	h.L1Access(addr, true, func(Source) { done = true })
	run(t, h, 200, func() bool { return done })
	h.Tick()
	if !h.L1Invalidate(addr) {
		t.Fatal("invalidate refused")
	}
	// The next read must miss.
	h.Tick()
	miss := false
	h.L1Access(addr, false, func(Source) { miss = true })
	run(t, h, 5000, func() bool { return miss })
	if h.Stats.L1Misses != 1 {
		t.Fatalf("read after invalidate did not miss: %+v", h.Stats)
	}
	if h.Stats.L1Invalidations != 1 {
		t.Fatalf("invalidations = %d", h.Stats.L1Invalidations)
	}
	// Invalidation of a dirty line must not write back.
	if h.Stats.L1Writebacks != 0 {
		t.Fatalf("invalidate wrote back a dead register: %+v", h.Stats)
	}
}

func TestDataBypassesL1(t *testing.T) {
	h := New(DefaultConfig())
	done := false
	h.Tick()
	if !h.DataAccess(0x100, false, func(Source) { done = true }) {
		t.Fatal("data access refused")
	}
	run(t, h, 5000, func() bool { return done })
	if h.Stats.L1Reads != 0 || h.Stats.L1Hits != 0 {
		t.Fatalf("data access touched L1: %+v", h.Stats)
	}
	if h.Stats.DataReads != 1 || h.Stats.L2Misses != 1 {
		t.Fatalf("stats = %+v", h.Stats)
	}
	// Re-read: L2 hit, much faster.
	h.Tick()
	start := h.now
	done2 := false
	h.DataAccess(0x100, false, func(Source) { done2 = true })
	run(t, h, 1000, func() bool { return done2 })
	if int(h.now-start) > DefaultConfig().L2Latency+2 {
		t.Fatalf("L2 hit took %d cycles", h.now-start)
	}
	if h.Stats.L2Hits != 1 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestDataQueueBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataQueueDepth = 2
	cfg.DataCyclesPerReq = 1
	h := New(cfg)
	h.Tick()
	if !h.DataAccess(0x0, false, nil) {
		t.Fatal("refused 1")
	}
	h.Tick()
	if !h.DataAccess(0x1000, false, nil) {
		t.Fatal("refused 2")
	}
	h.Tick()
	if h.DataAccess(0x2000, false, nil) {
		t.Fatal("accepted beyond queue depth")
	}
	run(t, h, 5000, func() bool { return h.Drained() })
	if !h.DataAccess(0x2000, false, nil) {
		t.Fatal("refused after drain")
	}
}

func TestDRAMBandwidthThrottle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2Sets, cfg.L2Ways = 1, 1 // force DRAM traffic
	h := New(cfg)
	n := 0
	h.Tick()
	for i := 0; i < 8; i++ {
		for !h.DataAccess(uint32(i)*4096, false, func(Source) { n++ }) {
			h.Tick()
		}
		h.Tick()
	}
	start := h.now
	run(t, h, 50000, func() bool { return n == 8 })
	elapsed := int(h.now - start)
	// 8 line transfers at 9 cycles/line must take at least ~63 cycles
	// beyond the base latency of the last request.
	if elapsed < (8-1)*cfg.DRAMCyclesPerLine {
		t.Fatalf("8 DRAM transfers finished in %d cycles — no throttling", elapsed)
	}
	if h.Stats.DRAMAccesses < 8 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestDrainedIdle(t *testing.T) {
	h := New(DefaultConfig())
	if !h.Drained() {
		t.Fatal("fresh hierarchy not drained")
	}
	h.Tick()
	h.L1Access(RegSpaceBase, false, func(Source) {})
	if h.Drained() {
		t.Fatal("drained with a pending miss")
	}
	run(t, h, 5000, func() bool { return h.Drained() })
}

func TestL1InvalidateQuiet(t *testing.T) {
	h := New(DefaultConfig())
	addr := RegSpaceBase + 9*LineSize
	done := false
	h.Tick()
	h.L1Access(addr, true, func(Source) { done = true })
	run(t, h, 200, func() bool { return done })
	// Quiet invalidation: no port claim, so a same-cycle access works.
	h.Tick()
	h.L1InvalidateQuiet(addr)
	if !h.L1Access(RegSpaceBase, true, nil) {
		t.Fatal("quiet invalidate consumed the L1 port")
	}
	if h.Stats.L1Invalidations != 0 {
		t.Fatal("quiet invalidate counted as a port operation")
	}
	// The line is gone: the next read misses.
	h.Tick()
	miss := false
	h.L1Access(addr, false, func(Source) { miss = true })
	run(t, h, 5000, func() bool { return miss })
	if h.Stats.L1Misses != 1 {
		t.Fatalf("stats = %+v", h.Stats)
	}
}

func TestSourceString(t *testing.T) {
	if SrcL1.String() != "L1" || SrcL2.String() != "L2" || SrcDRAM.String() != "DRAM" {
		t.Fatal("Source.String wrong")
	}
}

func TestCallbackSourceReporting(t *testing.T) {
	h := New(DefaultConfig())
	addr := RegSpaceBase + 33*LineSize
	var first Source
	got := false
	h.Tick()
	h.L1Access(addr, false, func(s Source) { first = s; got = true })
	run(t, h, 5000, func() bool { return got })
	if first != SrcDRAM {
		t.Fatalf("cold read source = %v, want DRAM", first)
	}
	// Second read: L1 hit.
	h.Tick()
	got = false
	h.L1Access(addr, false, func(s Source) { first = s; got = true })
	run(t, h, 200, func() bool { return got })
	if first != SrcL1 {
		t.Fatalf("warm read source = %v, want L1", first)
	}
	// Evict from L1 only; next read comes from L2.
	h.Tick()
	h.l1.invalidate(align(addr))
	got = false
	h.L1Access(addr, false, func(s Source) { first = s; got = true })
	run(t, h, 2000, func() bool { return got })
	if first != SrcL2 {
		t.Fatalf("L2 read source = %v, want L2", first)
	}
}

// TestFarEventsHopToTheirCycle: an event due past the calendar's horizon
// — a mem-delay fault names its own delay — fires on exactly its cycle,
// after the events that were due on the way, and NextWake never reports a
// wake later than it; the calendar holds it without spanning the wait.
func TestFarEventsHopToTheirCycle(t *testing.T) {
	const far = 3*horizon + 17
	h := New(DefaultConfig())
	var order []string
	var firedAt uint64
	h.deliverAfter(far, call(func(Source) { order = append(order, "far"); firedAt = h.now }), SrcL2)
	h.deliverAfter(far-1, call(func(Source) { order = append(order, "near") }), SrcL2)
	for h.now < far+10 {
		if wake, ok := h.NextWake(false); len(order) < 2 && (!ok || wake <= h.now || (len(order) == 1 && wake > far)) {
			t.Fatalf("cycle %d: NextWake = %d,%v with an event pending for cycle %d", h.now, wake, ok, far)
		}
		h.Tick()
	}
	if len(order) != 2 || order[0] != "near" || order[1] != "far" || firedAt != far {
		t.Fatalf("fired %v, the far event at cycle %d; want [near far] at %d", order, firedAt, far)
	}
	if !h.Drained() {
		t.Fatal("hops left the calendar non-empty")
	}
}

// TestResetTimingRestartsTheShownClock: after ResetTiming the cycles the
// hierarchy exchanges with its SM — NextWake out, FastForwardTo in — count
// from zero again, while what it holds (lines, statistics, the busy DRAM
// throttle) is what the first SM left.
func TestResetTimingRestartsTheShownClock(t *testing.T) {
	h := New(DefaultConfig())
	addr := RegSpaceBase + 3*LineSize
	done := false
	h.L1Access(addr, true, func(Source) { done = true })
	run(t, h, 100, func() bool { return done })
	h.Tick()
	before := h.Stats

	h.ResetTiming()
	if h.Stats != before || !h.Drained() {
		t.Fatalf("ResetTiming touched statistics or left work: %+v", h.Stats)
	}
	hit := false
	if !h.L1Access(addr, false, func(Source) { hit = true }) {
		t.Fatal("L1 read refused after ResetTiming")
	}
	lat := uint64(DefaultConfig().L1HitLatency)
	if wake, ok := h.NextWake(false); !ok || wake != lat {
		t.Fatalf("NextWake = %d,%v on the new SM's clock, want %d", wake, ok, lat)
	}
	h.FastForwardTo(lat - 1)
	if h.Tick(); !hit || h.Stats.L1Hits != before.L1Hits+1 {
		t.Fatalf("the line the first SM wrote did not hit at cycle %d (hit=%v, stats %+v)", lat, hit, h.Stats)
	}
}
