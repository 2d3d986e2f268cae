package core

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/osu"
)

// Tick implements sim.Provider: it advances each shard's machinery one
// cycle — L1 port arbitration, eviction (compressor) processing, per-bank
// preload queues, cache invalidations, and warp activation.
func (p *Provider) Tick() {
	if p.flt != nil {
		p.applyFaults()
	}
	p.drainL1Ops()
	for _, sh := range p.shards {
		p.processEvictions(sh)
		p.processPreloads(sh)
		p.processInvalidations(sh)
	}
	for s, sh := range p.shards {
		p.tryActivate(s, sh)
	}
}

// popFront removes q's head by copying the tail down. Reslicing from the
// front instead (q[1:]) sheds a slot of capacity per pop, so the next
// append regrows the queue — for the whole run, on every queue here.
func popFront[T any](q []T) []T {
	var zero T
	n := copy(q, q[1:])
	q[n] = zero
	return q[:n]
}

// drainL1Ops submits at most one queued L1 operation (the single shared
// port, Table 1), round-robin across shards.
func (p *Provider) drainL1Ops() {
	n := len(p.shards)
	for i := 0; i < n; i++ {
		sh := p.shards[(p.rrShard+i)%n]
		if len(sh.l1ops) == 0 {
			continue
		}
		op := sh.l1ops[0]
		var ok bool
		if op.inval {
			ok = p.sm.Mem.L1Invalidate(op.addr)
			if ok {
				p.st.L1Invalidates++
			}
		} else {
			ok = p.sm.Mem.L1AccessFor(op.addr, op.write, op.w)
			if ok {
				if op.write {
					p.st.L1StoreWrites++
				} else {
					p.st.L1PreloadReads++
				}
			}
		}
		if ok {
			p.st.BackingAccesses++
			sh.l1ops = popFront(sh.l1ops)
			p.rrShard = (p.rrShard + i + 1) % n
			return
		}
		// Port busy this cycle; no other shard will succeed either.
		return
	}
}

// processEvictions runs one displaced dirty line through the compressor
// (one compressor operation per cycle, Table 1).
func (p *Provider) processEvictions(sh *shard) {
	if len(sh.evictQ) == 0 {
		return
	}
	req := sh.evictQ[0]
	sh.evictQ = popFront(sh.evictQ)
	p.st.Evictions++
	if p.cfg.EnableCompressor {
		val := p.sm.Warps[req.warp].Exec.ReadReg(req.reg)
		pat, ok := sh.cmp.TryCompress(req.warp, req.reg, &val)
		p.rec.Compress(p.warps[req.warp].shard, req.warp, uint8(pat), ok)
		if ok {
			p.st.CompressorHits++
			p.st.CompressorCacheOps++
			res := sh.cmp.AccessLine(req.warp, req.reg, true)
			if res.HasFetch {
				// Read-modify-write of a non-resident compressed
				// line (fire-and-forget for timing).
				sh.pushL1(l1op{addr: res.FetchLine + p.cfg.AddrOffset})
			}
			if res.HasWriteback {
				sh.pushL1(l1op{addr: res.WritebackLine + p.cfg.AddrOffset, write: true})
			}
			return
		}
		p.st.CompressorMisses++
	}
	sh.pushL1(l1op{addr: p.regAddr(req.warp, req.reg), write: true})
}

// processPreloads runs each bank's preload queue: one tag lookup per bank
// per cycle (§5.2.1).
func (p *Provider) processPreloads(sh *shard) {
	if sh.preloadsQueued == 0 {
		return
	}
	for b := range sh.preloadQ {
		if len(sh.preloadQ[b]) == 0 {
			continue
		}
		req := sh.preloadQ[b][0]
		sh.preloadQ[b] = popFront(sh.preloadQ[b])
		sh.preloadsQueued--
		p.preload(sh, req)
	}
}

// preload resolves one input fetch: OSU tag hit, victim buffer, compressed
// path, or raw L1 read.
func (p *Provider) preload(sh *shard, req preloadReq) {
	ws := p.warps[req.warp]
	p.st.TagLookups++
	if st, ok := sh.osu.Lookup(req.warp, req.reg); ok {
		sh.osu.Activate(req.warp, req.reg)
		p.stage(sh, ws, req.reg, st == osu.StateDirty)
		p.st.PreloadFromOSU++
		p.rec.PreloadFill(ws.shard, req.warp, uint32(req.reg), events.SrcOSU)
		if req.invalidate {
			p.dropBacking(sh, req.warp, req.reg)
		}
		sh.cm.PreloadDone(ws.local)
		return
	}
	// Victim buffer: a displaced dirty line awaiting writeback.
	for i := range sh.evictQ {
		if sh.evictQ[i].warp == req.warp && sh.evictQ[i].reg == req.reg {
			sh.evictQ = append(sh.evictQ[:i], sh.evictQ[i+1:]...)
			p.install(sh, ws, req.reg, true)
			p.st.PreloadFromOSU++
			p.rec.PreloadFill(ws.shard, req.warp, uint32(req.reg), events.SrcOSU)
			if req.invalidate {
				p.dropBacking(sh, req.warp, req.reg)
			}
			sh.cm.PreloadDone(ws.local)
			return
		}
	}
	if p.cfg.EnableCompressor {
		p.st.CompressorBitChecks++
	}
	if p.cfg.EnableCompressor && sh.cmp.IsCompressed(req.warp, req.reg) {
		p.st.CompressorCacheOps++
		res := sh.cmp.AccessLine(req.warp, req.reg, false)
		if res.HasWriteback {
			sh.pushL1(l1op{addr: res.WritebackLine + p.cfg.AddrOffset, write: true})
		}
		f := p.newFill(sh, ws, req, true)
		if res.Hit {
			// Two extra cycles to match tags and decompress (§5.3),
			// one for the bit vector.
			p.sm.After(3, f)
			return
		}
		// Fetch the compressed line from L1.
		sh.pushL1(l1op{addr: res.FetchLine + p.cfg.AddrOffset, w: f})
		return
	}
	// Raw register line from the backing store.
	f := p.newFill(sh, ws, req, false)
	sh.pushL1(l1op{addr: p.regAddr(req.warp, req.reg), w: f})
}

// fill is one preload on its way in from below the OSU: a compressor hit
// waiting out its decompress delay, or a compressed or raw register line
// being fetched through the L1. Fills are pooled, and a fill is itself
// what the wheel fires (sim.Timer) and the memory system calls back
// (mem.Waiter), so a preload allocates nothing.
type fill struct {
	p          *Provider
	sh         *shard
	ws         *warpState
	req        preloadReq
	compressed bool  // the value sits in the compressor's space, not at regAddr
	next       *fill // pool free list
}

// Fire implements sim.Timer: the decompress delay is over.
func (f *fill) Fire() { f.p.landed(f, events.SrcCompressor) }

// MemDone implements mem.Waiter: the line has come in through the L1.
func (f *fill) MemDone(src mem.Source) { f.p.landed(f, fillSrc(src)) }

func (p *Provider) newFill(sh *shard, ws *warpState, req preloadReq, compressed bool) *fill {
	f := p.freeFills
	if f == nil {
		f = fillT.New(p.a)
		f.p = p
	} else {
		p.freeFills = f.next
	}
	f.sh, f.ws, f.req, f.compressed = sh, ws, req, compressed
	return f
}

// landed stages a fill's value, counts where it came from, drops the
// backing copy of a value read for the last time, and returns the fill
// to the pool.
func (p *Provider) landed(f *fill, src events.PreloadSrc) {
	sh, ws, req := f.sh, f.ws, f.req
	p.install(sh, ws, req.reg, false)
	switch src {
	case events.SrcCompressor:
		p.st.PreloadFromCompressor++
	case events.SrcL1:
		p.st.PreloadFromL1++
	default:
		p.st.PreloadFromL2DRAM++
	}
	p.rec.PreloadFill(ws.shard, req.warp, uint32(req.reg), src)
	if req.invalidate {
		if f.compressed {
			sh.cmp.Drop(req.warp, req.reg)
		} else {
			p.sm.Mem.L1InvalidateQuiet(p.regAddr(req.warp, req.reg))
		}
	}
	sh.cm.PreloadDone(ws.local)
	f.sh, f.ws = nil, nil
	f.next = p.freeFills
	p.freeFills = f
}

// fillSrc maps a memory-hierarchy source to the event-taxonomy source:
// the L1, or anything below it.
func fillSrc(src mem.Source) events.PreloadSrc {
	if src == mem.SrcL1 {
		return events.SrcL1
	}
	return events.SrcL2DRAM
}

// dropBacking deletes every backing copy of a dead value (invalidating
// read): the compressed entry if present, else the L1/L2 line — no port
// cost, the read carries the invalidation (§4.3).
func (p *Provider) dropBacking(sh *shard, warp int, reg isa.Reg) {
	if p.cfg.EnableCompressor && sh.cmp.Drop(warp, reg) {
		return
	}
	p.sm.Mem.L1InvalidateQuiet(p.regAddr(warp, reg))
}

// install stages a register into an active OSU line: a still-resident
// evictable line (e.g. the previous dynamic instance of a looping region)
// is reactivated in place; otherwise a line is allocated, routing any
// displaced dirty victim to the eviction queue.
func (p *Provider) install(sh *shard, ws *warpState, reg isa.Reg, dirty bool) {
	warp := ws.local*p.cfg.Shards + ws.shard
	if sh.osu.Activate(warp, reg) {
		p.stage(sh, ws, reg, dirty)
		return
	}
	victim, hasVictim, err := sh.osu.Install(warp, reg)
	if err != nil {
		// Reservation violated: report instead of panicking; the run
		// aborts with a Diagnostic at the end of this cycle.
		p.sm.ReportFault(fmt.Sprintf("core/s%d/install", ws.shard),
			fmt.Sprintf("reservation violated: %v", err), warp)
		return
	}
	if hasVictim {
		sh.push(&sh.evictQ, preloadReq{warp: victim.Warp, reg: victim.Reg})
	}
	p.stage(sh, ws, reg, dirty)
}

func (p *Provider) stage(sh *shard, ws *warpState, reg isa.Reg, dirty bool) {
	warp := ws.local*p.cfg.Shards + ws.shard
	ws.staged.set(reg)
	if dirty {
		ws.dirty.set(reg)
	}
	ws.activePerBank[sh.osu.Bank(warp, reg)]++
}

// processInvalidations executes one cache-invalidation annotation.
func (p *Provider) processInvalidations(sh *shard) {
	if len(sh.invalQ) == 0 {
		return
	}
	req := sh.invalQ[0]
	sh.invalQ = popFront(sh.invalQ)
	p.st.CacheInvalidations++
	// Purge a dead pending writeback.
	for i := range sh.evictQ {
		if sh.evictQ[i].warp == req.warp && sh.evictQ[i].reg == req.reg {
			sh.evictQ = append(sh.evictQ[:i], sh.evictQ[i+1:]...)
			break
		}
	}
	// Erase a resident evictable copy.
	if st, ok := sh.osu.Lookup(req.warp, req.reg); ok && st != osu.StateActive {
		sh.osu.Erase(req.warp, req.reg)
	}
	if p.cfg.EnableCompressor && sh.cmp.Drop(req.warp, req.reg) {
		return // compressed: bit-vector update only, no L1 traffic
	}
	sh.pushL1(l1op{addr: p.regAddr(req.warp, req.reg), inval: true})
}

// tryActivate activates the top warp of the shard's stack if its next
// region fits (one activation attempt per cycle, §5.1).
func (p *Provider) tryActivate(s int, sh *shard) {
	if sh.noFit == sh.cm.Epoch() {
		return // same top, same reservations: it still does not fit
	}
	local := sh.cm.Top()
	if local < 0 {
		return
	}
	warp := local*p.cfg.Shards + s
	w := p.sm.Warps[warp]
	if w.Finished() {
		// Should not happen (finished warps leave the stack), but be
		// defensive: retire it.
		for i := range p.usageScratch {
			p.usageScratch[i] = 0
		}
		if _, err := sh.cm.ActivateTop(0, p.usageScratch, 0, p.sm.Cycle()); err == nil {
			sh.cm.Finish(local)
		}
		return
	}
	if w.AtBarrier() {
		// Don't stage capacity for a warp that cannot issue until its
		// CTA mates arrive; let the warps below the stack top run.
		sh.cm.DeferTop()
		return
	}
	region := p.comp.RegionAt(w.NextGI())
	usage := p.rotatedUsage(warp, region.BankUsage)
	if !sh.cm.Fits(usage) {
		sh.noFit = sh.cm.Epoch()
		return
	}
	if _, err := sh.cm.ActivateTop(region.ID, usage, len(region.Preloads), p.sm.Cycle()); err != nil {
		p.sm.ReportFault(fmt.Sprintf("core/s%d/activate", s),
			fmt.Sprintf("activation failed after Fits: %v", err), warp)
		return
	}
	p.regionActivations[region.ID]++
	ws := p.warps[warp]
	ws.regionID = region.ID
	for _, pl := range region.Preloads {
		b := sh.osu.Bank(warp, pl.Reg)
		sh.push(&sh.preloadQ[b], preloadReq{warp: warp, reg: pl.Reg, invalidate: pl.Invalidate})
		sh.preloadsQueued++
		p.rec.PreloadIssue(s, warp, uint32(pl.Reg))
	}
	for _, reg := range region.CacheInvalidations {
		sh.push(&sh.invalQ, preloadReq{warp: warp, reg: reg})
	}
}

// rotatedUsage rebuilds the bank-rotated usage vector for warp into the
// provider scratch buffer (the CM copies values out of it).
func (p *Provider) rotatedUsage(warp int, bankUsage [isa.NumBanks]int) []int {
	usage := p.usageScratch
	for i := range usage {
		usage[i] = 0
	}
	b := warp % isa.NumBanks
	for _, u := range bankUsage {
		usage[b] = u
		if b++; b == isa.NumBanks {
			b = 0
		}
	}
	return usage
}

// TickIdle implements sim.TickIdler: with the rest of the machine frozen,
// Tick is a provable no-op exactly when every queue is empty and no
// shard's stack top could act — the top warp is absent, or it is alive,
// not at a barrier (DeferTop would rotate the stack), and its next region
// does not fit (the one pure outcome of tryActivate). Fault application
// is not considered here: the SM disables fast-forward entirely when an
// injector is armed.
func (p *Provider) TickIdle() bool {
	for s, sh := range p.shards {
		if sh.backlog() > 0 {
			return false
		}
		if sh.noFit == sh.cm.Epoch() {
			continue
		}
		local := sh.cm.Top()
		if local < 0 {
			continue
		}
		warp := local*p.cfg.Shards + s
		w := p.sm.Warps[warp]
		if w.Finished() || w.AtBarrier() {
			return false
		}
		region := p.comp.RegionAt(w.NextGI())
		if sh.cm.Fits(p.rotatedUsage(warp, region.BankUsage)) {
			return false
		}
		sh.noFit = sh.cm.Epoch()
	}
	return true
}
