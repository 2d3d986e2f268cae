package core

import (
	"fmt"

	"repro/internal/cm"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/sim"
)

// OnIssue implements sim.Provider: account OSU accesses and bank
// conflicts, stage interior first-writes, apply last-use annotations, pay
// the metadata cost at region entry, and detect region completion.
func (p *Provider) OnIssue(w *sim.Warp, info *exec.StepInfo) int {
	ws := p.warps[w.ID]
	sh := p.shards[ws.shard]
	in := info.Insn
	gi := p.comp.G.GlobalIndex(info.PC)
	region := p.comp.Regions[ws.regionID]

	penalty := 0
	// Metadata instructions precede the region's first real instruction.
	if p.cfg.MetadataOverhead && gi == region.StartGI {
		penalty += region.MetaInsns
		p.st.MetaInsns += uint64(region.MetaInsns)
	}

	// Source reads: one OSU bank access each; same-bank collisions
	// serialize.
	var banksUsed [isa.NumBanks]bool
	for i := 0; i < in.Op.NumSrc(); i++ {
		r := in.Src[i]
		if !r.Valid() {
			continue
		}
		p.st.StructReads++
		sh.osu.CountRead()
		b := sh.osu.Bank(w.ID, r)
		if banksUsed[b] {
			p.st.BankConflicts++
			penalty++
		}
		banksUsed[b] = true
	}
	if in.Op.HasDst() && in.Dst.Valid() {
		p.st.StructWrites++
		sh.osu.CountWrite()
		if !ws.staged.has(in.Dst) {
			// Interior register's first write allocates its line.
			p.install(sh, ws, in.Dst, true)
		}
		ws.dirty.set(in.Dst)
	}

	// Last-use annotations at this instruction. Flags naming the
	// destination ride with the write and apply at writeback (§5.2.2).
	for _, reg := range region.EraseAt[gi] {
		if in.Op.HasDst() && reg == in.Dst {
			ws.deferred.set(reg)
			ws.deferErase.set(reg)
		} else {
			p.applyErase(sh, ws, reg)
		}
	}
	for _, reg := range region.EvictAt[gi] {
		if in.Op.HasDst() && reg == in.Dst {
			ws.deferred.set(reg)
			ws.deferErase.clear(reg)
		} else {
			p.applyEvict(sh, ws, reg)
		}
	}

	// Region completion: the next instruction lies outside this region,
	// or a back edge re-enters it at its start (a new dynamic instance —
	// regions are scheduled atomically, so the warp drains and
	// reactivates; its inputs are usually still resident, §4.1).
	if !info.Exited && !w.Finished() {
		next := w.NextGI()
		if p.comp.RegionOf[next] != ws.regionID || next == region.StartGI {
			willPend := w.PendingWrites()
			if in.Op.HasDst() && in.Dst.Valid() {
				willPend++ // this instruction's write is added after OnIssue
			}
			sh.cm.BeginDrain(ws.local, ws.activePerBank)
			if willPend == 0 {
				p.finishDrain(sh, ws)
			}
		}
	}
	return penalty
}

func (p *Provider) warpID(ws *warpState) int { return ws.local*p.cfg.Shards + ws.shard }

// applyErase frees a dead register's line immediately.
func (p *Provider) applyErase(sh *shard, ws *warpState, reg isa.Reg) {
	warp := p.warpID(ws)
	if !ws.staged.has(reg) {
		return
	}
	sh.osu.Erase(warp, reg)
	p.unstage(sh, ws, reg)
}

// applyEvict demotes a register's line to the evictable population.
func (p *Provider) applyEvict(sh *shard, ws *warpState, reg isa.Reg) {
	warp := p.warpID(ws)
	if !ws.staged.has(reg) {
		return
	}
	sh.osu.MarkEvictable(warp, reg, ws.dirty.has(reg))
	p.unstage(sh, ws, reg)
}

func (p *Provider) unstage(sh *shard, ws *warpState, reg isa.Reg) {
	warp := p.warpID(ws)
	ws.staged.clear(reg)
	ws.dirty.clear(reg)
	b := sh.osu.Bank(warp, reg)
	ws.activePerBank[b]--
	if sh.cm.StateOf(ws.local) == cm.Draining {
		sh.cm.ReleaseLine(ws.local, b)
	}
}

func (p *Provider) finishDrain(sh *shard, ws *warpState) {
	if ws.staged.len() != 0 {
		// Staged-register count disagrees with the region's annotations
		// (a leaked line). Report and leave the warp draining; the run
		// aborts with a Diagnostic at the end of this cycle.
		p.sm.ReportFault(fmt.Sprintf("core/s%d/drain", ws.shard),
			fmt.Sprintf("warp %d finished region %d with %d staged registers",
				p.warpID(ws), ws.regionID, ws.staged.len()), p.warpID(ws))
		return
	}
	cycles := sh.cm.FinishDrain(ws.local, p.sm.Cycle())
	p.st.RegionCycles += cycles
	p.st.RegionActivations++
	ws.regionID = -1
}

// OnWriteback implements sim.Provider: apply deferred last-use flags and
// complete draining regions.
func (p *Provider) OnWriteback(w *sim.Warp, reg isa.Reg) {
	ws := p.warps[w.ID]
	sh := p.shards[ws.shard]
	if sh.cm.StateOf(ws.local) == cm.Finished {
		return
	}
	if ws.deferred.clear(reg) {
		if ws.deferErase.clear(reg) {
			p.applyErase(sh, ws, reg)
		} else {
			p.applyEvict(sh, ws, reg)
		}
	}
	if sh.cm.StateOf(ws.local) == cm.Draining && w.PendingWrites() == 0 {
		p.finishDrain(sh, ws)
	}
}

// OnWarpFinish implements sim.Provider: release everything the warp held.
func (p *Provider) OnWarpFinish(w *sim.Warp) {
	ws := p.warps[w.ID]
	sh := p.shards[ws.shard]
	sh.cm.Finish(ws.local)
	sh.osu.FreeWarp(w.ID)
	// Dead values need no writeback.
	kept := sh.evictQ[:0]
	for _, e := range sh.evictQ {
		if e.warp != w.ID {
			kept = append(kept, e)
		}
	}
	sh.evictQ = kept
	ws.staged.reset()
	ws.dirty.reset()
	ws.deferred.reset()
	ws.deferErase.reset()
	for b := range ws.activePerBank {
		ws.activePerBank[b] = 0
	}
	ws.regionID = -1
}

// CheckInvariants verifies cross-structure consistency (tests).
func (p *Provider) CheckInvariants() error {
	for s, sh := range p.shards {
		if err := sh.cm.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		if err := sh.osu.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		// Active lines per bank must match the warps' staged counts.
		for b := 0; b < isa.NumBanks; b++ {
			sum := 0
			for w, ws := range p.warps {
				if ws.shard == s {
					sum += ws.activePerBank[b]
					_ = w
				}
			}
			if got := sh.osu.ActiveLines(b); got != sum {
				return fmt.Errorf("shard %d bank %d: OSU active %d != warp sum %d", s, b, got, sum)
			}
		}
	}
	return nil
}
