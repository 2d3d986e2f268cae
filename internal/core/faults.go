package core

import (
	"fmt"
	"sort"

	"repro/internal/cm"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/regions"
	"repro/internal/sanitizer"
)

// SetFaults implements sim.FaultAware: store the injector for runtime
// corruption (applied from Tick) and apply compile-time metadata faults
// now. The shared compile-cache entry is read-only, so metadata
// corruption works on a private clone of the compiled result.
func (p *Provider) SetFaults(in *faults.Injector) {
	p.flt = in
	p.applyMetaFaults()
}

// applyMetaFaults corrupts compiled region metadata (meta-bank,
// meta-erase) on a clone of the shared compile result.
func (p *Provider) applyMetaFaults() {
	bank, hasBank := p.flt.CompileTime(faults.MetaBank)
	erase, hasErase := p.flt.CompileTime(faults.MetaErase)
	if !hasBank && !hasErase {
		return
	}
	// Clone the Compiled shell and region list; corrupted regions are
	// deep-copied individually below.
	cp := *p.comp
	cp.Regions = make([]*regions.Region, len(p.comp.Regions))
	copy(cp.Regions, p.comp.Regions)
	p.comp = &cp

	if hasBank {
		id := p.pickRegion(bank.Region, func(r *regions.Region) bool {
			return maxBankUsage(r) > 0
		})
		if id < 0 {
			p.flt.Note(faults.MetaBank, "no region with bank usage; fault skipped")
		} else {
			r := *cp.Regions[id]
			b, u := 0, 0
			for i, v := range r.BankUsage {
				if v > u {
					b, u = i, v
				}
			}
			r.BankUsage[b] = 0
			cp.Regions[id] = &r
			p.flt.Note(faults.MetaBank,
				fmt.Sprintf("region %d bank %d usage %d -> 0 (under-reservation)", id, b, u))
		}
	}
	if hasErase {
		id := p.pickRegion(erase.Region, func(r *regions.Region) bool {
			return len(r.EraseAt) > 0
		})
		if id < 0 {
			p.flt.Note(faults.MetaErase, "no region with erase annotations; fault skipped")
		} else {
			r := *cp.Regions[id]
			gis := make([]int, 0, len(r.EraseAt))
			for gi := range r.EraseAt {
				gis = append(gis, gi)
			}
			sort.Ints(gis)
			gi := gis[p.flt.Pick(len(gis))]
			ea := make(map[int][]isa.Reg, len(r.EraseAt))
			for k, v := range r.EraseAt {
				ea[k] = v
			}
			regsList := ea[gi]
			if len(regsList) > 1 {
				ea[gi] = regsList[1:]
			} else {
				delete(ea, gi)
			}
			r.EraseAt = ea
			cp.Regions[id] = &r
			p.flt.Note(faults.MetaErase,
				fmt.Sprintf("region %d dropped erase of %v at gi %d (staged-register leak)", id, regsList[0], gi))
		}
	}
}

// pickRegion returns the requested region if it is usable, else a
// seed-picked usable region, else -1.
func (p *Provider) pickRegion(want int, usable func(*regions.Region) bool) int {
	if want >= 0 && want < len(p.comp.Regions) && usable(p.comp.Regions[want]) {
		return want
	}
	var cands []int
	for i, r := range p.comp.Regions {
		if usable(r) {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[p.flt.Pick(len(cands))]
}

func maxBankUsage(r *regions.Region) int {
	u := 0
	for _, v := range r.BankUsage {
		if v > u {
			u = v
		}
	}
	return u
}

// pickShard resolves a fault's shard target (seed-picked when unset).
func (p *Provider) pickShard(want int) int {
	if want >= 0 && want < len(p.shards) {
		return want
	}
	return p.flt.Pick(len(p.shards))
}

// applyFaults fires due runtime faults (called at the top of Tick). A
// corruption point that finds no target (e.g. an empty OSU early in the
// run) leaves the fault armed and retries next cycle.
func (p *Provider) applyFaults() {
	now := p.sm.Cycle()
	if f, ok := p.flt.Due(faults.OSUTag, now); ok {
		si := p.pickShard(f.Shard)
		if detail, hit := p.shards[si].osu.CorruptTag(p.flt.Pick(1 << 20)); hit {
			p.flt.Consume(faults.OSUTag, fmt.Sprintf("shard %d %s at cycle %d", si, detail, now))
		}
	}
	if f, ok := p.flt.Due(faults.OSUState, now); ok {
		si := p.pickShard(f.Shard)
		if detail, hit := p.shards[si].osu.CorruptState(p.flt.Pick(1 << 20)); hit {
			p.flt.Consume(faults.OSUState, fmt.Sprintf("shard %d %s at cycle %d", si, detail, now))
		}
	}
	if f, ok := p.flt.Due(faults.CompressPattern, now); ok {
		si := p.pickShard(f.Shard)
		detail := p.shards[si].cmp.CorruptPattern(p.flt.Pick(1 << 20))
		p.flt.Consume(faults.CompressPattern, fmt.Sprintf("shard %d %s at cycle %d", si, detail, now))
	}
}

// AttachSanitizer implements sim.SanitizerAware: register every shard's
// invariants — CM reservation bookkeeping, OSU line partition, capacity
// state-machine transition legality (hooked into OnTransition, chained
// with any recorder hook), and the cross-structure capacity agreement
// between OSU active lines, warp staged sets, and CM reservations.
func (p *Provider) AttachSanitizer(s *sanitizer.Sanitizer) {
	warpsPerShard := len(p.warps) / p.cfg.Shards
	for si, sh := range p.shards {
		si, sh := si, sh
		s.Register(fmt.Sprintf("cm/s%d", si), sh.cm.CheckInvariants)
		s.Register(fmt.Sprintf("osu/s%d", si), sh.osu.CheckInvariants)
		tc := sanitizer.NewTransitionChecker(warpsPerShard)
		prev := sh.cm.OnTransition
		sh.cm.OnTransition = func(local int, to cm.State, region int) {
			if prev != nil {
				prev(local, to, region)
			}
			tc.Observe(local, uint8(to))
		}
		s.Register(fmt.Sprintf("cm/s%d/transitions", si), tc.Err)
		s.Register(fmt.Sprintf("core/s%d/capacity", si), func() error {
			return p.checkShardCapacity(si, sh)
		})
	}
}

// checkShardCapacity cross-checks the three capacity views per bank: the
// OSU's active-line count, the warps' staged-register bookkeeping, and
// the CM's reservations (active lines never exceed reservations).
func (p *Provider) checkShardCapacity(si int, sh *shard) error {
	for b := 0; b < isa.NumBanks; b++ {
		sum := 0
		for _, ws := range p.warps {
			if ws.shard == si {
				sum += ws.activePerBank[b]
			}
		}
		got := sh.osu.ActiveLines(b)
		if got != sum {
			return fmt.Errorf("bank %d: OSU holds %d active lines but warps stage %d", b, got, sum)
		}
		if res := sh.cm.Reserved(b); got > res {
			return fmt.Errorf("bank %d: %d active lines exceed %d reserved", b, got, res)
		}
	}
	return nil
}

// WarpDiag implements sim.WarpReporter: warp w's capacity state and
// region for diagnostic bundles.
func (p *Provider) WarpDiag(w int) (string, int) {
	ws := p.warps[w]
	sh := p.shards[ws.shard]
	return sh.cm.StateOf(ws.local).String(), sh.cm.RegionOf(ws.local)
}
