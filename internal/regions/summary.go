package regions

import "math"

// Summary aggregates per-region statistics for the paper's Figure 19 and
// Table 2 (static columns).
type Summary struct {
	NumRegions int
	// AvgInsns is the mean static instructions per region (Table 2).
	AvgInsns float64
	// AvgPreloads is the mean input preloads per region (Figure 19).
	AvgPreloads float64
	// MeanMaxLive and StdMaxLive describe the distribution of per-region
	// concurrent live registers (Figure 19's mean and std. deviation).
	MeanMaxLive float64
	StdMaxLive  float64
	// InteriorFrac is the fraction of defined *values* whose lifetime is
	// contained in their region (they are never transferred to or from
	// memory) — the quantity the region-creation algorithm maximizes
	// ("most operand values have a short lifetime that is contained in
	// one region", §1). A value leaves its region only when its
	// register is a region output.
	InteriorFrac float64
}

// Summarize computes the static per-region statistics.
func (c *Compiled) Summarize() Summary {
	s := Summary{NumRegions: len(c.Regions)}
	if s.NumRegions == 0 {
		return s
	}
	var insns, preloads, live, live2 float64
	var defs, escaping float64
	for _, r := range c.Regions {
		insns += float64(r.NumInsns())
		preloads += float64(len(r.Preloads))
		live += float64(r.MaxLive)
		live2 += float64(r.MaxLive) * float64(r.MaxLive)
		blk := c.Kernel.Blocks[r.Block]
		for i := r.Start; i < r.End; i++ {
			if blk.Insns[i].Op.HasDst() {
				defs++
			}
		}
		escaping += float64(len(r.Outputs))
	}
	n := float64(s.NumRegions)
	s.AvgInsns = insns / n
	s.AvgPreloads = preloads / n
	s.MeanMaxLive = live / n
	variance := live2/n - (live/n)*(live/n)
	if variance > 0 {
		s.StdMaxLive = math.Sqrt(variance)
	}
	if defs > 0 {
		s.InteriorFrac = (defs - escaping) / defs
	}
	return s
}

// DynamicStats folds a region-activation profile (activations[id] counts
// the dynamic executions of region id, as the RegLess provider records
// them) into execution-weighted per-region statistics: mean instructions,
// preloads, and concurrent-live registers per dynamic region activation
// (the weighting the paper's Figure 19 and Table 2 report), plus the
// weighted standard deviation of concurrent live.
func (c *Compiled) DynamicStats(activations []uint64) (insns, preloads, meanLive, stdLive float64) {
	var n, is, ps, lv, lv2 float64
	for id, count := range activations {
		if count == 0 {
			continue
		}
		w := float64(count)
		r := c.Regions[id]
		n += w
		is += w * float64(r.NumInsns())
		ps += w * float64(len(r.Preloads))
		lv += w * float64(r.MaxLive)
		lv2 += w * float64(r.MaxLive) * float64(r.MaxLive)
	}
	if n == 0 {
		return 0, 0, 0, 0
	}
	insns = is / n
	preloads = ps / n
	meanLive = lv / n
	variance := lv2/n - meanLive*meanLive
	if variance > 0 {
		stdLive = math.Sqrt(variance)
	}
	return
}
