package compress

import "repro/internal/metrics"

// statCells is the tagged Stats fields, then the per-pattern hit mix
// ("compress/s0/hits/stride4", ...: PatHits is an array, bound word by
// word), then the gauges.
var statCells = func() *metrics.Fields[Stats] {
	var extra []string
	for p := PatConst; p < NumPatterns; p++ {
		extra = append(extra, "hits/"+p.String())
	}
	return metrics.FieldsOf[Stats]("compress/s%d/", append(extra, "compressed_regs", "cache_lines")...)
}()

// BindMetrics exposes the compressor's counters and live populations on r
// under "compress/s<shard>/..." (one compressor per shard).
func (c *Compressor) BindMetrics(r *metrics.Registry, shard int) {
	n := statCells.BindAt(r, shard, &c.Stats)
	for p := PatConst; p < NumPatterns; p++ {
		r.Bind(n[p-PatConst], &c.Stats.PatHits[p])
	}
	r.Gauges((*gauges)(c), n[NumPatterns-PatConst:]...)
}

// gauges is the compressor as a metrics.Sampler: compressed registers,
// resident cache lines.
type gauges Compressor

func (c *gauges) Sample(i int) uint64 {
	if i == 0 {
		return uint64((*Compressor)(c).CompressedCount())
	}
	return uint64(len(c.cache))
}
