package compress

import "repro/internal/metrics"

// cellNames holds every shard's cell names, in BindMetrics' order: the
// counters, the per-pattern hit mix ("compress/s0/hits/stride4", ...),
// the gauges.
var cellNames = func() func(int) []string {
	suffixes := []string{"/matches", "/hits", "/misses", "/bit_checks", "/cache_hits",
		"/cache_misses", "/line_fetches", "/line_evicts", "/invalidations"}
	for p := PatConst; p < NumPatterns; p++ {
		suffixes = append(suffixes, "/hits/"+p.String())
	}
	return metrics.Names("compress/s%d", append(suffixes, "/compressed_regs", "/cache_lines")...)
}()

// BindMetrics exposes the compressor's counters and live populations on r
// under "compress/s<shard>/..." (one compressor per shard).
func (c *Compressor) BindMetrics(r *metrics.Registry, shard int) {
	n := cellNames(shard)
	r.Bind(n[0], &c.Stats.Matches)
	r.Bind(n[1], &c.Stats.Hits)
	r.Bind(n[2], &c.Stats.Misses)
	r.Bind(n[3], &c.Stats.BitChecks)
	r.Bind(n[4], &c.Stats.CacheHits)
	r.Bind(n[5], &c.Stats.CacheMisses)
	r.Bind(n[6], &c.Stats.LineFetches)
	r.Bind(n[7], &c.Stats.LineEvicts)
	r.Bind(n[8], &c.Stats.Invalidation)
	n = n[9:]
	for p := PatConst; p < NumPatterns; p++ {
		r.Bind(n[p-PatConst], &c.Stats.PatHits[p])
	}
	n = n[NumPatterns-PatConst:]
	r.Gauges((*gauges)(c), n[:2]...)
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
