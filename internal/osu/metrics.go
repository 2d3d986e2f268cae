package osu

import "repro/internal/metrics"

// Occupancy returns the live line population by state across all banks.
func (o *OSU) Occupancy() (active, clean, dirty int) {
	for b := range o.count {
		for _, ln := range o.resident(b) {
			switch ln.state {
			case StateActive:
				active++
			case StateClean:
				clean++
			default:
				dirty++
			}
		}
	}
	return
}

// BindMetrics exposes the unit's counters and occupancy on r under
// prefix+"/..." (one OSU per shard, so callers pass e.g. "osu/s0"). The
// occupancy gauges walk the banks only at window boundaries.
func (o *OSU) BindMetrics(r *metrics.Registry, prefix string) {
	r.Bind(prefix+"/reads", &o.Stats.Reads)
	r.Bind(prefix+"/writes", &o.Stats.Writes)
	r.Bind(prefix+"/tag_lookups", &o.Stats.TagLookups)
	r.Bind(prefix+"/installs", &o.Stats.Installs)
	r.Bind(prefix+"/erases", &o.Stats.Erases)
	r.Bind(prefix+"/hits", &o.Stats.Hits)
	r.Gauge(prefix+"/active_lines", func() uint64 {
		a, _, _ := o.Occupancy()
		return uint64(a)
	})
	r.Gauge(prefix+"/clean_lines", func() uint64 {
		_, c, _ := o.Occupancy()
		return uint64(c)
	})
	r.Gauge(prefix+"/dirty_lines", func() uint64 {
		_, _, d := o.Occupancy()
		return uint64(d)
	})
}
