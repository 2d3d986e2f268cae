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

// cellNames holds every shard's cell names, in BindMetrics' order.
var cellNames = metrics.Names("osu/s%d",
	"/reads", "/writes", "/tag_lookups", "/installs", "/erases", "/hits",
	"/active_lines", "/clean_lines", "/dirty_lines")

// BindMetrics exposes the unit's counters and occupancy on r under
// "osu/s<shard>/..." (one OSU per shard). The occupancy gauges walk the
// banks only at window boundaries.
func (o *OSU) BindMetrics(r *metrics.Registry, shard int) {
	n := cellNames(shard)
	r.Bind(n[0], &o.Stats.Reads)
	r.Bind(n[1], &o.Stats.Writes)
	r.Bind(n[2], &o.Stats.TagLookups)
	r.Bind(n[3], &o.Stats.Installs)
	r.Bind(n[4], &o.Stats.Erases)
	r.Bind(n[5], &o.Stats.Hits)
	r.Gauges((*occupancy)(o), n[6:9]...)
}

// occupancy is the unit as a metrics.Sampler: its active, clean and dirty
// line populations.
type occupancy OSU

func (o *occupancy) Sample(i int) uint64 {
	a, c, d := (*OSU)(o).Occupancy()
	return uint64([3]int{a, c, d}[i])
}
