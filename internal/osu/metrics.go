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

// statCells is the tagged Stats fields, then the gauges.
var statCells = metrics.FieldsOf[Stats]("osu/s%d/", "active_lines", "clean_lines", "dirty_lines")

// BindMetrics exposes the unit's counters and occupancy on r under
// "osu/s<shard>/..." (one OSU per shard). The occupancy gauges walk the
// banks only at window boundaries.
func (o *OSU) BindMetrics(r *metrics.Registry, shard int) {
	r.Gauges((*occupancy)(o), statCells.BindAt(r, shard, &o.Stats)...)
}

// occupancy is the unit as a metrics.Sampler: its active, clean and dirty
// line populations.
type occupancy OSU

func (o *occupancy) Sample(i int) uint64 {
	a, c, d := (*OSU)(o).Occupancy()
	return uint64([3]int{a, c, d}[i])
}
