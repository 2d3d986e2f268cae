package cm

import "repro/internal/metrics"

// statCells is the tagged Stats fields, then the gauges.
var statCells = metrics.FieldsOf[Stats]("cm/s%d/", "stack_depth", "reserved_lines")

// BindMetrics exposes the transition counters and live stack/reservation
// occupancy on r under "cm/s<shard>/..." (one CM per shard).
func (c *CM) BindMetrics(r *metrics.Registry, shard int) {
	r.Gauges((*gauges)(c), statCells.BindAt(r, shard, &c.Stats)...)
}

// gauges is the manager as a metrics.Sampler: stack depth, reserved lines.
type gauges CM

func (c *gauges) Sample(i int) uint64 {
	if i == 0 {
		return uint64(len(c.stack))
	}
	n := 0
	for _, v := range c.reserved {
		n += v
	}
	return uint64(n)
}
