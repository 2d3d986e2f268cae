package cm

import "repro/internal/metrics"

// cellNames holds every shard's cell names, in BindMetrics' order.
var cellNames = metrics.Names("cm/s%d",
	"/activations", "/immediate_activations", "/deferrals", "/preloads_done",
	"/drains", "/drains_done", "/finishes", "/lines_released",
	"/stack_depth", "/reserved_lines")

// BindMetrics exposes the transition counters and live stack/reservation
// occupancy on r under "cm/s<shard>/..." (one CM per shard).
func (c *CM) BindMetrics(r *metrics.Registry, shard int) {
	n := cellNames(shard)
	r.Bind(n[0], &c.Stats.Activations)
	r.Bind(n[1], &c.Stats.Immediate)
	r.Bind(n[2], &c.Stats.Deferrals)
	r.Bind(n[3], &c.Stats.PreloadsDone)
	r.Bind(n[4], &c.Stats.Drains)
	r.Bind(n[5], &c.Stats.DrainsDone)
	r.Bind(n[6], &c.Stats.Finishes)
	r.Bind(n[7], &c.Stats.LinesReleased)
	r.Gauges((*gauges)(c), n[8:10]...)
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
