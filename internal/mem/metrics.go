package mem

import "repro/internal/metrics"

// The cells of the two statistics structs (their tagged fields) and the
// gauges registered after them.
var (
	statCells   = metrics.FieldsOf[Stats]("mem/", "mshr_occupancy", "data_in_flight")
	l2StatCells = metrics.FieldsOf[BankedL2Stats]("l2/", "mshr_occupancy")
)

// BindMetrics exposes the hierarchy's counters and live occupancies on r
// under "mem/...". The Stats fields stay plain uint64 increments on the hot
// path (the registry views them); occupancy gauges sample only at window
// boundaries.
func (h *Hierarchy) BindMetrics(r *metrics.Registry) {
	r.Gauges((*gauges)(h), statCells.Bind(r, &h.Stats)...)
}

// gauges is the hierarchy as a metrics.Sampler: MSHRs in use, bypassing
// data accesses in flight.
type gauges Hierarchy

func (h *gauges) Sample(i int) uint64 {
	if i == 0 {
		return uint64(h.mshrs.inUse())
	}
	return uint64(h.dataInFlight)
}

// BindMetrics exposes the chip-level L2/DRAM counters on r under
// "l2/...". Bind it on ONE registry per chip (the counters aggregate all
// SMs' traffic; per-SM L2 hit/miss shares stay on each SM's "mem/..."
// registry).
func (l2 *BankedL2) BindMetrics(r *metrics.Registry) {
	r.Gauges((*l2gauges)(l2), l2StatCells.Bind(r, &l2.Stats)...)
}

// l2gauges is the banked L2 as a metrics.Sampler: MSHRs in use, all banks.
type l2gauges BankedL2

func (l2 *l2gauges) Sample(int) uint64 {
	var n uint64
	for i := range l2.banks {
		n += uint64(l2.banks[i].mshrs.inUse())
	}
	return n
}
