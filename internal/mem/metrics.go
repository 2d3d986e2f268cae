package mem

import "repro/internal/metrics"

// BindMetrics exposes the hierarchy's counters and live occupancies on r
// under "mem/...". The Stats fields stay plain uint64 increments on the hot
// path (Bind registers views, not replacements); occupancy gauges sample
// only at window boundaries.
func (h *Hierarchy) BindMetrics(r *metrics.Registry) {
	r.Bind("mem/l1_hits", &h.Stats.L1Hits)
	r.Bind("mem/l1_misses", &h.Stats.L1Misses)
	r.Bind("mem/l1_reads", &h.Stats.L1Reads)
	r.Bind("mem/l1_writes", &h.Stats.L1Writes)
	r.Bind("mem/l1_writebacks", &h.Stats.L1Writebacks)
	r.Bind("mem/l1_invalidations", &h.Stats.L1Invalidations)
	r.Bind("mem/l2_hits", &h.Stats.L2Hits)
	r.Bind("mem/l2_misses", &h.Stats.L2Misses)
	r.Bind("mem/data_reads", &h.Stats.DataReads)
	r.Bind("mem/data_writes", &h.Stats.DataWrites)
	r.Bind("mem/dram_accesses", &h.Stats.DRAMAccesses)
	r.Bind("mem/l1_port_rejects", &h.Stats.L1PortRejects)
	r.Bind("mem/mshr_rejects", &h.Stats.MSHRRejects)
	r.Bind("mem/data_rejects", &h.Stats.DataRejects)
	r.Gauges((*gauges)(h), "mem/mshr_occupancy", "mem/data_in_flight")
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
	r.Bind("l2/hits", &l2.Stats.Hits)
	r.Bind("l2/misses", &l2.Stats.Misses)
	r.Bind("l2/port_queue_cycles", &l2.Stats.PortQueueCycles)
	r.Bind("l2/mshr_merges", &l2.Stats.MSHRMerges)
	r.Bind("l2/mshr_full_retries", &l2.Stats.MSHRFullRetries)
	r.Bind("l2/dram_accesses", &l2.Stats.DRAMAccesses)
	r.Bind("l2/dram_writes", &l2.Stats.DRAMWrites)
	r.Bind("l2/dram_queue_cycles", &l2.Stats.DRAMQueueCycles)
	r.Gauges((*l2gauges)(l2), "l2/mshr_occupancy")
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
