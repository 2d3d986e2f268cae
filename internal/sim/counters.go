package sim

import (
	"repro/internal/arena"
	"repro/internal/metrics"
)

// ProviderCounters is the registry-backed storage behind ProviderStats.
// Providers used to carry an ad-hoc ProviderStats struct each and bump its
// fields directly; they now hold one of these (built against the owning
// SM's metrics registry at Attach) so every scheme event is a named,
// exportable counter, and Stats() materializes the identical ProviderStats
// view the figures and the energy model have always consumed.
//
// Counter names are stable and shared across schemes ("provider/..."), so
// per-window JSONL streams from different providers line up column-wise.
type ProviderCounters struct {
	StructReads     metrics.Counter
	StructWrites    metrics.Counter
	TagLookups      metrics.Counter
	BankConflicts   metrics.Counter
	BackingAccesses metrics.Counter

	PreloadFromOSU        metrics.Counter
	PreloadFromCompressor metrics.Counter
	PreloadFromL1         metrics.Counter
	PreloadFromL2DRAM     metrics.Counter

	Evictions           metrics.Counter
	CompressorHits      metrics.Counter
	CompressorMisses    metrics.Counter
	CompressorBitChecks metrics.Counter
	CompressorCacheOps  metrics.Counter
	CacheInvalidations  metrics.Counter
	MetaInsns           metrics.Counter
	StallCycles         metrics.Counter

	L1PreloadReads metrics.Counter
	L1StoreWrites  metrics.Counter
	L1Invalidates  metrics.Counter

	LRFAccesses metrics.Counter
	ORFAccesses metrics.Counter
	MRFAccesses metrics.Counter

	RegionActivations metrics.Counter
	RegionCycles      metrics.Counter

	// snap is the cached ProviderStats view refreshed by Stats().
	snap ProviderStats
}

var providerCountersT = arena.Of[ProviderCounters]()

// NewProviderCounters registers the canonical provider counter set on
// sm's registry; a provider calls it from Attach.
func NewProviderCounters(sm *SM) *ProviderCounters {
	r := sm.Metrics
	c := providerCountersT.New(sm.a)
	*c = ProviderCounters{
		StructReads:     r.Counter("provider/struct_reads"),
		StructWrites:    r.Counter("provider/struct_writes"),
		TagLookups:      r.Counter("provider/tag_lookups"),
		BankConflicts:   r.Counter("provider/bank_conflicts"),
		BackingAccesses: r.Counter("provider/backing_accesses"),

		PreloadFromOSU:        r.Counter("provider/preload_from_osu"),
		PreloadFromCompressor: r.Counter("provider/preload_from_compressor"),
		PreloadFromL1:         r.Counter("provider/preload_from_l1"),
		PreloadFromL2DRAM:     r.Counter("provider/preload_from_l2dram"),

		Evictions:           r.Counter("provider/evictions"),
		CompressorHits:      r.Counter("provider/compressor_hits"),
		CompressorMisses:    r.Counter("provider/compressor_misses"),
		CompressorBitChecks: r.Counter("provider/compressor_bit_checks"),
		CompressorCacheOps:  r.Counter("provider/compressor_cache_ops"),
		CacheInvalidations:  r.Counter("provider/cache_invalidations"),
		MetaInsns:           r.Counter("provider/meta_insns"),
		StallCycles:         r.Counter("provider/stall_cycles"),

		L1PreloadReads: r.Counter("provider/l1_preload_reads"),
		L1StoreWrites:  r.Counter("provider/l1_store_writes"),
		L1Invalidates:  r.Counter("provider/l1_invalidates"),

		LRFAccesses: r.Counter("provider/lrf_accesses"),
		ORFAccesses: r.Counter("provider/orf_accesses"),
		MRFAccesses: r.Counter("provider/mrf_accesses"),

		RegionActivations: r.Counter("provider/region_activations"),
		RegionCycles:      r.Counter("provider/region_cycles"),
	}
	return c
}

// Stats refreshes and returns the ProviderStats view of the counters. The
// returned pointer stays valid (and is overwritten) across calls. A nil
// receiver — a provider whose Attach never ran — reports zeros.
func (c *ProviderCounters) Stats() *ProviderStats {
	if c == nil {
		return &ProviderStats{}
	}
	c.snap = ProviderStats{
		StructReads:     c.StructReads.Value(),
		StructWrites:    c.StructWrites.Value(),
		TagLookups:      c.TagLookups.Value(),
		BankConflicts:   c.BankConflicts.Value(),
		BackingAccesses: c.BackingAccesses.Value(),

		PreloadFromOSU:        c.PreloadFromOSU.Value(),
		PreloadFromCompressor: c.PreloadFromCompressor.Value(),
		PreloadFromL1:         c.PreloadFromL1.Value(),
		PreloadFromL2DRAM:     c.PreloadFromL2DRAM.Value(),

		Evictions:           c.Evictions.Value(),
		CompressorHits:      c.CompressorHits.Value(),
		CompressorMisses:    c.CompressorMisses.Value(),
		CompressorBitChecks: c.CompressorBitChecks.Value(),
		CompressorCacheOps:  c.CompressorCacheOps.Value(),
		CacheInvalidations:  c.CacheInvalidations.Value(),
		MetaInsns:           c.MetaInsns.Value(),
		StallCycles:         c.StallCycles.Value(),

		L1PreloadReads: c.L1PreloadReads.Value(),
		L1StoreWrites:  c.L1StoreWrites.Value(),
		L1Invalidates:  c.L1Invalidates.Value(),

		LRFAccesses: c.LRFAccesses.Value(),
		ORFAccesses: c.ORFAccesses.Value(),
		MRFAccesses: c.MRFAccesses.Value(),

		RegionActivations: c.RegionActivations.Value(),
		RegionCycles:      c.RegionCycles.Value(),
	}
	return &c.snap
}
