package sim

import (
	"repro/internal/exec"
	"repro/internal/isa"
)

// Provider abstracts the register storage scheme under evaluation: the
// baseline register file, RFV (register file virtualization, Jeon et al.),
// RFH (the compile-time register hierarchy, Gebhart et al.), or RegLess.
// The SM notifies the provider of issues, writebacks, and warp completion;
// the provider drives its own machinery (capacity managers, preload
// queues, compressors) from Tick. A provider that gates issue (RegLess
// holds back warps whose regions are not staged) publishes a maintained
// bit mask of the warps it lets through (IssueMasker) — the one Active
// wire per warp the paper's scheduler sees (§5.1) — and the pick reads
// that; the SM never asks about one warp at a time.
type Provider interface {
	// Name identifies the scheme in reports.
	Name() string
	// Attach binds the provider to the SM before simulation starts; the
	// provider counts its events into sm.Prov from then on. A non-nil error (kernel mismatch, shard/scheduler disagreement)
	// aborts construction instead of crashing mid-run.
	Attach(sm *SM) error
	// OnIssue is called when w issues; info is the executed instruction.
	// The returned penalty is added as issue-stall cycles (operand bank
	// conflicts, metadata instruction slots).
	OnIssue(w *Warp, info *exec.StepInfo) int
	// OnWriteback is called when a destination write completes.
	OnWriteback(w *Warp, reg isa.Reg)
	// OnWarpFinish is called when a warp exits.
	OnWarpFinish(w *Warp)
	// Tick advances provider machinery by one cycle (called after the
	// memory hierarchy tick, before instruction issue).
	Tick()
	// Drained reports whether no provider work is outstanding.
	Drained() bool
}

// IssueMasker is an optional Provider refinement for schemes that gate
// issue. IssueMask returns scheduler group g's words of the provider's
// issue mask: bit p set means the warp at position p of the group (warp
// g + p*Schedulers) may issue as far as register availability is
// concerned. The SM fetches the slices once, after Attach, and reads
// them every pick, so they must alias storage the provider keeps current
// for the whole run. A provider without a mask is always issuable.
//
// Refusals are counted by the SM, by popcount below the pick, into
// Stats.IssueStalls and Prov.StallCycles. A masked provider must also be
// an IssueProber: CanIssueQuiet is the per-warp definition of the bit,
// which the sanitizer, the test oracle and stall attribution compare
// the mask against.
type IssueMasker interface {
	IssueMask(g int) []uint64
}

// ProviderStats counts register-scheme events; the energy model and the
// per-figure experiments consume these. One lives on each SM (SM.Prov);
// its cell names are shared across schemes, so window streams from
// different providers line up column-wise.
type ProviderStats struct {
	// StructReads/StructWrites are accesses to the primary operand
	// structure (main RF for baseline/RFV, OSU data banks for RegLess).
	StructReads  uint64 `metric:"struct_reads"`
	StructWrites uint64 `metric:"struct_writes"`
	// TagLookups counts OSU tag-array lookups (RegLess).
	TagLookups uint64 `metric:"tag_lookups"`
	// BankConflicts counts same-cycle operand bank collisions.
	BankConflicts uint64 `metric:"bank_conflicts"`
	// BackingAccesses counts accesses to the scheme's backing store:
	// the main RF behind RFH's buffers, or the L1 for RegLess — the
	// quantity plotted in Figure 3.
	BackingAccesses uint64 `metric:"backing_accesses"`

	// Preload source breakdown (RegLess; Figure 17).
	PreloadFromOSU        uint64 `metric:"preload_from_osu"`
	PreloadFromCompressor uint64 `metric:"preload_from_compressor"`
	PreloadFromL1         uint64 `metric:"preload_from_l1"`
	PreloadFromL2DRAM     uint64 `metric:"preload_from_l2dram"`

	// Evictions counts OSU lines written out toward the memory system.
	Evictions uint64 `metric:"evictions"`
	// CompressorHits/Misses count eviction-side pattern matches;
	// CompressorBitChecks counts preload-side bit-vector probes and
	// CompressorCacheOps internal compressed-line cache accesses.
	CompressorHits      uint64 `metric:"compressor_hits"`
	CompressorMisses    uint64 `metric:"compressor_misses"`
	CompressorBitChecks uint64 `metric:"compressor_bit_checks"`
	CompressorCacheOps  uint64 `metric:"compressor_cache_ops"`
	// CacheInvalidations counts invalidation annotations executed.
	CacheInvalidations uint64 `metric:"cache_invalidations"`
	// MetaInsns counts metadata instruction issue slots consumed.
	MetaInsns uint64 `metric:"meta_insns"`
	// StallCycles counts cycles a warp wanted to issue but the provider
	// refused (waiting for staging).
	StallCycles uint64 `metric:"stall_cycles"`

	// L1 traffic split for Figure 18 (RegLess): reads issued for
	// preloads (including compressed-line fetches), writes issued for
	// evictions, and invalidation operations.
	L1PreloadReads uint64 `metric:"l1_preload_reads"`
	L1StoreWrites  uint64 `metric:"l1_store_writes"`
	L1Invalidates  uint64 `metric:"l1_invalidates"`

	// RFH access split across the hierarchy levels.
	LRFAccesses uint64 `metric:"lrf_accesses"`
	ORFAccesses uint64 `metric:"orf_accesses"`
	MRFAccesses uint64 `metric:"mrf_accesses"`

	// RegionActivations and RegionCycles accumulate dynamic region
	// statistics (Table 2's cycles/region) for schemes that track
	// regions.
	RegionActivations uint64 `metric:"region_activations"`
	RegionCycles      uint64 `metric:"region_cycles"`
}

// Preloads returns the total preload count across sources.
func (s *ProviderStats) Preloads() uint64 {
	return s.PreloadFromOSU + s.PreloadFromCompressor + s.PreloadFromL1 + s.PreloadFromL2DRAM
}

// HotPathHints devirtualizes the per-cycle provider dispatch: the provider
// set is closed (baseline/RFV/RFH/RegLess), and the three RF-style
// providers have no-op Tick/OnWriteback — so the SM skips those interface
// calls entirely on its hot path instead of paying a dynamic dispatch per
// cycle and per writeback. Hints are capability declarations, not tuning
// knobs: set a field only when the corresponding method is a provable
// no-op for the provider's whole lifetime.
type HotPathHints struct {
	// PassiveTick: Tick is a no-op (no internal machinery to advance).
	PassiveTick bool
	// PassiveWriteback: OnWriteback is a no-op.
	PassiveWriteback bool
}

// HintedProvider is an optional Provider refinement publishing hot-path
// hints; providers that do not implement it get the all-false (fully
// virtual) treatment.
type HintedProvider interface {
	HotHints() HotPathHints
}

// TickIdler is an optional Provider refinement for the cycle-skip
// fast-forward: TickIdle reports that, with the rest of the machine
// frozen, the provider's Tick is a provable no-op — no queued work, no
// activation that could succeed — so skipping its Tick calls cannot
// change behavior. Providers with PassiveTick are idle by construction
// and need not implement this.
type TickIdler interface {
	TickIdle() bool
}
