package sim

import (
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/sanitizer"
)

// A register scheme meets the SM in one of the paper's two shapes, and
// the SM resolves which once, at construction.
//
// Provider is a register file that always has the operands: the baseline
// register file, RFV (register file virtualization, Jeon et al.) and RFH
// (the compile-time register hierarchy, Gebhart et al.). The SM tells it
// of issues and warp completion and it counts what they cost; it has no
// machinery of its own, never gates issue and is always drained.
type Provider interface {
	// Name identifies the scheme in reports.
	Name() string
	// Attach binds the provider to the SM before simulation starts; the
	// provider counts its events into sm.Prov from then on. A non-nil
	// error (kernel mismatch, shard/scheduler disagreement) aborts
	// construction instead of crashing mid-run.
	Attach(sm *SM) error
	// OnIssue is called when w issues; info is the executed instruction.
	// The returned penalty is added as issue-stall cycles (operand bank
	// conflicts, spill refills, metadata instruction slots).
	OnIssue(w *Warp, info *exec.StepInfo) int
	// OnWarpFinish is called when a warp exits.
	OnWarpFinish(w *Warp)
}

// Stager is a per-shard staging unit (RegLess): machinery that runs every
// cycle and a capacity manager that raises one Active wire per warp, the
// only warps the scheduler may pick (§5.1).
type Stager interface {
	Provider
	// Tick advances the staging machinery by one cycle (called after the
	// memory hierarchy tick, before instruction issue).
	Tick()
	// TickIdle reports that, with the rest of the machine frozen, Tick is
	// a provable no-op — no queued work, no activation that could succeed
	// — so the cycle-skip fast-forward may skip its calls.
	TickIdle() bool
	// OnWriteback is called when a destination write completes.
	OnWriteback(w *Warp, reg isa.Reg)
	// Drained reports whether no staging work is outstanding.
	Drained() bool
	// IssueMask returns scheduler group g's words of the Active wires:
	// bit p set means the warp at position p of the group (warp
	// g + p*Schedulers) may issue as far as its registers are concerned.
	// The SM fetches the slices once, after Attach, and reads them every
	// pick, so they must alias storage kept current for the whole run.
	// Refusals are counted by the SM, by popcount below the pick, into
	// Stats.IssueStalls and Prov.StallCycles.
	IssueMask(g int) []uint64
	// CanIssueQuiet is the per-warp definition of w's mask bit, free of
	// side effects: stall attribution classifies with it, and the
	// sanitizer and the test oracle hold the mask to it.
	CanIssueQuiet(w *Warp) bool
	// AttachRecorder forwards the event recorder into the staging
	// machinery (CM/OSU/compressor), so those layers emit their own
	// events; nil detaches.
	AttachRecorder(r *events.Recorder)
	// AttachSanitizer registers the staging machinery's own invariant
	// checks (OSU partition, CM reservations and transitions).
	AttachSanitizer(s *sanitizer.Sanitizer)
	// SetFaults hands over the injector for faults hosted in the staging
	// machinery (corrupted OSU tags, flipped compressor patterns,
	// mis-annotated region metadata).
	SetFaults(in *faults.Injector)
	// WarpDiag returns warp w's capacity state name and current region
	// (region -1 when none), for diagnostic bundles.
	WarpDiag(w int) (state string, region int)
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
