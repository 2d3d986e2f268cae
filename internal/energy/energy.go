// Package energy is the analytical power/area model standing in for the
// paper's placed-and-routed Verilog + GPUWattch flow (§6.1-6.2). Absolute
// pJ values are unobtainable without the EDA tools, so the model is built
// for *relative* results — every figure in the paper normalizes to the
// baseline register file or baseline GPU.
//
// # Calibration
//
// Free constants (Params) are set so that, with the measured activity of
// our simulator on the Rodinia-analogue suite:
//
//   - the baseline register file accounts for ~16.7% of total GPU energy —
//     the paper's "No RF" upper bound (Figure 15);
//   - dynamic access energy for an N-entry SRAM operand structure scales
//     linearly with capacity (bitline/wordline length) plus a per-access
//     tag/arbitration adder for tagged structures, which reproduces the
//     paper's observation that RegLess structures cost "slightly more
//     energy and power than the baseline register file scaled to their
//     capacity" (§6.2);
//   - static power scales with capacity.
//
// A calibration test asserts the 16.7% property against live simulation.
package energy

import (
	"math"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Params holds every free constant, in arbitrary consistent energy units
// (one unit ≈ 1 pJ at the calibration point).
type Params struct {
	// RFAccessFull is the dynamic energy of one 128-byte access to the
	// full 2048-entry register file.
	RFAccessFull float64
	// RFEntriesFull is the baseline capacity the access energy is
	// quoted at.
	RFEntriesFull int
	// TagAccess is the adder per access to a tagged structure (OSU).
	TagAccess float64
	// TagLookup is a standalone tag-array probe (preload checks).
	TagLookup float64
	// RFStaticFull is the full RF's static energy per cycle; scales
	// linearly with capacity.
	RFStaticFull float64

	// LRFAccess / ORFAccess are RFH's small-structure access energies;
	// RFH's MRF uses RFAccessFull. SmallStatic is the added static
	// power of RFH's buffers or RFV's rename table.
	LRFAccess   float64
	ORFAccess   float64
	SmallStatic float64

	// CompressorMatch is one pattern match; CompressorBitCheck one bit
	// vector probe; CompressorStatic per-cycle; CompressorCache one
	// internal line access.
	CompressorMatch    float64
	CompressorBitCheck float64
	CompressorStatic   float64
	CompressorCache    float64

	// InsnPipeline is all non-operand per-instruction energy (fetch,
	// decode, issue, execute, commit); metadata instructions cost
	// MetaInsnFrac of it (no execution, no operands).
	InsnPipeline float64
	MetaInsnFrac float64

	// Memory access energies.
	L1Access   float64
	L2Access   float64
	DRAMAccess float64

	// GPUStatic is the per-cycle energy of everything outside the
	// register scheme and the counted events (leakage, clocks,
	// schedulers, NoC, ...).
	GPUStatic float64
}

// DefaultParams returns the calibrated constants.
func DefaultParams() Params {
	return Params{
		RFAccessFull:       50,
		RFEntriesFull:      2048,
		TagAccess:          2.0,
		TagLookup:          1.2,
		RFStaticFull:       30,
		LRFAccess:          2.0,
		ORFAccess:          6.0,
		SmallStatic:        3.0,
		CompressorMatch:    3.0,
		CompressorBitCheck: 0.4,
		CompressorStatic:   1.0,
		CompressorCache:    4.0,
		InsnPipeline:       150,
		MetaInsnFrac:       0.25,
		L1Access:           80,
		L2Access:           250,
		DRAMAccess:         800,
		GPUStatic:          380,
	}
}

// RFAccess returns the per-access dynamic energy of an operand structure
// with the given entry count (linear capacity scaling).
func (p Params) RFAccess(entries int) float64 {
	return p.RFAccessFull * float64(entries) / float64(p.RFEntriesFull)
}

// RFStatic returns the per-cycle static energy for a structure with the
// given entry count.
func (p Params) RFStatic(entries int) float64 {
	return p.RFStaticFull * float64(entries) / float64(p.RFEntriesFull)
}

// Kind selects the register scheme being modelled.
type Kind int

const (
	// KindBaseline is the full register file.
	KindBaseline Kind = iota
	// KindRFV is register file virtualization (half-size RF + renaming).
	KindRFV
	// KindRFH is the LRF/ORF/MRF hierarchy (full MRF retained).
	KindRFH
	// KindRegLess is the operand staging unit.
	KindRegLess
	// KindNoRF is the upper bound: a register file that costs nothing.
	KindNoRF
)

// Scheme describes the hardware configuration under evaluation.
type Scheme struct {
	Kind Kind
	// Entries is the primary operand structure's capacity in registers
	// (2048 baseline, 1024 RFV, OSU size for RegLess).
	Entries int
	// Compressor marks a RegLess configuration with the compressor on.
	Compressor bool
}

// Activity is one run's counters, read where the simulator keeps them:
// the SM's statistics, its register scheme's and its memory system's.
// Compute prices Cycles and tagged counters only, so a run's energy is a
// function of what a metrics window carries (DESIGN.md §9).
type Activity struct {
	Sim  *sim.Stats
	Prov *sim.ProviderStats
	Mem  *mem.Stats
}

// Breakdown is the energy decomposition of one run.
type Breakdown struct {
	// RFDynamic + RFStatic = RFTotal: the register scheme's energy
	// (Figure 14's quantity).
	RFDynamic float64
	RFStatic  float64
	RFTotal   float64

	// InsnEnergy, MemEnergy and GPUStaticEnergy compose the rest.
	InsnEnergy      float64
	MemEnergy       float64
	GPUStaticEnergy float64

	// Total GPU energy (Figure 15's quantity).
	Total float64
}

// Compute evaluates the model. Counters priced alike are summed as
// integers before they are priced.
func Compute(p Params, s Scheme, a Activity) Breakdown {
	st, ps, ms := a.Sim, a.Prov, a.Mem
	var b Breakdown
	cyc := float64(st.Cycles)

	switch s.Kind {
	case KindBaseline:
		b.RFDynamic = float64(ps.StructReads+ps.StructWrites) * p.RFAccess(s.Entries)
		b.RFStatic = cyc * p.RFStatic(s.Entries)
	case KindRFV:
		b.RFDynamic = float64(ps.StructReads+ps.StructWrites) * p.RFAccess(s.Entries)
		b.RFStatic = cyc * (p.RFStatic(s.Entries) + p.SmallStatic)
	case KindRFH:
		b.RFDynamic = float64(ps.LRFAccesses)*p.LRFAccess +
			float64(ps.ORFAccesses)*p.ORFAccess +
			float64(ps.MRFAccesses)*p.RFAccess(p.RFEntriesFull)
		// The full-size MRF remains resident behind the buffers.
		b.RFStatic = cyc * (p.RFStatic(p.RFEntriesFull) + p.SmallStatic)
	case KindRegLess:
		access := p.RFAccess(s.Entries) + p.TagAccess
		b.RFDynamic = float64(ps.StructReads+ps.StructWrites)*access +
			float64(ps.TagLookups)*p.TagLookup
		b.RFStatic = cyc * p.RFStatic(s.Entries)
		if s.Compressor {
			b.RFDynamic += float64(ps.CompressorHits+ps.CompressorMisses)*p.CompressorMatch +
				float64(ps.CompressorBitChecks)*p.CompressorBitCheck +
				float64(ps.CompressorCacheOps)*p.CompressorCache
			b.RFStatic += cyc * p.CompressorStatic
		}
	case KindNoRF:
		// Free register file: the bound in Figure 15.
	}
	b.RFTotal = b.RFDynamic + b.RFStatic

	b.InsnEnergy = float64(st.DynInsns)*p.InsnPipeline +
		float64(ps.MetaInsns)*p.InsnPipeline*p.MetaInsnFrac
	b.MemEnergy = float64(ms.L1Reads+ms.L1Writes+ms.L1Invalidations)*p.L1Access +
		float64(ms.L2Hits+ms.L2Misses)*p.L2Access +
		float64(ms.DRAMAccesses)*p.DRAMAccess
	b.GPUStaticEnergy = cyc * p.GPUStatic
	b.Total = b.RFTotal + b.InsnEnergy + b.MemEnergy + b.GPUStaticEnergy
	return b
}

// AreaBreakdown decomposes a configuration's area (Figure 11), normalized
// externally against the baseline.
type AreaBreakdown struct {
	Storage    float64
	Logic      float64
	Compressor float64
}

// Total sums the components.
func (a AreaBreakdown) Total() float64 { return a.Storage + a.Logic + a.Compressor }

// Area parameters: the baseline 2048-entry RF is 85% storage, 15% logic
// (operand collectors, arbitration). RegLess logic (tags, per-bank decode,
// capacity managers) shrinks sub-linearly with capacity; the compressor is
// a constant adder.
const (
	areaStorageShare   = 0.85
	areaLogicShare     = 0.15
	reglessLogicScale  = 0.17
	reglessLogicExp    = 0.7
	compressorAreaFrac = 0.02
)

// Area returns a configuration's area relative to the baseline RF (= 1.0).
func Area(s Scheme, fullEntries int) AreaBreakdown {
	frac := float64(s.Entries) / float64(fullEntries)
	switch s.Kind {
	case KindBaseline, KindRFV:
		return AreaBreakdown{
			Storage: areaStorageShare * frac,
			Logic:   areaLogicShare * frac,
		}
	case KindRegLess:
		a := AreaBreakdown{
			Storage: areaStorageShare * frac,
			Logic:   reglessLogicScale * math.Pow(frac, reglessLogicExp),
		}
		if s.Compressor {
			a.Compressor = compressorAreaFrac
		}
		return a
	default:
		return AreaBreakdown{}
	}
}

// Power returns a configuration's combined static and average dynamic
// power relative to the baseline RF under the same nominal activity
// (Figure 12). The activity assumption is the suite-average access rate
// (accesses per cycle) r.
func Power(p Params, s Scheme, accessesPerCycle float64) float64 {
	basePower := p.RFStatic(p.RFEntriesFull) + accessesPerCycle*p.RFAccess(p.RFEntriesFull)
	var dyn, stat float64
	switch s.Kind {
	case KindRegLess:
		dyn = accessesPerCycle * (p.RFAccess(s.Entries) + p.TagAccess)
		stat = p.RFStatic(s.Entries)
		if s.Compressor {
			stat += p.CompressorStatic
		}
	default:
		dyn = accessesPerCycle * p.RFAccess(s.Entries)
		stat = p.RFStatic(s.Entries)
	}
	return (dyn + stat) / basePower
}
