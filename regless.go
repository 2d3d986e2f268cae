// Package repro is a Go reproduction of "RegLess: Just-in-Time Operand
// Staging for GPUs" (Kloosterman et al., MICRO 2017): a cycle-level GPU
// streaming-multiprocessor simulator whose register file is replaced by
// compiler-managed operand staging units, together with the baseline
// register file, RFV, and RFH comparison schemes, an energy/area model,
// and runners for every table and figure in the paper's evaluation.
//
// This package is the public API; the implementation lives under
// internal/. Three layers are exposed:
//
//   - Kernels: the 21 Rodinia-analogue benchmarks and a builder for
//     custom kernels (NewKernelBuilder).
//   - CompileKernel: the RegLess compiler — region creation, register
//     classification, annotations, and metadata cost.
//   - Simulate / NewExperimentSuite: cycle-level simulation under a
//     chosen register scheme, and the paper's experiments.
//
// See examples/ for runnable demonstrations.
package repro

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/metadata"
	"repro/internal/regalloc"
	"repro/internal/regions"
	"repro/internal/sim"
)

// Kernel is a compiled GPU kernel (a control-flow graph of SASS-like
// instructions over architectural registers).
type Kernel = isa.Kernel

// KernelBuilder assembles custom kernels; see isa.Builder's methods.
type KernelBuilder = isa.Builder

// NewKernelBuilder starts a kernel with the given name and CTA size in
// warps. Registers returned by builder methods are virtual; pass the
// finished kernel to AllocateRegisters before compiling or simulating.
func NewKernelBuilder(name string, warpsPerCTA int) *KernelBuilder {
	return isa.NewBuilder(name, warpsPerCTA)
}

// AllocateRegisters maps a built kernel's virtual registers onto a compact
// architectural set (the ptxas stage).
func AllocateRegisters(k *Kernel) (*Kernel, error) {
	res, err := regalloc.Allocate(k)
	if err != nil {
		return nil, err
	}
	return res.Kernel, nil
}

// ParseKernelAsm assembles a kernel from the textual format documented in
// internal/asm (registers are architectural; no allocation needed).
func ParseKernelAsm(src string) (*Kernel, error) { return asm.Parse(src) }

// FormatKernelAsm renders a kernel in the textual assembly format; the
// output parses back to an identical kernel.
func FormatKernelAsm(k *Kernel) string { return asm.Format(k) }

// Benchmarks lists the 21 Rodinia-analogue benchmark names.
func Benchmarks() []string { return kernels.Names() }

// LoadBenchmark returns a ready-to-run (register-allocated) suite kernel.
func LoadBenchmark(name string) (*Kernel, error) { return kernels.Load(name) }

// CompilerConfig bounds region creation to the OSU geometry.
type CompilerConfig = regions.Config

// DefaultCompilerConfig matches the paper's 512-register design point.
func DefaultCompilerConfig() CompilerConfig { return regions.DefaultConfig() }

// Compiled is the RegLess compiler's output: regions with capacity and
// lifetime annotations.
type Compiled = regions.Compiled

// RegionSummary aggregates per-region statistics (Figure 19 / Table 2).
type RegionSummary = regions.Summary

// CompileKernel runs the RegLess compiler (region creation, annotation,
// metadata encoding) on a register-allocated kernel.
func CompileKernel(k *Kernel, cfg CompilerConfig) (*Compiled, error) {
	c, err := regions.Compile(k, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := metadata.Apply(c); err != nil {
		return nil, err
	}
	return c, nil
}

// Scheme selects the register storage hardware for a simulation.
type Scheme string

// The available register schemes.
const (
	// Baseline is the full 2048-entry register file.
	Baseline Scheme = "baseline"
	// RFV is register file virtualization (Jeon et al.): half-size
	// renamed register file.
	RFV Scheme = "rfv"
	// RFH is the compile-time register hierarchy (Gebhart et al.).
	RFH Scheme = "rfh"
	// RegLess is the paper's operand staging unit at the capacity in
	// SimOptions.
	RegLess Scheme = "regless"
	// RegLessNoCompressor ablates the compressor (Figure 16).
	RegLessNoCompressor Scheme = "regless-nocomp"
)

// SimOptions configures one simulation.
type SimOptions struct {
	// Warps per SM (default 64, Table 1).
	Warps int
	// Capacity is the RegLess OSU size in registers per SM (default
	// 512, the paper's design point). Ignored for other schemes.
	Capacity int
	// TwoLevelScheduler selects the two-level warp scheduler instead of
	// GTO (RFV and RFH default to it, as in the paper).
	TwoLevelScheduler bool
	// MaxCycles bounds the simulation (0 = generous default).
	MaxCycles uint64
}

func (o *SimOptions) fill() {
	if o.Warps == 0 {
		o.Warps = 64
	}
	if o.Capacity == 0 {
		o.Capacity = 512
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 60_000_000
	}
}

// SimResult is one simulation's outcome.
type SimResult struct {
	// Cycles and Instructions summarize the run; IPC is their ratio.
	Cycles       uint64
	Instructions uint64
	IPC          float64

	// Stats and Provider expose every simulator counter.
	Stats    *sim.Stats
	Provider sim.ProviderStats

	// Energy is the modelled energy breakdown for this run.
	Energy energy.Breakdown

	// Compiled is the RegLess compiler output (nil for other schemes).
	Compiled *Compiled
}

// Simulate runs kernel k under the given scheme and returns the measured
// statistics with the energy model applied. The simulation is functionally
// exact: register values, divergence, and memory addresses are computed,
// and RegLess is architecturally transparent.
func Simulate(k *Kernel, scheme Scheme, opts SimOptions) (*SimResult, error) {
	opts.fill()
	r, err := experiments.SimulateKernel(k, experiments.Scheme(scheme),
		experiments.SimSetup{Capacity: opts.Capacity, Warps: opts.Warps, MaxCycles: opts.MaxCycles},
		func(c *sim.Config, _ *core.Config) {
			if opts.TwoLevelScheduler {
				c.Sched = sim.SchedTwoLevel
			}
		})
	if err != nil {
		return nil, err
	}
	res := &SimResult{
		Cycles:       r.Stats.Cycles,
		Instructions: r.Stats.DynInsns,
		IPC:          r.Stats.IPC(),
		Stats:        r.Stats,
		Provider:     r.Prov,
		Energy:       energy.Compute(energy.DefaultParams(), r.EnergyScheme(), r.Activity()),
		Compiled:     r.Compiled,
	}
	return res, nil
}

// ExperimentTable is one regenerated paper table/figure.
type ExperimentTable = experiments.Table

// ExperimentSuite memoizes simulations across experiment runners.
type ExperimentSuite = experiments.Suite

// NewExperimentSuite builds a full-scale experiment suite (64 warps, all
// 21 benchmarks); shrink via the returned suite's Opts before first use.
func NewExperimentSuite() *ExperimentSuite {
	return experiments.NewSuite(experiments.Default())
}

// RunExperiment regenerates one table by ID, any that
// experiments.Experiments() registers: a paper table or figure ("table1",
// "fig16", ...), the claims table ("claims") or an extension ("gpuscale",
// ...).
func RunExperiment(s *ExperimentSuite, id string) (*ExperimentTable, error) {
	fn, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("repro: unknown experiment %q", id)
	}
	return fn(s)
}

// RunAllExperiments regenerates every table and figure in paper order.
func RunAllExperiments(s *ExperimentSuite) ([]*ExperimentTable, error) {
	return experiments.All(s)
}
