package experiments

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/launch"
	"repro/internal/mem"
	"repro/internal/sim"
)

// gpuScaleSMs is the chip sizes the scaling table sweeps (the GTX 980
// tops out at 16).
var gpuScaleSMs = []int{1, 4, 8, 16}

// GPUScale (extension beyond the paper's per-SM evaluation) is the
// strong-scaling table: a fixed grid of 16 x Warps warps — the 16-SM
// chip's single occupancy wave — is distributed across 1/4/8/16 SMs by
// the launch block scheduler, every configuration contending for the
// same banked 2 MB L2 and DRAM budget. Fewer SMs run the same work in
// more sequential waves; more SMs trade waves for bank-port, MSHR, and
// DRAM-bandwidth contention. The table reports where RegLess's staging
// traffic makes that trade differently from the baseline RF.
func GPUScale(s *Suite) (*Table, error) {
	t := &Table{
		ID:    "gpuscale",
		Title: "Multi-SM strong scaling: RegLess vs baseline on the banked L2 chip",
		Header: []string{"Benchmark", "SMs", "Baseline cycles", "RegLess cycles",
			"Run time", "L2 hit% (base/rgls)", "DRAM (base/rgls)", "Port-q cyc (base/rgls)"},
	}
	benches := s.benchmarks()
	if s.Opts.SMs <= 1 && len(benches) > 6 {
		// The full 21-benchmark sweep is the -sms mode's job; the default
		// one-SM invocation keeps the extension table affordable.
		benches = benches[:6]
	}
	totalWarps := 16 * s.Opts.Warps
	type cell struct {
		base, rgls *launch.GridResult
	}
	cells := make([]cell, len(benches)*len(gpuScaleSMs))
	err := s.forEach(2*len(cells), func(i int) error {
		ci := i / 2
		bench := benches[ci/len(gpuScaleSMs)]
		sms := gpuScaleSMs[ci%len(gpuScaleSMs)]
		k, err := kernels.Load(bench)
		if err != nil {
			return err
		}
		scheme, dst := SchemeBaseline, &cells[ci].base
		if i%2 == 1 {
			scheme, dst = SchemeRegLess, &cells[ci].rgls
		}
		res, err := runGrid(s, k, scheme, totalWarps, sms)
		if err != nil {
			return fmt.Errorf("%s/%d SMs %s: %w", bench, sms, scheme, err)
		}
		*dst = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	hitPct := func(st mem.BankedL2Stats) float64 {
		if st.Hits+st.Misses == 0 {
			return 0
		}
		return 100 * float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	for ci, c := range cells {
		bench := benches[ci/len(gpuScaleSMs)]
		sms := gpuScaleSMs[ci%len(gpuScaleSMs)]
		t.AddRow(bench, fmt.Sprintf("%d", sms),
			fmt.Sprintf("%d", c.base.Cycles), fmt.Sprintf("%d", c.rgls.Cycles),
			f3(float64(c.rgls.Cycles)/float64(c.base.Cycles)),
			fmt.Sprintf("%.1f/%.1f", hitPct(c.base.L2), hitPct(c.rgls.L2)),
			fmt.Sprintf("%d/%d", c.base.L2.DRAMAccesses, c.rgls.L2.DRAMAccesses),
			fmt.Sprintf("%d/%d", c.base.L2.PortQueueCycles, c.rgls.L2.PortQueueCycles))
	}
	t.Note("extension: fixed grid of 16xWarps warps, waves x SMs swept; contention = bank ports + MSHRs + DRAM budget")
	return t, nil
}

// runGrid launches the fixed grid on an sms-SM chip at suite scale.
func runGrid(s *Suite, k *isa.Kernel, scheme Scheme, totalWarps, sms int) (*launch.GridResult, error) {
	cfg := sim.DefaultConfig()
	cfg.Warps = s.Opts.Warps
	cfg.MaxCycles = s.Opts.MaxCycles
	cfg.NoFastForward = s.Opts.NoFastForward
	mk, _, err := SchemeProvider(scheme, DefaultCapacity, &cfg)
	if err != nil {
		return nil, err
	}
	return launch.RunGrid(k, totalWarps, s.Opts.Warps, sms, cfg, mem.DefaultBankedL2Config(),
		func(sm, wave int) (sim.Provider, error) { return mk(sm, k) }, nil)
}
