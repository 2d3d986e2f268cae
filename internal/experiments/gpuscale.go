package experiments

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
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
func GPUScale(in *inputs) (*Table, error) {
	t := &Table{
		ID:    "gpuscale",
		Title: "Multi-SM strong scaling: RegLess vs baseline on the banked L2 chip",
		Header: []string{"Benchmark", "SMs", "Baseline cycles", "RegLess cycles",
			"Run time", "L2 hit% (base/rgls)", "DRAM (base/rgls)", "Port-q cyc (base/rgls)"},
	}
	benches := in.Benchmarks
	if in.Opts.SMs <= 1 && len(benches) > 6 {
		// The full 21-benchmark sweep is the -sms mode's job; the default
		// one-SM invocation keeps the extension table affordable.
		benches = benches[:6]
	}
	totalWarps := 16 * in.Opts.Warps
	// One grid launch: its sequence and the cumulative traffic of the
	// banked L2 its waves shared. Cell 2i is point i's baseline, 2i+1 its
	// RegLess run.
	type cell struct {
		*LaunchResult
		l2 mem.BankedL2Stats
	}
	cells := make([]cell, 2*len(benches)*len(gpuScaleSMs))
	point := func(i int) (string, int) {
		return benches[i/2/len(gpuScaleSMs)], gpuScaleSMs[i/2%len(gpuScaleSMs)]
	}
	err := in.Opts.forEach(len(cells), func(i int) error {
		bench, sms := point(i)
		k, err := kernels.Load(bench)
		if err != nil {
			return err
		}
		scheme := []Scheme{SchemeBaseline, SchemeRegLess}[i%2]
		// Every wave runs on the one banked L2, whatever the SM count:
		// its contents stay warm across waves (a later wave reuses lines
		// an earlier wave staged) while its timing restarts with each
		// wave's clocks.
		su := in.Opts.Setup(DefaultCapacity)
		if su.L2, err = mem.NewBankedL2(mem.DefaultBankedL2Config()); err != nil {
			return err
		}
		res, err := Launch([]*isa.Kernel{k}, scheme, sms, totalWarps, su)
		if err != nil {
			return fmt.Errorf("%s/%d SMs %s: %w", bench, sms, scheme, err)
		}
		cells[i] = cell{res, su.L2.Stats}
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
	for i := 0; i < len(cells); i += 2 {
		bench, sms := point(i)
		base, rgls := cells[i], cells[i+1]
		t.AddRow(bench, fmt.Sprintf("%d", sms),
			fmt.Sprintf("%d", base.Cycles), fmt.Sprintf("%d", rgls.Cycles),
			f3(float64(rgls.Cycles)/float64(base.Cycles)),
			fmt.Sprintf("%.1f/%.1f", hitPct(base.l2), hitPct(rgls.l2)),
			fmt.Sprintf("%d/%d", base.l2.DRAMAccesses, rgls.l2.DRAMAccesses),
			fmt.Sprintf("%d/%d", base.l2.PortQueueCycles, rgls.l2.PortQueueCycles))
	}
	t.Note("extension: fixed grid of 16xWarps warps, waves x SMs swept; contention = bank ports + MSHRs + DRAM budget")
	return t, nil
}
