package experiments

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Capacities is the OSU sweep of Figures 11-13 (registers per SM).
var Capacities = []int{128, 192, 256, 384, 512, 1024, 2048}

// DefaultCapacity is the paper's chosen design point (§6.2).
const DefaultCapacity = 512

// ModelEpoch names the model a result comes from — the compiler passes
// and the timing model — in serve's store keys. A change that moves a
// result bumps it: the goldens' -update will not re-bless moved results
// under the epoch they were blessed at.
const ModelEpoch = 0

// Table1 prints the simulation parameters (paper Table 1).
func Table1(in *inputs) (*Table, error) {
	c := sim.DefaultConfig()
	t := &Table{ID: "table1", Title: "Simulation parameters", Header: []string{"Parameter", "Value"}}
	// The two rows the L2 level (chosen by SM count in Assemble) changes.
	smsRow := "1 (paper: 16; all RegLess mechanisms are per-SM)"
	memRow := fmt.Sprintf("512KB L2 slice, DRAM %d cycles, 1 line per %d cycles",
		c.Mem.DRAMLatency, c.Mem.DRAMCyclesPerLine)
	if in.Opts.SMs > 1 {
		l2 := mem.DefaultBankedL2Config()
		smsRow = fmt.Sprintf("%d, lockstep, shared banked L2 (paper: 16)", in.Opts.SMs)
		memRow = fmt.Sprintf(
			"2MB L2 (%d banks x %d sets x %d ways), %d MSHRs/bank, DRAM %d cycles, 1 line per %d cycles",
			l2.Banks, l2.SetsPerBank, l2.Ways, l2.MSHRsPerBank, l2.DRAMLatency, l2.DRAMCyclesPerLine)
	}
	t.AddRow("SMs simulated", smsRow)
	t.AddRow("Warps per SM", fmt.Sprintf("%d", in.Opts.Warps))
	t.AddRow("Warp schedulers", fmt.Sprintf("%d, GTO", c.Schedulers))
	t.AddRow("L1 cache", "48KB (64 sets x 6 ways x 128B), 32 MSHRs, data accesses bypassed")
	t.AddRow("L1 bandwidth", "one request per cycle")
	t.AddRow("Memory system", memRow)
	t.AddRow("Compressor", "one op per cycle, 12 lines per shard (48 per SM)")
	t.AddRow("OSU (chosen point)", "512 registers/SM = 4 shards x 8 banks x 16 lines")
	return t, nil
}

// Fig2 measures the average register working set per 100-cycle window
// under GTO and the two-level scheduler (paper Figure 2).
func Fig2(in *inputs) (*Table, error) {
	t := &Table{
		ID:     "fig2",
		Title:  "Average register working set per 100-cycle window (KB)",
		Header: []string{"Benchmark", "GTO", "2-Level"},
	}
	gto, two := in.column(0, workingSet), in.column(1, workingSet)
	for i, bench := range in.Benchmarks {
		t.AddRow(bench, f1(gto[i]), f1(two[i]))
	}
	t.AddRow("MEAN", f1(mean(gto)), f1(mean(two)))
	t.Note("paper: both schedulers touch ≤10%% of the 256KB/SM file per window; 2-level below GTO")
	return t, nil
}

// Fig3 samples backing-store accesses per 100-cycle window during
// hotspot's steady state for baseline, RFH, and RegLess (paper Figure 3).
func Fig3(in *inputs) (*Table, error) {
	base, rfh, rgl := in.Runs[0][0], in.Runs[0][1], in.Runs[0][2]
	t := &Table{
		ID:     "fig3",
		Title:  "hotspot: backing-store accesses per 100-cycle window",
		Header: []string{"Window", "Baseline RF", "RFH (main RF)", "RegLess (L1)"},
	}
	get := func(sr []uint64, i int) string {
		if i < len(sr) {
			return fmt.Sprintf("%d", sr[i])
		}
		return "-"
	}
	n := len(base.Stats.BackingSeries)
	if m := len(rfh.Stats.BackingSeries); m > n {
		n = m
	}
	if m := len(rgl.Stats.BackingSeries); m > n {
		n = m
	}
	// Sample up to 20 windows from the steady state (skip warm-up).
	start := n / 4
	end := start + 20
	if end > n {
		end = n
	}
	for i := start; i < end; i++ {
		t.AddRow(fmt.Sprintf("%d", i), get(base.Stats.BackingSeries, i),
			get(rfh.Stats.BackingSeries, i), get(rgl.Stats.BackingSeries, i))
	}
	t.AddRow("AVG(all)", f1(backingPerWindow(base)), f1(backingPerWindow(rfh)), f1(backingPerWindow(rgl)))
	t.Note("paper: baseline ~600, RFH well below, RegLess near zero")
	return t, nil
}

// Fig5 plots the live-register count per static instruction for a portion
// of particle_filter (paper Figure 5).
func Fig5(*inputs) (*Table, error) {
	k, err := kernels.Load("particle_filter")
	if err != nil {
		return nil, err
	}
	_, lv := cfg.For(k)
	counts := lv.LiveCounts()
	t := &Table{
		ID:     "fig5",
		Title:  "particle_filter: live registers per static instruction",
		Header: []string{"Instruction", "Live registers"},
	}
	limit := len(counts)
	if limit > 40 {
		limit = 40
	}
	min, max := counts[0], counts[0]
	for i := 0; i < limit; i++ {
		t.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%d", counts[i]))
	}
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	t.Note("range %d..%d; low points are the natural region seams (§4.1)", min, max)
	return t, nil
}

// Fig11 reports area versus OSU capacity (paper Figure 11), normalized to
// the 2048-entry baseline register file.
func Fig11(*inputs) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "Area for RegLess configurations (normalized to baseline RF)",
		Header: []string{"Capacity", "Logic", "Storage", "Compressor", "Total"},
	}
	for _, cap := range Capacities {
		a := energy.Area(energy.Scheme{Kind: energy.KindRegLess, Entries: cap, Compressor: true}, BaselineEntries)
		t.AddRow(fmt.Sprintf("%d", cap), f3(a.Logic), f3(a.Storage), f3(a.Compressor), f3(a.Total()))
	}
	base := energy.Area(energy.Scheme{Kind: energy.KindBaseline, Entries: BaselineEntries}, BaselineEntries)
	t.AddRow("baseline", f3(base.Logic), f3(base.Storage), "0.000", f3(base.Total()))
	return t, nil
}

// Fig12 reports combined static and average dynamic power versus capacity
// (paper Figure 12), normalized to the baseline RF, using the measured
// suite-average OSU access rate.
func Fig12(in *inputs) (*Table, error) {
	// Measure accesses/cycle at the chosen design point.
	var acc, cyc float64
	for _, row := range in.Runs {
		r := row[0]
		acc += float64(r.Prov.StructReads + r.Prov.StructWrites)
		cyc += float64(r.Stats.Cycles)
	}
	rate := acc / cyc
	t := &Table{
		ID:     "fig12",
		Title:  "Combined static + dynamic power (normalized to baseline RF)",
		Header: []string{"Capacity", "OSU", "Compressor", "Total"},
	}
	for _, cap := range Capacities {
		osuP := energy.Power(in.Params, energy.Scheme{Kind: energy.KindRegLess, Entries: cap}, rate)
		full := energy.Power(in.Params, energy.Scheme{Kind: energy.KindRegLess, Entries: cap, Compressor: true}, rate)
		t.AddRow(fmt.Sprintf("%d", cap), f3(osuP), f3(full-osuP), f3(full))
	}
	t.Note("measured OSU access rate: %.2f accesses/cycle", rate)
	return t, nil
}

// fig13Capacities is Figure 13's sweep: the figure reads the baseline and
// RegLess at each of these.
var fig13Capacities = []int{128, 192, 256, 384, 512, 1024}

// Fig13 sweeps run time versus GPU energy across OSU capacities (paper
// Figure 13).
func Fig13(in *inputs) (*Table, error) {
	t := &Table{
		ID:     "fig13",
		Title:  "Run time vs GPU energy across OSU capacities (normalized to baseline)",
		Header: []string{"Capacity", "Run time (geomean)", "GPU energy (geomean)", "Worst-case run time"},
	}
	for j, cap := range fig13Capacities {
		times := in.ratios(1+j, cycles)
		t.AddRow(fmt.Sprintf("%d", cap), f3(GeoMean(times)), f3(GeoMean(in.ratios(1+j, in.gpuEnergy))),
			f3(slices.Max(times)))
	}
	t.Note("paper: small capacities are energy-Pareto-optimal; 512 chosen for no average performance loss")
	return t, nil
}

// Fig14 reports register-structure energy per benchmark for RFH, RFV, and
// RegLess, normalized to the baseline RF (paper Figure 14).
func Fig14(in *inputs) (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "Register file energy (normalized to baseline)",
		Header: []string{"Benchmark", "RFH", "RFV", "RegLess"},
	}
	t.addGeoMeanRows(in.Benchmarks, in.ratios(1, in.rfEnergy), in.ratios(2, in.rfEnergy), in.ratios(3, in.rfEnergy))
	t.Note("paper: RFH 0.380, RFV 0.548, RegLess 0.247 (savings 62.0%%, 45.2%%, 75.3%%)")
	return t, nil
}

// Fig15 reports total GPU energy per benchmark including the No-RF upper
// bound (paper Figure 15).
func Fig15(in *inputs) (*Table, error) {
	t := &Table{
		ID:     "fig15",
		Title:  "Total GPU energy (normalized to baseline)",
		Header: []string{"Benchmark", "No RF", "RFH", "RFV", "RegLess"},
	}
	t.addGeoMeanRows(in.Benchmarks, in.column(0, in.noRFBound),
		in.ratios(1, in.gpuEnergy), in.ratios(2, in.gpuEnergy), in.ratios(3, in.gpuEnergy))
	t.Note("paper: No-RF bound 0.833 (16.7%% saving); RegLess 0.89 (11%%), RFV 0.963, RFH 0.971")
	return t, nil
}

// Fig16 reports normalized run time per benchmark for RegLess, with
// geomeans for the no-compressor ablation, RFV, and RFH (paper Figure 16).
func Fig16(in *inputs) (*Table, error) {
	t := &Table{
		ID:     "fig16",
		Title:  "Run time (normalized to baseline; lower is better)",
		Header: []string{"Benchmark", "RegLess"},
	}
	t.addGeoMeanRows(in.Benchmarks, in.ratios(1, cycles))
	t.AddRow("GEOMEAN no-compressor", f3(GeoMean(in.ratios(2, cycles))))
	t.AddRow("GEOMEAN RFV", f3(GeoMean(in.ratios(3, cycles))))
	t.AddRow("GEOMEAN RFH", f3(GeoMean(in.ratios(4, cycles))))
	t.Note("paper: RegLess geomean 1.00; no-compressor +10.2%%; RFV/RFH slower (2-level scheduler)")
	return t, nil
}

// Fig17 breaks down where register preloads were served from (paper
// Figure 17).
func Fig17(in *inputs) (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "Register preload sources",
		Header: []string{"Benchmark", "OSU", "Compressor", "L1", "L2/DRAM"},
	}
	sources := func(label string, p sim.ProviderStats) {
		n := float64(p.Preloads())
		if n == 0 {
			t.AddRow(label, "-", "-", "-", "-")
			return
		}
		t.AddRow(label, pct(float64(p.PreloadFromOSU)/n), pct(float64(p.PreloadFromCompressor)/n),
			pct(float64(p.PreloadFromL1)/n), pct(float64(p.PreloadFromL2DRAM)/n))
	}
	for i, bench := range in.Benchmarks {
		sources(bench, in.Runs[i][0].Prov)
	}
	if all := in.preloads(0); all.Preloads() > 0 {
		sources("MEAN", all)
	}
	t.Note("paper: 0.9%% of preloads from L1, 0.013%% from L2/DRAM")
	return t, nil
}

// Fig18 reports RegLess's average L1 requests per cycle, split by type
// (paper Figure 18).
func Fig18(in *inputs) (*Table, error) {
	t := &Table{
		ID:     "fig18",
		Title:  "RegLess L1 requests per cycle",
		Header: []string{"Benchmark", "Preloads", "Stores", "Invalidations", "Total"},
	}
	for i, bench := range in.Benchmarks {
		pre, st, inv := l1Requests(in.Runs[i][0])
		t.AddRow(bench, fmt.Sprintf("%.4f", pre), fmt.Sprintf("%.4f", st),
			fmt.Sprintf("%.4f", inv), fmt.Sprintf("%.4f", pre+st+inv))
	}
	t.AddRow("MEAN", "", "", "", fmt.Sprintf("%.4f", mean(in.column(0, l1Total))))
	t.Note("paper: fewer than 0.02 requests/cycle on average (budget: 1)")
	return t, nil
}

// Fig19 reports per-region preloads and concurrent live registers (paper
// Figure 19).
func Fig19(in *inputs) (*Table, error) {
	t := &Table{
		ID:     "fig19",
		Title:  "Registers per region: preloads, mean and std of concurrent live",
		Header: []string{"Benchmark", "Preloads", "Mean live", "Std dev"},
	}
	for i, bench := range in.Benchmarks {
		r := in.Runs[i][0]
		_, preloads, meanLive, stdLive := r.Compiled.DynamicStats(r.RegionActivations)
		t.AddRow(bench, f1(preloads), f1(meanLive), f1(stdLive))
	}
	t.Note("execution-weighted, as in the paper; live registers consistently exceed preloads — most lifetimes are interior")
	return t, nil
}

// Table2 reports static instructions per region and dynamic cycles per
// region (paper Table 2).
func Table2(in *inputs) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Average instructions per region and cycles per region",
		Header: []string{"Benchmark", "Insns/region", "Cycles/region"},
	}
	for i, bench := range in.Benchmarks {
		r := in.Runs[i][0]
		insns, _, _, _ := r.Compiled.DynamicStats(r.RegionActivations)
		cpr := 0.0
		if r.Prov.RegionActivations > 0 {
			cpr = float64(r.Prov.RegionCycles) / float64(r.Prov.RegionActivations)
		}
		t.AddRow(bench, f1(insns), f1(cpr))
	}
	t.Note("paper range: 3.3-16.0 insns/region, 16-1601 cycles/region")
	return t, nil
}

// column returns f of column j's run, benchmark by benchmark.
func (in *inputs) column(j int, f func(*Run) float64) []float64 {
	xs := make([]float64, len(in.Runs))
	for i, row := range in.Runs {
		xs[i] = f(row[j])
	}
	return xs
}

// ratios returns, benchmark by benchmark, f of column j's run over f of
// the baseline's (column 0): what Figures 13-16 normalize.
func (in *inputs) ratios(j int, f func(*Run) float64) []float64 {
	xs := in.column(j, f)
	for i, row := range in.Runs {
		xs[i] /= f(row[0])
	}
	return xs
}

// preloads sums column j's preloads by source (Figure 17's MEAN row).
func (in *inputs) preloads(j int) sim.ProviderStats {
	var all sim.ProviderStats
	for _, row := range in.Runs {
		p := &row[j].Prov
		all.PreloadFromOSU += p.PreloadFromOSU
		all.PreloadFromCompressor += p.PreloadFromCompressor
		all.PreloadFromL1 += p.PreloadFromL1
		all.PreloadFromL2DRAM += p.PreloadFromL2DRAM
	}
	return all
}

// mean is the arithmetic mean of xs.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// What the figures read of one run: run time, register working set
// (Figure 2), backing-store accesses per 100-cycle window (Figure 3),
// register-structure and GPU energy (Figures 14 and 15), the No-RF bound
// as a share of GPU energy (Figure 15), and L1 requests per cycle
// (Figure 18).
func cycles(r *Run) float64     { return float64(r.Stats.Cycles) }
func workingSet(r *Run) float64 { return r.Stats.WorkingSetKB }

func backingPerWindow(r *Run) float64 {
	sr := r.Stats.BackingSeries
	if len(sr) == 0 {
		return 0
	}
	var sum uint64
	for _, x := range sr {
		sum += x
	}
	return float64(sum) / float64(len(sr))
}

func (in *inputs) rfEnergy(r *Run) float64 {
	return energy.Compute(in.Params, r.EnergyScheme(), r.Activity()).RFTotal
}

func (in *inputs) gpuEnergy(r *Run) float64 {
	return energy.Compute(in.Params, r.EnergyScheme(), r.Activity()).Total
}

func (in *inputs) noRFBound(r *Run) float64 {
	return energy.Compute(in.Params, energy.Scheme{Kind: energy.KindNoRF}, r.Activity()).Total / in.gpuEnergy(r)
}

func l1Requests(r *Run) (pre, st, inv float64) {
	cyc := float64(r.Stats.Cycles)
	return float64(r.Prov.L1PreloadReads) / cyc, float64(r.Prov.L1StoreWrites) / cyc, float64(r.Prov.L1Invalidates) / cyc
}

func l1Total(r *Run) float64 {
	pre, st, inv := l1Requests(r)
	return pre + st + inv
}
