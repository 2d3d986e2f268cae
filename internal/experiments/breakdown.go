package experiments

import (
	"repro/internal/energy"
)

// EnergyBreakdown (extension) decomposes each benchmark's baseline GPU
// energy into the model's components and shows where RegLess's savings
// come from — the per-component view behind Figures 14 and 15.
func EnergyBreakdown(in *inputs) (*Table, error) {
	t := &Table{
		ID:    "breakdown",
		Title: "GPU energy decomposition: baseline shares and RegLess deltas",
		Header: []string{"Benchmark", "RF share", "Insn share", "Mem share", "Static share",
			"RegLess RF", "RegLess total"},
	}
	for i, bench := range in.Benchmarks {
		base, rgl := in.Runs[i][0], in.Runs[i][1]
		bb := energy.Compute(in.Params, base.EnergyScheme(), base.Activity())
		rb := energy.Compute(in.Params, rgl.EnergyScheme(), rgl.Activity())
		t.AddRow(bench,
			pct(bb.RFTotal/bb.Total),
			pct(bb.InsnEnergy/bb.Total),
			pct(bb.MemEnergy/bb.Total),
			pct(bb.GPUStaticEnergy/bb.Total),
			f3(rb.RFTotal/bb.RFTotal),
			f3(rb.Total/bb.Total))
	}
	t.Note("RF share is the per-benchmark ceiling on GPU savings (the No-RF bound of Fig 15)")
	return t, nil
}
