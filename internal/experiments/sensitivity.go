package experiments

import (
	"fmt"

	"repro/internal/energy"
)

// Sensitivity (extension) perturbs the energy model's free constants and
// recomputes the headline results, showing the paper-shape conclusions are
// not artifacts of one calibration: RegLess's register-energy ratio moves
// little (it is dominated by the capacity ratio), while the GPU-level
// saving scales with the assumed register-file share, bracketing the
// paper's 11%.
func Sensitivity(in *inputs) (*Table, error) {
	type variant struct {
		name   string
		mutate func(*energy.Params)
	}
	variants := []variant{
		{"calibrated", func(*energy.Params) {}},
		{"RF access +50%", func(p *energy.Params) { p.RFAccessFull *= 1.5 }},
		{"RF access -33%", func(p *energy.Params) { p.RFAccessFull /= 1.5 }},
		{"RF static +50%", func(p *energy.Params) { p.RFStaticFull *= 1.5 }},
		{"GPU static +50%", func(p *energy.Params) { p.GPUStatic *= 1.5 }},
		{"GPU static -33%", func(p *energy.Params) { p.GPUStatic /= 1.5 }},
		{"memory energy x2", func(p *energy.Params) {
			p.L1Access *= 2
			p.L2Access *= 2
			p.DRAMAccess *= 2
		}},
		{"tag overhead x3", func(p *energy.Params) {
			p.TagAccess *= 3
			p.TagLookup *= 3
		}},
	}

	t := &Table{
		ID:    "sensitivity",
		Title: "Energy-model sensitivity: headline ratios under perturbed constants",
		Header: []string{"Variant", "RF energy (RegLess/base)", "GPU energy (RegLess/base)",
			"No-RF bound"},
	}
	for _, v := range variants {
		params := energy.DefaultParams()
		v.mutate(&params)
		var rfR, gpuR, bound []float64
		for _, row := range in.Runs {
			base, rgl := row[0], row[1]
			bb := energy.Compute(params, base.EnergyScheme(), base.Activity())
			rb := energy.Compute(params, rgl.EnergyScheme(), rgl.Activity())
			nb := energy.Compute(params, energy.Scheme{Kind: energy.KindNoRF}, base.Activity())
			if bb.RFTotal > 0 {
				rfR = append(rfR, rb.RFTotal/bb.RFTotal)
			}
			gpuR = append(gpuR, rb.Total/bb.Total)
			bound = append(bound, nb.Total/bb.Total)
		}
		t.AddRow(v.name, f3(GeoMean(rfR)), f3(GeoMean(gpuR)), f3(GeoMean(bound)))
	}
	t.Note(fmt.Sprintf("geomeans over %d benchmarks; simulations are shared, only the model constants change",
		len(in.Benchmarks)))
	return t, nil
}
