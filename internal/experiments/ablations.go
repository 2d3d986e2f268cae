package experiments

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// AblationCapacity is where the design choices bite: small enough that the
// OSU is under pressure (the compressor and the warp stack order matter),
// large enough that nothing thrashes pathologically.
const AblationCapacity = 256

// ablationVariant is one RegLess configuration mutation.
type ablationVariant struct {
	name   string
	mutate func(*core.Config)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"regless (paper design)", func(*core.Config) {}},
		{"FIFO warp stack", func(c *core.Config) { c.FIFOStack = true }},
		{"no compressor", func(c *core.Config) { c.EnableCompressor = false }},
		{"const-only compressor", func(c *core.Config) {
			c.CompressorPatterns = compress.PatternsConstOnly
		}},
		{"full-warp-only compressor", func(c *core.Config) {
			c.CompressorPatterns = compress.PatternsFullWarpOnly
		}},
		{"no region size floor", func(c *core.Config) { c.Regions.MinRegionInsns = 1 }},
		{"no metadata overhead", func(c *core.Config) { c.MetadataOverhead = false }},
	}
}

// ablationRun is one measured variant on one benchmark.
type ablationRun struct {
	cycles   uint64
	osuHit   float64 // preload fraction served without the memory system
	l1PerKC  float64 // L1 requests per 1000 cycles
	metaInsn uint64
}

func runAblation(o Options, bench string, mutate func(*core.Config)) (*ablationRun, error) {
	k, err := kernels.Load(bench)
	if err != nil {
		return nil, err
	}
	// A chip of one at suite scale, whatever Opts.SMs says: the design
	// choices under test are per-SM.
	r, err := SimulateKernel(k, SchemeRegLess, o.Setup(AblationCapacity),
		func(_ *sim.Config, c *core.Config) { mutate(c) })
	if err != nil {
		return nil, err
	}
	st, ps := r.Stats, &r.Prov
	out := &ablationRun{cycles: st.Cycles, metaInsn: ps.MetaInsns}
	if n := ps.Preloads(); n > 0 {
		out.osuHit = float64(ps.PreloadFromOSU+ps.PreloadFromCompressor) / float64(n)
	}
	out.l1PerKC = 1000 * float64(ps.L1PreloadReads+ps.L1StoreWrites+ps.L1Invalidates) / float64(st.Cycles)
	return out, nil
}

// Ablations quantifies the design choices DESIGN.md §7 calls out, at a
// 256-register OSU where they matter. Run-time columns are geomeans
// normalized to the paper-design variant. The (variant x benchmark)
// matrix runs on the suite's worker pool; each cell is an independent
// deterministic simulation, so rows are assembled afterwards in a fixed
// order.
func Ablations(in *inputs) (*Table, error) {
	t := &Table{
		ID:     "ablation",
		Title:  fmt.Sprintf("Design ablations at %d registers/SM (vs paper design)", AblationCapacity),
		Header: []string{"Variant", "Run time", "Staged preloads", "L1 req/kcycle"},
	}
	variants := ablationVariants()
	benches := in.Benchmarks
	grid := make([]*ablationRun, len(variants)*len(benches))
	err := in.Opts.forEach(len(grid), func(i int) error {
		v := variants[i/len(benches)]
		r, err := runAblation(in.Opts, benches[i%len(benches)], v.mutate)
		if err != nil {
			return err
		}
		grid[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Row 0 (the paper design) is the per-benchmark normalization point.
	for vi, v := range variants {
		var ratios []float64
		var hitSum, l1Sum float64
		for bi := range benches {
			r := grid[vi*len(benches)+bi]
			base := grid[bi]
			ratios = append(ratios, float64(r.cycles)/float64(base.cycles))
			hitSum += r.osuHit
			l1Sum += r.l1PerKC
		}
		n := float64(len(benches))
		t.AddRow(v.name, f3(GeoMean(ratios)), pct(hitSum/n), f2(l1Sum/n))
	}
	t.Note("LIFO vs FIFO isolates §5.1's warp-stack choice; pattern sets isolate §5.3's compressor design")
	return t, nil
}
