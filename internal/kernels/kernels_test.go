package kernels

import (
	"maps"
	"testing"

	"repro/internal/exec"
	"repro/internal/metadata"
	"repro/internal/regalloc"
	"repro/internal/regions"
)

func TestSuiteComplete(t *testing.T) {
	if len(Suite()) != 21 {
		t.Fatalf("suite has %d benchmarks, want the 21 Rodinia analogues", len(Suite()))
	}
	seen := map[string]bool{}
	for _, b := range Suite() {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Character == "" {
			t.Fatalf("%s: missing character note", b.Name)
		}
	}
	for _, want := range []string{"bfs", "hotspot", "lud", "myocyte", "particle_filter", "streamcluster"} {
		if !seen[want] {
			t.Fatalf("missing benchmark %q", want)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName accepted unknown benchmark")
	}
}

// Every benchmark must build, validate, allocate, terminate functionally,
// and produce identical outputs before and after register allocation.
func TestAllBenchmarksBuildAndRun(t *testing.T) {
	const warps = 16
	for _, bm := range Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			virt := bm.Build()
			if err := virt.Validate(); err != nil {
				t.Fatalf("virtual kernel invalid: %v", err)
			}
			res, err := regalloc.Allocate(virt)
			if err != nil {
				t.Fatal(err)
			}
			alloc := res.Kernel
			if alloc.NumRegs < 4 || alloc.NumRegs > 64 {
				t.Errorf("allocated %d registers, outside plausible GPU range [4,64]", alloc.NumRegs)
			}

			want, err := exec.Run(virt, warps, exec.NewMemory(nil))
			if err != nil {
				t.Fatalf("virtual run: %v", err)
			}
			got, err := exec.Run(alloc, warps, exec.NewMemory(nil))
			if err != nil {
				t.Fatalf("allocated run: %v", err)
			}
			if want.DynInsns != got.DynInsns {
				t.Fatalf("dynamic instruction count changed: %d -> %d", want.DynInsns, got.DynInsns)
			}
			if len(want.Stores) == 0 {
				t.Fatal("kernel produced no output")
			}
			if !maps.Equal(got.Stores, want.Stores) {
				t.Fatalf("regalloc changed behaviour: %d stored words, %d before", len(got.Stores), len(want.Stores))
			}
		})
	}
}

// Every benchmark must compile into regions with valid metadata under the
// default and a small OSU configuration.
func TestAllBenchmarksCompile(t *testing.T) {
	for _, bm := range Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			k := MustLoad(bm.Name)
			for _, cfg := range []regions.Config{
				regions.DefaultConfig(),
				{MaxRegsPerRegion: 12, BankLines: 4, MinRegionInsns: 6},
			} {
				c, err := regions.Compile(k, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(c.Regions) == 0 {
					t.Fatal("no regions")
				}
				if _, err := metadata.Apply(c); err != nil {
					t.Fatalf("metadata: %v", err)
				}
				s := c.Summarize()
				if s.AvgInsns <= 0 {
					t.Fatalf("bad summary %+v", s)
				}
			}
		})
	}
}

// Spot-check engineered characteristics against the paper's qualitative
// per-benchmark descriptions.
func TestCharacteristicsMatchPaper(t *testing.T) {
	summaries := map[string]regions.Summary{}
	for _, bm := range Suite() {
		k := MustLoad(bm.Name)
		c, err := regions.Compile(k, regions.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		summaries[bm.Name] = c.Summarize()
	}
	// lud has the largest compute regions in the paper (16 insns/region);
	// it must be near the top here too.
	if summaries["lud"].AvgInsns <= summaries["bfs"].AvgInsns {
		t.Errorf("lud regions (%.1f insns) should exceed bfs (%.1f)",
			summaries["lud"].AvgInsns, summaries["bfs"].AvgInsns)
	}
	if summaries["lud"].AvgInsns <= summaries["streamcluster"].AvgInsns {
		t.Errorf("lud regions (%.1f insns) should exceed streamcluster (%.1f)",
			summaries["lud"].AvgInsns, summaries["streamcluster"].AvgInsns)
	}
	// myocyte and dwt2d carry the most concurrent live registers (Fig 19:
	// 20+); they must exceed the light kernels.
	for _, heavy := range []string{"myocyte", "dwt2d"} {
		for _, light := range []string{"bfs", "streamcluster", "nn"} {
			if summaries[heavy].MeanMaxLive <= summaries[light].MeanMaxLive {
				t.Errorf("%s mean live (%.1f) should exceed %s (%.1f)",
					heavy, summaries[heavy].MeanMaxLive, light, summaries[light].MeanMaxLive)
			}
		}
	}
	// Most register placements should be interior — the paper's core
	// observation ("the vast majority of registers are intermediates
	// with short lifetimes", §3).
	interiorHeavy := 0
	for name, s := range summaries {
		if s.InteriorFrac > 0.5 {
			interiorHeavy++
		}
		t.Logf("%-16s regions=%3d insns/region=%5.1f preloads=%4.1f live=%4.1f±%4.1f interior=%.2f",
			name, s.NumRegions, s.AvgInsns, s.AvgPreloads, s.MeanMaxLive, s.StdMaxLive, s.InteriorFrac)
	}
	if interiorHeavy < 11 {
		t.Errorf("only %d/21 benchmarks have interior-dominated regions", interiorHeavy)
	}
}
