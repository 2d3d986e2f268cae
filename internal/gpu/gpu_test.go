package gpu

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/rf"
	"repro/internal/sanitizer"
	"repro/internal/sim"
)

func smallCfg(warps int) Config {
	c := DefaultConfig()
	c.SM.Warps = warps
	c.SM.MaxCycles = 10_000_000
	return c
}

func baselineFactory() ProviderFactory {
	return func(int, *isa.Kernel) (sim.Provider, error) { return rf.NewBaseline(), nil }
}

// oneKernel is the launch most tests here build: k's grid across sms SMs.
func oneKernel(k *isa.Kernel, sms int, f ProviderFactory, mm *exec.Memory) Launch {
	return Launch{Slots: []KernelSlot{{K: k, SMs: sms, Mem: mm}}, Factory: f}
}

func TestMultiSMEquivalence(t *testing.T) {
	for _, name := range []string{"streamcluster", "nw", "bfs"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			k := kernels.MustLoad(name)
			const sms, warps = 4, 8
			mm := exec.NewMemory(nil)
			g, err := New(nil, smallCfg(warps), oneKernel(k, sms, baselineFactory(), mm))
			if err != nil {
				t.Fatal(err)
			}
			res, err := g.Run()
			if err != nil {
				t.Fatal(err)
			}
			// Architectural equivalence with one functional run of all
			// warps.
			ref, err := exec.Run(k, sms*warps, exec.NewMemory(nil))
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalInsns != ref.DynInsns {
				t.Fatalf("instructions: gpu %d, functional %d", res.TotalInsns, ref.DynInsns)
			}
			got := mm.GlobalStores()
			if len(got) != len(ref.Stores) {
				t.Fatalf("store count %d, want %d", len(got), len(ref.Stores))
			}
			for a, v := range ref.Stores {
				if got[a] != v {
					t.Fatalf("store mismatch at %#x: %d vs %d", a, got[a], v)
				}
			}
			if res.Cycles == 0 || len(res.PerSM) != sms {
				t.Fatalf("degenerate result %+v", res)
			}
		})
	}
}

func TestMultiSMRegLess(t *testing.T) {
	k := kernels.MustLoad("hotspot")
	const sms, warps = 4, 8
	factory := func(i int, k *isa.Kernel) (sim.Provider, error) {
		cfg := core.DefaultConfig()
		cfg.AddrOffset = uint32(i) << 24 // disjoint backing stores
		return core.New(cfg, k)
	}
	mm := exec.NewMemory(nil)
	g, err := New(nil, smallCfg(warps), oneKernel(k, sms, factory, mm))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err != nil {
		t.Fatal(err)
	}
	ref, err := exec.Run(k, sms*warps, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	got := mm.GlobalStores()
	for a, v := range ref.Stores {
		if got[a] != v {
			t.Fatalf("RegLess multi-SM diverged at %#x", a)
		}
	}
}

func TestSharedL2Contention(t *testing.T) {
	// More SMs hitting the same shared L2 must produce more shared-level
	// traffic, and per-SM slowdown from contention must not corrupt
	// results (equivalence is covered above). bfs reads shared tables
	// (graph adjacency + visited), so SMs genuinely share L2 lines.
	k := kernels.MustLoad("bfs")
	run := func(sms int) *Result {
		g, err := New(nil, smallCfg(8), oneKernel(k, sms, baselineFactory(), nil))
		if err != nil {
			t.Fatal(err)
		}
		res, err := g.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	four := run(4)
	if four.L2.Hits+four.L2.Misses <= one.L2.Hits+one.L2.Misses {
		t.Fatalf("shared L2 traffic did not scale: %d vs %d",
			four.L2.Hits+four.L2.Misses, one.L2.Hits+one.L2.Misses)
	}
	// Read-shared input tables mean later SMs should enjoy some L2 hits.
	if four.L2.Hits == 0 {
		t.Fatal("no shared L2 hits despite shared read-only inputs")
	}
}

func TestGPURejectsZeroSMs(t *testing.T) {
	k := kernels.MustLoad("nw")
	if _, err := New(nil, smallCfg(8), oneKernel(k, 0, baselineFactory(), nil)); err == nil {
		t.Fatal("accepted zero SMs")
	}
}

// TestAbnormalTerminationIsDiagnostic: a chip's MaxCycles overrun is the
// cycle loop's *sanitizer.Diagnostic at any SM count. A chip of one
// reports it bare — the text every 1-SM consumer (serve errText, CLI)
// has always seen — and a larger chip names the SM.
func TestAbnormalTerminationIsDiagnostic(t *testing.T) {
	k := kernels.MustLoad("nw")
	for _, sms := range []int{1, 4} {
		cfg := smallCfg(8)
		cfg.SM.MaxCycles = 1000
		cfg.PrivateL2 = sms == 1
		g, err := New(nil, cfg, oneKernel(k, sms, baselineFactory(), nil))
		if err != nil {
			t.Fatal(err)
		}
		if (g.L2 == nil) != cfg.PrivateL2 {
			t.Fatalf("%d SMs: PrivateL2=%v but banked L2 present=%v", sms, cfg.PrivateL2, g.L2 != nil)
		}
		_, err = g.Run()
		var d *sanitizer.Diagnostic
		if !errors.As(err, &d) || d.Component != "sim/maxcycles" {
			t.Fatalf("%d SMs: Run = %v, want a sim/maxcycles Diagnostic", sms, err)
		}
		if named := strings.HasPrefix(err.Error(), "gpu: SM 0: "); named != (sms > 1) {
			t.Errorf("%d SMs: error text %q", sms, err)
		}
		if sms == 1 && err.Error() != d.Error() {
			t.Errorf("chip of one wraps its diagnostic: %q vs %q", err, d)
		}
	}
}
