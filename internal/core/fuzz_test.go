package core

import (
	"maps"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen/machine"
	"repro/internal/sim"
)

// TestFuzzEquivalence holds what no scheme reaches to the functional
// reference: RegLess with its FIFO stack. On every drawn machine that
// runs generated kernels under RegLess, each kernel of the sequence runs
// over the grid in waves of the machine's resident warps, one lone SM a
// wave, the invariants checked after each, and the stored words must be
// exec.Run's.
func TestFuzzEquivalence(t *testing.T) {
	for _, m := range machine.FIFO.Machines() {
		t.Run("", func(t *testing.T) {
			t.Parallel()
			mm, ref := exec.NewMemory(nil), exec.NewMemory(nil)
			cfg := ConfigForCapacity(m.Capacity)
			cfg.EnableCompressor, cfg.FIFOStack = m.Scheme == "regless", true
			simCfg := sim.DefaultConfig()
			simCfg.MaxCycles = 10_000_000
			for _, k := range m.Ks {
				for base := 0; base < m.Grid; base += m.Warps {
					simCfg.Warps, simCfg.WarpIDBase = min(m.Warps, m.Grid-base), base
					p, err := New(nil, cfg, k)
					var smv *sim.SM
					if err == nil {
						smv, err = sim.New(nil, simCfg, k, p, mm, nil)
					}
					if err == nil {
						_, err = smv.Run()
					}
					if err == nil {
						err = p.CheckInvariants()
					}
					if err != nil {
						t.Fatalf("%s: %s from warp %d: %v", m, k.Name, base, err)
					}
				}
				if _, err := exec.Run(k, m.Grid, ref); err != nil {
					t.Fatalf("%s: %v", m, err)
				}
			}
			if got, want := mm.GlobalStores(), ref.GlobalStores(); !maps.Equal(got, want) {
				t.Fatalf("%s: %d stored words, functional %d", m, len(got), len(want))
			}
		})
	}
}
