package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// maskedRun is everything a run leaves behind that the pick path can
// reach: the issue decisions themselves, the three stats structs, and the
// per-window metric stream.
type maskedRun struct {
	picks []sim.Pick
	stats sim.Stats
	prov  sim.ProviderStats
	mem   mem.Stats
	jsonl []byte
}

// runPick builds the chip on the heap, picking through the ready masks
// or the linear oracle, runs it, and copies out what it leaves behind.
func runPick(k *isa.Kernel, scheme experiments.Scheme, su experiments.SimSetup, tune experiments.Tune, oracle bool) (out maskedRun, err error) {
	g, _, err := experiments.Assemble(nil, k, scheme, 1, su, tune)
	if err != nil {
		return out, err
	}
	sm := g.SMs[0]
	if oracle {
		sm.UseLinearOracle()
	}
	sm.LogPicks(&out.picks)
	var buf bytes.Buffer
	jw := metrics.NewJSONLWriter(&buf)
	sm.Metrics.SetSink(jw.Run(metrics.String("bench", k.Name)))
	if _, err := g.Run(); err != nil {
		return out, err
	}
	if err := jw.Flush(); err != nil {
		return out, err
	}
	out.stats, out.prov, out.mem, out.jsonl = sm.Stats, sm.Prov, sm.Mem.Stats, buf.Bytes()
	return out, nil
}

// oracleDiverges runs k twice, picking through the masks and through the
// oracle, and says where the two part: a pick, the Stats, ProviderStats,
// mem.Stats or the window stream.
func oracleDiverges(k *isa.Kernel, scheme experiments.Scheme, su experiments.SimSetup, tune experiments.Tune) error {
	got, err := runPick(k, scheme, su, tune, false)
	if err != nil {
		return err
	}
	want, err := runPick(k, scheme, su, tune, true)
	if err != nil {
		return err
	}
	if len(got.picks) == 0 {
		return fmt.Errorf("no picks logged")
	}
	for i := range want.picks {
		if i >= len(got.picks) || got.picks[i] != want.picks[i] {
			return fmt.Errorf("pick %d diverges: masks %+v, oracle %+v", i, got.picks[min(i, len(got.picks)-1)], want.picks[i])
		}
	}
	switch {
	case len(got.picks) != len(want.picks):
		return fmt.Errorf("%d picks, oracle %d", len(got.picks), len(want.picks))
	case !reflect.DeepEqual(got.stats, want.stats):
		return fmt.Errorf("Stats diverge:\nmasks  %+v\noracle %+v", got.stats, want.stats)
	case got.prov != want.prov:
		return fmt.Errorf("ProviderStats diverge:\nmasks  %+v\noracle %+v", got.prov, want.prov)
	case got.mem != want.mem:
		return fmt.Errorf("mem.Stats diverge:\nmasks  %+v\noracle %+v", got.mem, want.mem)
	case !bytes.Equal(got.jsonl, want.jsonl):
		return fmt.Errorf("JSONL metric streams differ (%d vs %d bytes)", len(got.jsonl), len(want.jsonl))
	}
	return nil
}

// TestMaskPickMatchesLinearOracle runs every point twice — once picking
// through the ready masks, once through the linear reference scan they
// replaced (oracle_test.go) — and requires the same warp from every pick
// of every cycle, and deep-equal Stats, ProviderStats, mem.Stats and
// JSONL window stream: the pick's side effects (scoreboard and provider
// rejection counts, IssueStalls, the provider's StallCycles, the tallies
// fast-forward multiplies) all land in one of those.
func TestMaskPickMatchesLinearOracle(t *testing.T) {
	type point struct {
		name   string
		scheme experiments.Scheme
		warps  int
		tune   experiments.Tune
	}
	var points []point
	for _, s := range experiments.Schemes() {
		points = append(points, point{string(s), s, 0, nil})
	}
	points = append(points,
		// 80 warps behind one scheduler: the group's masks span two words.
		point{"baseline/1x80", experiments.SchemeBaseline, 80,
			func(c *sim.Config, _ *core.Config) { c.Schedulers = 1 }},
		point{"baseline-2level/1x80", experiments.SchemeBaseline2L, 80,
			func(c *sim.Config, _ *core.Config) { c.Schedulers = 1 }},
	)
	opts := experiments.Quick()
	for _, noFF := range []bool{false, true} {
		opts.NoFastForward = noFF
		for _, bench := range opts.Benchmarks {
			for _, p := range points {
				su := opts.Setup(experiments.DefaultCapacity)
				if p.warps > 0 {
					su.Warps = p.warps
				}
				where := fmt.Sprintf("%s/%s noFF=%v", bench, p.name, noFF)
				if err := oracleDiverges(kernels.MustLoad(bench), p.scheme, su, p.tune); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
		}
	}
}
