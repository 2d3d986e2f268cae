package sim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arena"
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

// runPick builds the chip in a (nil: the heap), runs it, and copies out
// what it leaves behind: nothing in the result points into the machine,
// so the caller may put a back.
func runPick(a *arena.Arena, k *isa.Kernel, scheme experiments.Scheme, su experiments.SimSetup,
	tune experiments.Tune, oracle bool) (maskedRun, error) {
	var out maskedRun
	g, _, err := experiments.Assemble(a, k, scheme, 1, su, tune)
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
	out.stats.BackingSeries = slices.Clone(out.stats.BackingSeries)
	return out, nil
}

func mustRunPick(t *testing.T, bench string, scheme experiments.Scheme, su experiments.SimSetup,
	tune experiments.Tune, oracle bool) maskedRun {
	t.Helper()
	k, err := kernels.Load(bench)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runPick(nil, k, scheme, su, tune, oracle)
	if err != nil {
		t.Fatal(err)
	}
	return out
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
		point{"baseline/lrr", experiments.SchemeBaseline, 0,
			func(c *sim.Config, _ *core.Config) { c.Sched = sim.SchedLRR }},
		// 80 warps behind one scheduler: the group's masks span two words.
		point{"baseline/1x80", experiments.SchemeBaseline, 80,
			func(c *sim.Config, _ *core.Config) { c.Schedulers = 1 }},
		point{"baseline-2level/1x80", experiments.SchemeBaseline2L, 80,
			func(c *sim.Config, _ *core.Config) { c.Schedulers = 1 }},
		point{"baseline/lrr/1x80", experiments.SchemeBaseline, 80,
			func(c *sim.Config, _ *core.Config) { c.Schedulers, c.Sched = 1, sim.SchedLRR }},
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
				got := mustRunPick(t, bench, p.scheme, su, p.tune, false)
				want := mustRunPick(t, bench, p.scheme, su, p.tune, true)
				if len(got.picks) == 0 {
					t.Fatalf("%s: no picks logged", where)
				}
				for i := range want.picks {
					if i >= len(got.picks) || got.picks[i] != want.picks[i] {
						t.Fatalf("%s: pick %d diverges: masks %+v, oracle %+v",
							where, i, got.picks[min(i, len(got.picks)-1)], want.picks[i])
					}
				}
				if len(got.picks) != len(want.picks) {
					t.Fatalf("%s: %d picks, oracle %d", where, len(got.picks), len(want.picks))
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					t.Errorf("%s: Stats diverge:\nmasks  %+v\noracle %+v", where, got.stats, want.stats)
				}
				if got.prov != want.prov {
					t.Errorf("%s: ProviderStats diverge:\nmasks  %+v\noracle %+v", where, got.prov, want.prov)
				}
				if got.mem != want.mem {
					t.Errorf("%s: mem.Stats diverge:\nmasks  %+v\noracle %+v", where, got.mem, want.mem)
				}
				if !bytes.Equal(got.jsonl, want.jsonl) {
					t.Errorf("%s: JSONL metric streams differ (%d vs %d bytes)", where, len(got.jsonl), len(want.jsonl))
				}
			}
		}
	}
}
