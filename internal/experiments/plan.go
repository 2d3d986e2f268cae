package experiments

import (
	"slices"

	"repro/internal/energy"
)

// The run planner. An experiment says once which suite runs its table is
// made of (Reads). All and ByID simulate what of those the cache lacks
// across the worker pool (warm), fetch them, and hand them to the runner
// (table) — which holds its inputs and no Suite, so a table cannot be made
// of a run the planner did not warm. Because every simulation is
// independent and deterministic and tables are assembled serially, the
// printed tables are byte-identical at any parallelism — the planner
// changes wall-clock only.

// Experiment is one table: its ID, the runs it reads, its runner.
type Experiment struct {
	// ID is the experiment identifier ("fig16", "table2", ...).
	ID string
	// Reads is the (scheme, capacity) columns the table reads of every
	// benchmark of the suite — of Bench alone when that is set (Figure 3
	// samples hotspot whatever the subset). The runner finds benchmark i's
	// run under Reads[j] at Runs[i][j]. Nil: the table needs no simulation
	// (table1, fig5, fig11) or builds machines no suite run is (ablation,
	// gpuscale, coresident, oversub), fanned out by Options.forEach.
	Reads []schemeCap
	Bench string
	// Run assembles the table.
	Run func(*inputs) (*Table, error)
}

// schemeCap pairs a scheme with its RegLess capacity (0 for the rest).
type schemeCap struct {
	scheme   Scheme
	capacity int
}

// inputs is everything a runner sees of the suite: its options and energy
// constants, the benchmarks in suite order, and of each the declared runs.
type inputs struct {
	Opts       Options
	Params     energy.Params
	Benchmarks []string
	Runs       [][]*Run
}

// The column sets several tables share.
var (
	regLessOnly    = []schemeCap{{SchemeRegLess, DefaultCapacity}}
	baseAndRegLess = []schemeCap{{SchemeBaseline, 0}, {SchemeRegLess, DefaultCapacity}}
	// The four-scheme comparison of Figures 14 and 15.
	comparison = []schemeCap{{SchemeBaseline, 0}, {SchemeRFH, 0}, {SchemeRFV, 0}, {SchemeRegLess, DefaultCapacity}}
)

// fig13Reads is Figure 13's columns: the baseline, then RegLess at each
// of fig13Capacities.
func fig13Reads() []schemeCap {
	cols := []schemeCap{{SchemeBaseline, 0}}
	for _, c := range fig13Capacities {
		cols = append(cols, schemeCap{SchemeRegLess, c})
	}
	return cols
}

// paperExperiments returns the table/figure runners in paper order.
func paperExperiments() []Experiment {
	return []Experiment{
		{ID: "table1", Run: Table1},
		{ID: "fig2", Run: Fig2, Reads: []schemeCap{{SchemeBaseline, 0}, {SchemeBaseline2L, 0}}},
		{ID: "fig3", Run: Fig3, Bench: "hotspot",
			Reads: []schemeCap{{SchemeBaseline, 0}, {SchemeRFH, 0}, {SchemeRegLess, DefaultCapacity}}},
		{ID: "fig5", Run: Fig5},
		{ID: "fig11", Run: Fig11},
		{ID: "fig12", Run: Fig12, Reads: regLessOnly},
		{ID: "fig13", Run: Fig13, Reads: fig13Reads()},
		{ID: "fig14", Run: Fig14, Reads: comparison},
		{ID: "fig15", Run: Fig15, Reads: comparison},
		{ID: "fig16", Run: Fig16, Reads: []schemeCap{{SchemeBaseline, 0}, {SchemeRegLess, DefaultCapacity},
			{SchemeRegLessNC, DefaultCapacity}, {SchemeRFV, 0}, {SchemeRFH, 0}}},
		{ID: "fig17", Run: Fig17, Reads: regLessOnly},
		{ID: "fig18", Run: Fig18, Reads: regLessOnly},
		{ID: "fig19", Run: Fig19, Reads: regLessOnly},
		{ID: "table2", Run: Table2, Reads: regLessOnly},
	}
}

// extensionExperiments returns the beyond-the-paper runners.
func extensionExperiments() []Experiment {
	return []Experiment{
		{ID: "ablation", Run: Ablations},
		{ID: "gpuscale", Run: GPUScale},
		{ID: "coresident", Run: CoResident},
		{ID: "oversub", Run: Oversubscription},
		{ID: "breakdown", Run: EnergyBreakdown, Reads: baseAndRegLess},
		{ID: "sensitivity", Run: Sensitivity, Reads: baseAndRegLess},
		{ID: "claims", Run: Claims, Reads: append(fig13Reads(),
			schemeCap{SchemeBaseline2L, 0}, schemeCap{SchemeRFH, 0}, schemeCap{SchemeRFV, 0},
			schemeCap{SchemeRegLessNC, DefaultCapacity})},
	}
}

// Experiments returns every registered experiment: paper order, then the
// extensions.
func Experiments() []Experiment {
	return append(paperExperiments(), extensionExperiments()...)
}

// warm simulates every run exps declare that the cache lacks, fanned
// across the worker pool: each benchmark under each distinct column, then
// the pinned benchmarks' runs. A run declared twice is one simulation
// (Get is a singleflight). The first error in that order is returned —
// what a serial pass would report — after all workers finish.
func (s *Suite) warm(exps ...Experiment) error {
	var cols []schemeCap
	var pinned []runKey
	for _, e := range exps {
		for _, c := range e.Reads {
			if e.Bench != "" {
				pinned = append(pinned, runKey{e.Bench, c.scheme, c.capacity})
			} else if !slices.Contains(cols, c) {
				cols = append(cols, c)
			}
		}
	}
	benches := s.benchmarks()
	grid := len(benches) * len(cols)
	return s.Opts.forEach(grid+len(pinned), func(i int) error {
		var k runKey
		if i < grid {
			c := cols[i%len(cols)]
			k = runKey{benches[i/len(cols)], c.scheme, c.capacity}
		} else {
			k = pinned[i-grid]
		}
		_, err := s.Get(k.bench, k.scheme, k.capacity)
		return err
	})
}

// table fetches e's declared runs — cache hits after warm — and assembles
// e's table from them.
func (s *Suite) table(e Experiment) (*Table, error) {
	in, err := s.gather(e)
	if err != nil {
		return nil, err
	}
	return e.Run(in)
}

// gather fetches e's declared runs into the inputs its runner sees.
func (s *Suite) gather(e Experiment) (*inputs, error) {
	in := &inputs{Opts: s.Opts, Params: s.Params, Benchmarks: s.benchmarks()}
	if e.Bench != "" {
		in.Benchmarks = []string{e.Bench}
	}
	if n := len(e.Reads); n > 0 {
		flat := make([]*Run, len(in.Benchmarks)*n)
		in.Runs = make([][]*Run, len(in.Benchmarks))
		for i, bench := range in.Benchmarks {
			in.Runs[i], flat = flat[:n:n], flat[n:]
			for j, c := range e.Reads {
				r, err := s.Get(bench, c.scheme, c.capacity)
				if err != nil {
					return nil, err
				}
				in.Runs[i][j] = r
			}
		}
	}
	return in, nil
}

// All runs every paper experiment in order: one warm-up over the union of
// what they read, then the tables serially from the cache, so output
// matches a serial run byte for byte.
func All(s *Suite) ([]*Table, error) {
	exps := paperExperiments()
	if err := s.warm(exps...); err != nil {
		return nil, err
	}
	out := make([]*Table, 0, len(exps))
	for _, e := range exps {
		tb, err := s.table(e)
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
	return out, nil
}

// ByID returns the experiment function for an ID like "fig16": it warms
// what the experiment reads in parallel, then assembles the table.
func ByID(id string) (func(*Suite) (*Table, error), bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return func(s *Suite) (*Table, error) {
				if err := s.warm(e); err != nil {
					return nil, err
				}
				return s.table(e)
			}, true
		}
	}
	return nil, false
}
