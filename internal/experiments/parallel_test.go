package experiments

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/energy"
)

// parOpts keeps concurrency tests fast: one tiny benchmark, forced
// parallelism so the pool is exercised even on one core.
func parOpts() Options {
	return Options{
		Warps:       8,
		Benchmarks:  []string{"bfs", "streamcluster"},
		MaxCycles:   20_000_000,
		Parallelism: 8,
	}
}

// TestSingleflightGet hammers one key from 32 goroutines: exactly one
// simulation must run, and every caller must get the same *Run.
func TestSingleflightGet(t *testing.T) {
	s := NewSuite(parOpts())
	var sims int32
	s.OnSimulate = func(string, Scheme, int) { atomic.AddInt32(&sims, 1) }

	const callers = 32
	runs := make([]*Run, callers)
	errs := make([]error, callers)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			runs[i], errs[i] = s.Get("streamcluster", SchemeBaseline, 0)
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := atomic.LoadInt32(&sims); n != 1 {
		t.Fatalf("%d simulations ran, want exactly 1", n)
	}
	for i := range runs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if runs[i] != runs[0] {
			t.Fatalf("caller %d got a different *Run", i)
		}
	}
	if runs[0] == nil || runs[0].Stats.Cycles == 0 {
		t.Fatal("empty run")
	}
}

// TestWarmDedupes has experiments declare the same runs several times —
// two tables reading one column, a column and its alias (non-RegLess
// capacities fold to zero), a pinned benchmark the suite also holds — and
// checks one simulation per unique key.
func TestWarmDedupes(t *testing.T) {
	s := NewSuite(parOpts())
	var sims int32
	s.OnSimulate = func(string, Scheme, int) { atomic.AddInt32(&sims, 1) }
	exps := []Experiment{
		{Reads: []schemeCap{{SchemeBaseline, 0}, {SchemeRegLess, 256}}},
		{Reads: []schemeCap{{SchemeBaseline, 512}, {SchemeRegLess, 256}}}, // baseline/512 is baseline/0
		{Bench: "bfs", Reads: []schemeCap{{SchemeBaseline, 0}}},
	}
	if err := s.warm(exps...); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(&sims); n != 4 {
		t.Fatalf("%d simulations ran, want 4 (bfs, streamcluster x baseline, regless-256)", n)
	}
	// A second warm over the same declarations is free.
	if err := s.warm(exps...); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(&sims); n != 4 {
		t.Fatalf("re-warm re-simulated: %d runs", n)
	}
}

// TestWarmError checks that a bad key surfaces its error through the
// parallel fan-out.
func TestWarmError(t *testing.T) {
	s := NewSuite(parOpts())
	err := s.warm(
		Experiment{Reads: []schemeCap{{SchemeBaseline, 0}}},
		Experiment{Bench: "nonesuch", Reads: []schemeCap{{SchemeBaseline, 0}}})
	if err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

// TestRequirementsCoverRunners verifies the planner warms everything a
// table is made of: after warm, assembling the experiment must trigger
// zero additional simulations — the property that makes All's parallel
// fan-out equivalent to the serial pass. It holds by construction, which
// the last row states: a runner is handed the runs its experiment declares
// and nothing that leads to another.
func TestRequirementsCoverRunners(t *testing.T) {
	opts := Options{
		Warps:       8,
		Benchmarks:  []string{"bfs", "hotspot"},
		MaxCycles:   20_000_000,
		Parallelism: 4,
	}
	probe := Experiment{ID: "undeclared", Reads: []schemeCap{{SchemeBaseline, 0}}, Run: func(in *inputs) (*Table, error) {
		for i, row := range in.Runs {
			if len(row) != 1 || row[0].Bench != in.Benchmarks[i] || row[0].Scheme != SchemeBaseline {
				t.Errorf("row %d is not the one declared run: %d runs", i, len(row))
			}
		}
		// No field of what the runner holds is, points to, or can call
		// the Suite: numbers, names and finished runs only.
		for typ, i := reflect.TypeOf(*in), 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type {
			case reflect.TypeOf(Options{}), reflect.TypeOf(energy.Params{}), reflect.TypeOf([]string{}), reflect.TypeOf([][]*Run{}):
			default:
				t.Errorf("inputs.%s is a %s: a way back to undeclared runs?", f.Name, f.Type)
			}
		}
		return &Table{}, nil
	}}
	for _, e := range append(Experiments(), probe) {
		if e.Reads == nil {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			s := NewSuite(opts)
			var sims int32
			s.OnSimulate = func(string, Scheme, int) { atomic.AddInt32(&sims, 1) }
			if err := s.warm(e); err != nil {
				t.Fatal(err)
			}
			warmed := atomic.LoadInt32(&sims)
			if want := len(e.Reads) * len(opts.Benchmarks); e.Bench == "" && int(warmed) != want {
				t.Fatalf("warm simulated %d runs, the declaration is %d", warmed, want)
			}
			if _, err := s.table(e); err != nil {
				t.Fatal(err)
			}
			if after := atomic.LoadInt32(&sims); after != warmed {
				t.Fatalf("runner simulated %d keys the planner did not declare", after-warmed)
			}
		})
	}
}

// TestParallelAllMatchesSerial runs the full paper suite serially and in
// parallel and requires identical rendered tables. It is also where the
// arena LIFO meets concurrency (run under -race): the serial pass leaves
// one arena parked, poisoned, and the eight workers of the parallel pass
// then take and put arenas against each other — an arena handed to two
// machines, or taken while its last owner still wrote to it, is a race
// report or a different table.
func TestParallelAllMatchesSerial(t *testing.T) {
	arena.SetPoison(true)
	defer arena.SetPoison(false)
	render := func(par int) string {
		opts := parOpts()
		opts.Parallelism = par
		s := NewSuite(opts)
		tables, err := All(s)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, tb := range tables {
			out += tb.Render() + "\n"
		}
		return out
	}
	serial := render(1)
	if arena.Held() == 0 {
		t.Fatal("the serial pass parked nothing for the parallel workers to take")
	}
	parallel := render(8)
	if serial != parallel {
		t.Fatal("parallel output differs from serial output")
	}
}

// TestForEachOrderIndependentError checks the first-by-index error
// contract that keeps error reporting deterministic under parallelism.
func TestForEachOrderIndependentError(t *testing.T) {
	s := NewSuite(parOpts())
	errA := &testErr{"a"}
	errB := &testErr{"b"}
	err := s.Opts.forEach(8, func(i int) error {
		switch i {
		case 3:
			return errA
		case 6:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want the lowest-index error", err)
	}
}

type testErr struct{ s string }

func (e *testErr) Error() string { return e.s }
