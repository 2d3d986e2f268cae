package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/rf"
	"repro/internal/sim"
)

// chipOpts is a small chip configuration the differential tests share.
func chipOpts(sms int) Options {
	return Options{
		Warps:      8,
		Benchmarks: []string{"bfs"},
		MaxCycles:  20_000_000,
		SMs:        sms,
	}
}

// bareSM builds the reference for the chip-of-one differential: a lone
// SM constructed directly with sim.New — its own provider table, no gpu,
// no assembly, no merges.
func bareSM(t *testing.T, scheme Scheme, k *isa.Kernel, opts Options) *sim.SM {
	t.Helper()
	simCfg := sim.DefaultConfig()
	simCfg.Warps = opts.Warps
	simCfg.MaxCycles = opts.MaxCycles
	simCfg.NoFastForward = opts.NoFastForward
	var p sim.Provider
	var err error
	switch scheme {
	case SchemeBaseline2L:
		simCfg.Sched = sim.SchedTwoLevel
		p = rf.NewBaseline()
	case SchemeRegLessNC:
		c := core.ConfigForCapacity(DefaultCapacity)
		c.EnableCompressor = false
		p, err = core.New(c, k)
	default:
		p, err = buildProviderFor(scheme, k, &simCfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	smv, err := sim.New(simCfg, k, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return smv
}

// TestChipOfOneMatchesBareSM is the differential behind "a 1-SM run is a
// chip of one": for every scheme on the Quick benchmarks, with
// fast-forward on and off, the suite's Run — assembled as a chip, run by
// the chip loop, folded through the per-SM merges — must deep-equal what
// a bare sim.New(...).Run() of the same kernel and provider reports.
func TestChipOfOneMatchesBareSM(t *testing.T) {
	for _, noFF := range []bool{false, true} {
		opts := Quick()
		opts.NoFastForward = noFF
		s := NewSuite(opts)
		for _, bench := range opts.Benchmarks {
			k, err := kernels.Load(bench)
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range Schemes() {
				ref := bareSM(t, scheme, k, opts)
				want, err := ref.Run()
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Get(bench, scheme, DefaultCapacity)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("%s/%s noFF=%v", bench, scheme, noFF)
				if !reflect.DeepEqual(got.Stats, want) {
					t.Errorf("%s: Stats diverge:\nchip %+v\nbare %+v", where, got.Stats, want)
				}
				if !reflect.DeepEqual(got.Prov, ref.Prov) {
					t.Errorf("%s: Prov diverge:\nchip %+v\nbare %+v", where, got.Prov, ref.Prov)
				}
				if got.Mem != ref.Mem.Stats {
					t.Errorf("%s: Mem diverge:\nchip %+v\nbare %+v", where, got.Mem, ref.Mem.Stats)
				}
				if len(got.Chip.PerSM) != 1 || got.Chip.L2 != (mem.BankedL2Stats{}) {
					t.Errorf("%s: a chip of one ran on the banked L2: %+v", where, got.Chip)
				}
			}
		}
	}
}

// TestSchemeShapeMatchesCapacity: the SM meets a scheme as one of the
// paper's two shapes, and which one is the scheme's own fact — a staging
// unit (sim.Stager) exactly when the scheme has a capacity to size, a
// register file (a plain sim.Provider, which the SM never ticks, drains
// or asks about issue) otherwise.
func TestSchemeShapeMatchesCapacity(t *testing.T) {
	k, err := kernels.Load("bfs")
	if err != nil {
		t.Fatal(err)
	}
	su := chipOpts(1).Setup(DefaultCapacity)
	for _, scheme := range Schemes() {
		g, _, err := Assemble(nil, k, scheme, 1, su, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, staged := g.SMs[0].Provider.(sim.Stager)
		if staged != scheme.HasCapacity() {
			t.Errorf("%s: provider %T is a Stager: %v, scheme has a capacity: %v",
				scheme, g.SMs[0].Provider, staged, scheme.HasCapacity())
		}
	}
}

// fillNumeric sets every numeric field of the struct v points at to a
// distinct non-zero value derived from seed (slices get two elements),
// and fails on a field kind it does not know — a new kind of counter
// must be taught to the merge test, not skipped by it.
func fillNumeric(t *testing.T, v any, seed uint64) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f, n := rv.Field(i), seed+uint64(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(n)
		case reflect.Float64:
			f.SetFloat(float64(n))
		case reflect.Slice:
			f.Set(reflect.ValueOf([]uint64{n, n + 1}))
		default:
			t.Fatalf("%s.%s: unhandled kind %s", rv.Type(), rv.Type().Field(i).Name, f.Kind())
		}
	}
}

// sumFields adds every uint64 field of the struct src points at into
// dst's: the reference the product's fold (metrics.Add) is held to.
func sumFields(dst, src any) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		if d.Field(i).Kind() == reflect.Uint64 {
			d.Field(i).SetUint(d.Field(i).Uint() + s.Field(i).Uint())
		}
	}
}

// TestMergesCoverEveryCounter: every run's Stats come out of
// mergeSimStats, so a counter it skipped would read zero in every table
// (Prov and Mem are bare metrics.Add: TestCounterSpelledOnce). Merging two filled
// structs must sum every field (Cycles: the chip's, i.e. the slowest
// SM's; WorkingSetKB: the mean over SMs).
func TestMergesCoverEveryCounter(t *testing.T) {
	const seedA, seedB = 100, 1000
	checkSums := func(merged any, special map[string]float64) {
		t.Helper()
		rv := reflect.ValueOf(merged).Elem()
		for i := 0; i < rv.NumField(); i++ {
			name := rv.Type().Field(i).Name
			want := float64(seedA + seedB + 2*i)
			if w, ok := special[name]; ok {
				want = w
			}
			var got float64
			switch f := rv.Field(i); f.Kind() {
			case reflect.Uint64:
				got = float64(f.Uint())
			case reflect.Float64:
				got = f.Float()
			case reflect.Slice:
				if f.Len() != 2 || f.Index(1).Uint() != f.Index(0).Uint()+2 {
					t.Errorf("%s.%s = %v, want an elementwise sum", rv.Type(), name, f)
					continue
				}
				got = float64(f.Index(0).Uint())
			}
			if got != want {
				t.Errorf("%s.%s = %v after merging, want %v", rv.Type(), name, got, want)
			}
		}
	}

	var sa, sb sim.Stats
	fillNumeric(t, &sa, seedA)
	fillNumeric(t, &sb, seedB)
	merged := mergeSimStats(&gpu.Result{Cycles: sb.Cycles, PerSM: []*sim.Stats{&sa, &sb}})
	checkSums(merged, map[string]float64{
		"Cycles":       float64(sb.Cycles),
		"WorkingSetKB": (sa.WorkingSetKB + sb.WorkingSetKB) / 2,
	})

}

// cancelOpts stretches a run past many cancellation polls. Every repo
// benchmark finishes in a few thousand cycles — fewer loop iterations than
// one poll interval — so a mem-delay fault parks one response for 800k
// cycles (under the 1M watchdog), and NoFastForward keeps the loop
// stepping through the idle span (fault injection disables the skip
// anyway): ~100 context polls per run, while a full run still completes in
// well under a second.
func cancelOpts() Options {
	plan, err := faults.Parse("mem-delay@500:delay=800000")
	if err != nil {
		panic(err)
	}
	return Options{
		Warps: 8, Benchmarks: []string{"nw"}, MaxCycles: 2_000_000,
		NoFastForward: true, Faults: plan,
	}
}

// TestInstrumentedRunHonorsContext: the instrumented path is how serve
// runs every point, and the one run path that is canceled (a job's
// expiry, cancel or drain), so it stops for a context that is already
// done and for one that expires mid-run, on a chip of one and of two.
func TestInstrumentedRunHonorsContext(t *testing.T) {
	opts := cancelOpts() // one response parked for 800k stepped cycles
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SimulateInstrumented(canceled, "nw", SchemeRegLess, 1, opts.Setup(512), events.MaskSched)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled instrumented run = %v, want context.Canceled", err)
	}
	for _, sms := range []int{1, 2} {
		expiring, stop := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err = SimulateInstrumented(expiring, "nw", SchemeRegLess, sms, opts.Setup(512), events.MaskSched)
		stop()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%d SMs: instrumented run past its deadline = %v, want DeadlineExceeded", sms, err)
		}
	}
}

// TestChipRunCanceled: a 2-SM instrumented run whose context is canceled
// mid-run (a serve job canceled or drained) stops and returns
// context.Canceled instead of simulating to completion.
func TestChipRunCanceled(t *testing.T) {
	opts := cancelOpts()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := SimulateInstrumented(ctx, "nw", SchemeBaseline, 2, opts.Setup(0), events.MaskSched)
		errCh <- err
	}()
	time.AfterFunc(20*time.Millisecond, cancel)
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled chip run = %v, want context.Canceled", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("canceled chip run did not return")
	}
}

// TestDeadlineExceededClassified: a run handed a context already past its
// deadline (a serve job that expired in the queue) reports
// DeadlineExceeded, not Canceled, so the service can tell expiry from a
// client's cancel.
func TestDeadlineExceededClassified(t *testing.T) {
	opts := cancelOpts()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	_, err := SimulateInstrumented(ctx, "nw", SchemeBaseline, 1, opts.Setup(0), events.MaskSched)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run past its deadline = %v, want DeadlineExceeded", err)
	}
}

// TestChipFFParity checks that the coordinated chip fast-forward is pure
// elision at -sms 4: stepping every cycle and jumping frozen spans must
// produce identical cycles, instructions, and memory traffic.
func TestChipFFParity(t *testing.T) {
	ff := NewSuite(chipOpts(4))
	stepped := NewSuite(chipOpts(4))
	stepped.Opts.NoFastForward = true

	for _, scheme := range []Scheme{SchemeBaseline, SchemeRegLess} {
		cap := 0
		if scheme == SchemeRegLess {
			cap = DefaultCapacity
		}
		a, err := ff.simulate(context.Background(), "bfs", scheme, cap)
		if err != nil {
			t.Fatal(err)
		}
		b, err := stepped.simulate(context.Background(), "bfs", scheme, cap)
		if err != nil {
			t.Fatal(err)
		}
		if a.Chip.FFJumps == 0 {
			t.Fatalf("%s: chip fast-forward never engaged", scheme)
		}
		if a.Stats.Cycles != b.Stats.Cycles || a.Stats.DynInsns != b.Stats.DynInsns {
			t.Fatalf("%s: FF on %d cycles/%d insns vs off %d/%d", scheme,
				a.Stats.Cycles, a.Stats.DynInsns, b.Stats.Cycles, b.Stats.DynInsns)
		}
		if a.Chip.L2 != b.Chip.L2 {
			t.Fatalf("%s: L2 traffic diverges under FF:\n%+v\nvs\n%+v", scheme, a.Chip.L2, b.Chip.L2)
		}
		for i := range a.Chip.PerSM {
			if a.Chip.PerSM[i].Cycles != b.Chip.PerSM[i].Cycles {
				t.Fatalf("%s: SM %d cycles %d vs %d", scheme, i,
					a.Chip.PerSM[i].Cycles, b.Chip.PerSM[i].Cycles)
			}
		}
	}
}

// TestChipDeterminism16 runs the same 16-SM chip twice from fresh state
// and requires bit-identical results: cycles, per-SM stats, chip L2 and
// DRAM counters.
func TestChipDeterminism16(t *testing.T) {
	a, err := NewSuite(chipOpts(16)).simulate(context.Background(), "bfs", SchemeRegLess, DefaultCapacity)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSuite(chipOpts(16)).simulate(context.Background(), "bfs", SchemeRegLess, DefaultCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if a.Chip.Cycles != b.Chip.Cycles {
		t.Fatalf("cycles %d vs %d", a.Chip.Cycles, b.Chip.Cycles)
	}
	if a.Chip.L2 != b.Chip.L2 {
		t.Fatalf("L2 stats diverge:\n%+v\nvs\n%+v", a.Chip.L2, b.Chip.L2)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("merged stats diverge:\n%+v\nvs\n%+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.Mem, b.Mem) {
		t.Fatalf("mem stats diverge:\n%+v\nvs\n%+v", a.Mem, b.Mem)
	}
}
