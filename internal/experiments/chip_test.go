package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/gen/bare"
	"repro/internal/gen/machine"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestChipOfOneMatchesBareSM is the differential behind "a 1-SM run is a
// chip of one": on every drawn machine bare.Run can be — one SM, on its
// private L2 slice, alone, at any capacity — each launch of the assembled
// sequence reports the Stats of the bare SM's wave, and a single launch
// also its Prov and Mem, with no banked L2 traffic.
func TestChipOfOneMatchesBareSM(t *testing.T) {
	t.Parallel()
	machine.ChipsOfOne.Each(t, func(t *testing.T, m machine.Machine) {
		ref, err := bare.Run(m.Scheme, m.Capacity, m.Ks, m.Grid, m.Warps, exec.NewMemory(nil), setup(m).Hier)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		got := mustRun(t, m, nil)
		for i, smv := range ref {
			machine.Same(t, m, fmt.Sprint("launch ", i, " Stats"), got.Res.PerLaunch[i].PerSM[0], &smv.Stats)
		}
		if m.SingleLaunch() {
			machine.Same(t, m, "Prov, Mem and banked L2 counters", []any{got.Prov, got.Mem, got.Res.PerLaunch[0].L2},
				[]any{ref[0].Prov, ref[0].Mem.Stats, mem.BankedL2Stats{}})
		}
	})
}

// TestSchemeShapeMatchesCapacity: the SM meets a scheme as one of the
// paper's two shapes, and which one is the scheme's own fact — a staging
// unit (sim.Stager) exactly when the scheme has a capacity to size, a
// register file (a plain sim.Provider, which the SM never ticks, drains
// or asks about issue) otherwise.
func TestSchemeShapeMatchesCapacity(t *testing.T) {
	k := kernels.MustLoad("bfs")
	su := SimSetup{Capacity: DefaultCapacity, Warps: 8}
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
	merged := mergeSimStats(nil, &gpu.Result{Cycles: sb.Cycles, PerSM: []*sim.Stats{&sa, &sb}})
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

// TestChipFFParity: the coordinated fast-forward is pure elision. On
// every drawn machine, stepping every cycle reports what jumping frozen
// spans does — every statistic but the fast-forward's own counters, the
// stores, the standing memory's counters and a single launch's window
// stream — and the draw must jump.
func TestChipFFParity(t *testing.T) {
	t.Parallel()
	var jumps uint64
	machine.Every.Each(t, func(t *testing.T, m machine.Machine) {
		ff := mustRun(t, m, nil)
		stepped := mustRun(t, m, func(su *SimSetup) { su.NoFastForward = true })
		jumps += ff.Res.FFJumps
		machine.Same(t, m, "stepped and fast-forwarded runs", stepped, ff.withoutFF())
	})
	if jumps == 0 {
		t.Fatal("fast-forward never engaged on the draw: the parity proved nothing")
	}
}

// TestChipDeterminism16: the same machine built twice from fresh state
// runs bit-identically — a 16-SM chip, and every drawn machine.
func TestChipDeterminism16(t *testing.T) {
	t.Parallel()
	sixteen := machine.Machine{Scheme: string(SchemeRegLess), Capacity: DefaultCapacity, Warps: 8, SMs: 16, Grid: 128,
		Standing: "cold", Seq: "bfs", Ks: []*isa.Kernel{kernels.MustLoad("bfs")}}
	machine.Same(t, sixteen, "two runs", mustRun(t, sixteen, nil), mustRun(t, sixteen, nil))
	machine.Every.Each(t, func(t *testing.T, m machine.Machine) {
		machine.Same(t, m, "two runs", mustRun(t, m, nil), mustRun(t, m, nil))
	})
}
