package experiments

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/compress"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/osu"
	"repro/internal/sim"
)

// unboundOnPurpose names the counters that are deliberately no cell: the
// clock (a window carries it as its end), the fast-forward's own tallies
// (a fast-forwarded run must stream what a stepped one does) and the
// injected-fault tallies (zero outside fault runs).
var unboundOnPurpose = map[string]bool{
	"Cycles": true, "FFSkippedCycles": true, "FFJumps": true, "FaultDrops": true, "FaultDelays": true,
}

// somePrimes is the first 200 primes.
var somePrimes = func() (ps []uint64) {
next:
	for n := uint64(2); len(ps) < 200; n++ {
		for _, p := range ps {
			if n%p == 0 {
				continue next
			}
		}
		ps = append(ps, n)
	}
	return ps
}()

// primes sets field i of the struct v points at, if it is a uint64, to
// the (from+i)-th prime: a distinct value in every counter.
func primes(v any, from int) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(somePrimes[from+i])
		}
	}
}

// checkStatsStruct holds one statistics struct to "a counter is spelled
// once": every exported uint64 field is a cell (tagged) or unbound on
// purpose, and metrics.Add sums every one of them.
func checkStatsStruct[T any](t *testing.T) {
	t.Helper()
	checkTags(t, reflect.TypeFor[T]())
	var a, b, sum, want T
	primes(&a, 0)
	primes(&b, 100)
	metrics.Add(&sum, &a)
	metrics.Add(&sum, &b)
	sumFields(&want, &a)
	sumFields(&want, &b)
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("metrics.Add over %T:\n got %+v\nwant %+v", sum, sum, want)
	}
}

func checkTags(t *testing.T, typ reflect.Type) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			continue
		}
		if _, tagged := f.Tag.Lookup("metric"); !tagged && !unboundOnPurpose[f.Name] {
			t.Errorf("%v.%s is neither a cell (no metric tag) nor listed as unbound on purpose", typ, f.Name)
		}
	}
}

// TestCounterSpelledOnce: the field declaration is the only place a
// counter exists, so a field without a tag is a counter nobody can see and
// a fold that skipped one would read zero on chips. Every statistics
// struct is checked for both, and the cells a machine ends up with — their
// names and their order are the window stream's contract — are held to
// the lists captured from the binary that still registered them by hand
// (testdata/metric_names_*.txt; chip-level l2/... last, as runPoint binds
// them).
func TestCounterSpelledOnce(t *testing.T) {
	checkStatsStruct[sim.Stats](t)
	checkStatsStruct[sim.ProviderStats](t)
	checkStatsStruct[mem.Stats](t)
	checkStatsStruct[mem.BankedL2Stats](t)
	checkStatsStruct[cm.Stats](t)
	checkStatsStruct[osu.Stats](t)
	checkStatsStruct[compress.Stats](t)
	grp, ok := reflect.TypeFor[sim.SM]().FieldByName("grp")
	if !ok {
		t.Fatal("sim.SM has no per-scheduler-group statistics field")
	}
	checkTags(t, grp.Type.Elem())

	for _, c := range []struct {
		scheme Scheme
		golden string
	}{
		{SchemeRegLess, "regless"}, {SchemeBaseline, "rf"}, {SchemeRFV, "rf"}, {SchemeRFH, "rf"},
	} {
		g := assembleChip(t, "nw", c.scheme, 2, SimSetup{Capacity: DefaultCapacity, Warps: 8})
		r := g.SMs[0].Metrics
		g.L2.BindMetrics(r)
		r.CheckNames() // panics on a name bound twice
		want, err := os.ReadFile("testdata/metric_names_" + c.golden + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(r.Names(), "\n") + "\n"; got != string(want) {
			t.Errorf("%s: cell names or their order moved:\n got %q\nwant %q", c.scheme, got, want)
		}
	}
}
