package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/launch"
	"repro/internal/mem"
)

// TestFastForwardDifferential is the cycle-skip fast-forward's ground
// truth: the entire Quick-scale suite — every table, every run's cycle
// count, and every exported metrics window — must be byte-identical
// between a fast-forwarded run and a stepped one. Parallelism is pinned
// to 1 so the JSONL streams are ordered identically and can be compared
// as raw bytes. The three applications then run under every scheme, each
// kernel's statistics compared field by field.
func TestFastForwardDifferential(t *testing.T) {
	render := func(noFF bool) (tables []byte, stream []byte, suite *Suite) {
		var buf, jsonl bytes.Buffer
		opts := Quick()
		opts.Parallelism = 1
		opts.MetricsWriter = &jsonl
		opts.NoFastForward = noFF
		suite = NewSuite(opts)
		tbs, err := All(suite)
		if err != nil {
			t.Fatal(err)
		}
		if err := suite.FlushMetrics(); err != nil {
			t.Fatal(err)
		}
		for _, tb := range tbs {
			buf.WriteString(tb.Render())
			buf.WriteByte('\n')
		}
		return buf.Bytes(), jsonl.Bytes(), suite
	}

	ffTables, ffStream, ffSuite := render(false)
	stTables, stStream, stSuite := render(true)

	if !bytes.Equal(ffTables, stTables) {
		t.Error("rendered tables differ between fast-forwarded and stepped runs")
		diffLines(t, ffTables, stTables)
	}
	if !bytes.Equal(ffStream, stStream) {
		t.Error("metrics JSONL streams differ between fast-forwarded and stepped runs")
		diffLines(t, ffStream, stStream)
	}

	ffRuns, stRuns := cachedRuns(ffSuite), cachedRuns(stSuite)
	if len(ffRuns) != len(stRuns) || len(ffRuns) == 0 {
		t.Fatalf("run counts differ: %d vs %d", len(ffRuns), len(stRuns))
	}
	var skipped, jumps uint64
	for i, fr := range ffRuns {
		sr := stRuns[i]
		if fr.Bench != sr.Bench || fr.Scheme != sr.Scheme || fr.Capacity != sr.Capacity {
			t.Fatalf("run %d key mismatch: %s/%s/%d vs %s/%s/%d",
				i, fr.Bench, fr.Scheme, fr.Capacity, sr.Bench, sr.Scheme, sr.Capacity)
		}
		if fr.Stats.Cycles != sr.Stats.Cycles {
			t.Errorf("%s/%s/%d: cycles %d (ff) vs %d (stepped)",
				fr.Bench, fr.Scheme, fr.Capacity, fr.Stats.Cycles, sr.Stats.Cycles)
		}
		if fr.Stats.DynInsns != sr.Stats.DynInsns || fr.Stats.IssueStalls != sr.Stats.IssueStalls {
			t.Errorf("%s/%s/%d: insns/stalls diverge: (%d,%d) vs (%d,%d)",
				fr.Bench, fr.Scheme, fr.Capacity,
				fr.Stats.DynInsns, fr.Stats.IssueStalls, sr.Stats.DynInsns, sr.Stats.IssueStalls)
		}
		if fr.Prov != sr.Prov {
			t.Errorf("%s/%s/%d: provider stats diverge", fr.Bench, fr.Scheme, fr.Capacity)
		}
		if fr.Mem != sr.Mem {
			t.Errorf("%s/%s/%d: memory stats diverge", fr.Bench, fr.Scheme, fr.Capacity)
		}
		if sr.Stats.FFSkippedCycles != 0 || sr.Stats.FFJumps != 0 {
			t.Errorf("%s/%s/%d: stepped run recorded fast-forward activity (%d cycles, %d jumps)",
				sr.Bench, sr.Scheme, sr.Capacity, sr.Stats.FFSkippedCycles, sr.Stats.FFJumps)
		}
		skipped += fr.Stats.FFSkippedCycles
		jumps += fr.Stats.FFJumps
	}
	if skipped == 0 || jumps == 0 {
		t.Fatalf("fast-forward never engaged across the suite (skipped %d, jumps %d) — the differential proved nothing",
			skipped, jumps)
	}
	t.Logf("fast-forward skipped %d cycles over %d jumps with identical output", skipped, jumps)

	// The same over standing memory: an application's kernels share one
	// hierarchy, whose clock a later kernel's SM (starting at zero) must
	// not be compared against.
	for _, app := range kernels.Apps() {
		for _, scheme := range Schemes() {
			run := func(noFF bool) *launch.Result {
				su := Quick().Setup(DefaultCapacity)
				su.NoFastForward = noFF
				su.Hier = mem.New(mem.DefaultConfig())
				res, err := Launch(app.Kernels, scheme, 1, su.Warps, su)
				if err != nil {
					t.Fatalf("%s/%s noFF=%v: %v", app.Name, scheme, noFF, err)
				}
				return res
			}
			ff, st := run(false), run(true)
			if ff.FFJumps == 0 || st.FFJumps != 0 {
				t.Errorf("%s/%s: %d jumps fast-forwarded, %d stepped", app.Name, scheme, ff.FFJumps, st.FFJumps)
			}
			for i, fr := range ff.PerLaunch {
				a, b := *fr.PerSM[0], *st.PerLaunch[i].PerSM[0]
				a.FFSkippedCycles, a.FFJumps = 0, 0
				if !reflect.DeepEqual(a, b) {
					t.Errorf("%s/%s kernel %d diverges:\nff      %+v\nstepped %+v", app.Name, scheme, i, a, b)
				}
			}
		}
	}
}

// diffLines reports the first differing line of two byte streams.
func diffLines(t *testing.T, a, b []byte) {
	t.Helper()
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			t.Errorf("first divergence at line %d:\n  ff:      %s\n  stepped: %s", i+1, al[i], bl[i])
			return
		}
	}
	t.Errorf("streams differ in length: %d vs %d lines", len(al), len(bl))
}

// TestFastForwardTwoLevelBarrierChurnParity pins the two-level scheduler
// regression the Quick-scale differential cannot see: at 64 warps,
// barrier-stalled warps churn through the active set on zero-issue
// cycles (promote admits them, the next pick demotes them), rotating
// pending order without issuing. A skip across such a span used to land
// with a different active set than a stepped run and change the cycle
// count. The scheduler frozen() gate must hold the fast-forward back
// exactly there — and still engage elsewhere.
func TestFastForwardTwoLevelBarrierChurnParity(t *testing.T) {
	run := func(noFF bool) *Run {
		s := NewSuite(Options{Warps: 64, Benchmarks: []string{"hotspot"}, MaxCycles: 60_000_000, NoFastForward: noFF})
		r, err := s.Get("hotspot", SchemeBaseline2L, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ff, st := run(false), run(true)
	if ff.Stats.Cycles != st.Stats.Cycles || ff.Stats.WorkingSetKB != st.Stats.WorkingSetKB {
		t.Fatalf("two-level fast-forward diverged: cycles %d/%d working set %.3f/%.3f",
			ff.Stats.Cycles, st.Stats.Cycles, ff.Stats.WorkingSetKB, st.Stats.WorkingSetKB)
	}
	if ff.Stats.IssueStalls != st.Stats.IssueStalls || ff.Mem != st.Mem {
		t.Fatalf("two-level fast-forward stall/memory stats diverged")
	}
	if ff.Stats.FFJumps == 0 {
		t.Fatal("fast-forward never engaged under the two-level scheduler")
	}
}
