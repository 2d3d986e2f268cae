package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

// TestFastForwardDifferential is the cycle-skip fast-forward's ground
// truth: the entire Quick-scale suite — every table, every run's cycle
// count, and every exported metrics window — must be byte-identical
// between a fast-forwarded run and a stepped one. Parallelism is pinned
// to 1 so the JSONL streams are ordered identically and can be compared
// as raw bytes. TestChipFFParity holds the same relation on drawn
// machines: chips, launch sequences and standing memory.
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

	// Every cached run is the same but for the fast-forward's counters,
	// which the stepped suite must read zero.
	ffRuns, stRuns := cachedRuns(ffSuite), cachedRuns(stSuite)
	var jumps uint64
	for i, r := range ffRuns {
		jumps += r.Chip.FFJumps
		r.Chip.FFSkippedCycles, r.Chip.FFJumps, r.Stats.FFSkippedCycles, r.Stats.FFJumps = 0, 0, 0, 0
		if i >= len(stRuns) || !reflect.DeepEqual(r, stRuns[i]) {
			t.Errorf("%s/%s/%d: the run differs between the fast-forwarded and stepped suites", r.Bench, r.Scheme, r.Capacity)
		}
	}
	if len(ffRuns) != len(stRuns) || jumps == 0 {
		t.Fatalf("%d runs fast-forwarded in %d jumps, %d stepped: the differential proved nothing", len(ffRuns), jumps, len(stRuns))
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
