package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// jsonlRecord mirrors one exported window for decoding in tests.
type jsonlRecord struct {
	Bench    string            `json:"bench"`
	Scheme   string            `json:"scheme"`
	Capacity int               `json:"capacity"`
	Window   int               `json:"window"`
	Start    uint64            `json:"start"`
	End      uint64            `json:"end"`
	Counters map[string]uint64 `json:"counters"`
	Gauges   map[string]uint64 `json:"gauges"`
}

// TestFig17MetricsReconcile streams per-window metrics while running the
// preload-source experiment and reconciles the JSONL stream against the
// figure's own numbers: per run, every window must parse, windows must
// tile the run ([0,c1],(c1,c2],... with increasing indices), and the
// preload-source counter deltas must sum to exactly the ProviderStats
// totals the printed breakdown is computed from.
func TestFig17MetricsReconcile(t *testing.T) {
	var stream bytes.Buffer
	opts := Quick()
	opts.MetricsWriter = &stream
	suite := NewSuite(opts)
	if _, err := runByID(suite, "fig17"); err != nil {
		t.Fatal(err)
	}
	if err := suite.FlushMetrics(); err != nil {
		t.Fatal(err)
	}

	type agg struct {
		osu, comp, l1, deep uint64
		lastWindow          int
		lastEnd             uint64
	}
	sums := map[string]*agg{}
	lines := strings.Split(strings.TrimSpace(stream.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty metrics stream")
	}
	for i, ln := range lines {
		var rec jsonlRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, ln)
		}
		key := fmt.Sprintf("%s/%s/%d", rec.Bench, rec.Scheme, rec.Capacity)
		a := sums[key]
		if a == nil {
			a = &agg{lastWindow: -1}
			sums[key] = a
		}
		if rec.Window != a.lastWindow+1 {
			t.Fatalf("%s: window %d follows %d", key, rec.Window, a.lastWindow)
		}
		if rec.Start != a.lastEnd || rec.End <= rec.Start {
			t.Fatalf("%s window %d: interval (%d,%d] does not tile previous end %d",
				key, rec.Window, rec.Start, rec.End, a.lastEnd)
		}
		a.lastWindow = rec.Window
		a.lastEnd = rec.End
		a.osu += rec.Counters["provider/preload_from_osu"]
		a.comp += rec.Counters["provider/preload_from_compressor"]
		a.l1 += rec.Counters["provider/preload_from_l1"]
		a.deep += rec.Counters["provider/preload_from_l2dram"]
	}

	runs := suite.CachedRuns()
	if len(runs) == 0 {
		t.Fatal("no cached runs")
	}
	for _, r := range runs {
		key := fmt.Sprintf("%s/%s/%d", r.Bench, r.Scheme, r.Capacity)
		a := sums[key]
		if a == nil {
			t.Fatalf("run %s missing from the metrics stream", key)
		}
		if a.osu != r.Prov.PreloadFromOSU || a.comp != r.Prov.PreloadFromCompressor ||
			a.l1 != r.Prov.PreloadFromL1 || a.deep != r.Prov.PreloadFromL2DRAM {
			t.Fatalf("%s: window deltas (osu %d, comp %d, l1 %d, deep %d) != run totals (osu %d, comp %d, l1 %d, deep %d)",
				key, a.osu, a.comp, a.l1, a.deep,
				r.Prov.PreloadFromOSU, r.Prov.PreloadFromCompressor, r.Prov.PreloadFromL1, r.Prov.PreloadFromL2DRAM)
		}
		if a.lastEnd != r.Stats.Cycles {
			t.Fatalf("%s: final window ends at %d, run at %d cycles", key, a.lastEnd, r.Stats.Cycles)
		}
	}
	if len(sums) != len(runs) {
		t.Fatalf("stream has %d runs, cache has %d", len(sums), len(runs))
	}
}

// TestMetricsStreamParallelComplete checks the mutex-serialized writer
// under a concurrent planner: every line still parses and no run is lost.
func TestMetricsStreamParallelComplete(t *testing.T) {
	var stream bytes.Buffer
	opts := Quick()
	opts.Parallelism = 8
	opts.MetricsWriter = &stream
	suite := NewSuite(opts)
	if _, err := runByID(suite, "fig17"); err != nil {
		t.Fatal(err)
	}
	if err := suite.FlushMetrics(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, ln := range strings.Split(strings.TrimSpace(stream.String()), "\n") {
		var rec jsonlRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d corrupted under parallel writes: %v", i+1, err)
		}
		seen[rec.Bench] = true
	}
	for _, bench := range suite.Opts.Benchmarks {
		if !seen[bench] {
			t.Fatalf("bench %s missing from parallel stream", bench)
		}
	}
}

// TestMetricsStreamSMLabel: the window stream names the SM only on a
// chip of several (one SM's records stay as they always were), and a
// chip's shared-L2 counters ride SM 0's stream. Streaming a multi-SM run
// used to panic: the L2 counters were bound after SM 0's registry had
// been given its sink.
func TestMetricsStreamSMLabel(t *testing.T) {
	for _, sms := range []int{1, 2} {
		var stream bytes.Buffer
		opts := chipOpts(sms)
		opts.MetricsWriter = &stream
		suite := NewSuite(opts)
		if _, err := suite.Get("bfs", SchemeBaseline, 0); err != nil {
			t.Fatal(err)
		}
		if err := suite.FlushMetrics(); err != nil {
			t.Fatal(err)
		}
		labelled, l2 := map[float64]bool{}, false
		for i, ln := range strings.Split(strings.TrimSpace(stream.String()), "\n") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(ln), &rec); err != nil {
				t.Fatalf("%d SMs: line %d: %v", sms, i+1, err)
			}
			sm, has := rec["sm"].(float64)
			if has != (sms > 1) {
				t.Fatalf("%d SMs: line %d sm label present=%v: %s", sms, i+1, has, ln)
			}
			labelled[sm] = true
			if _, ok := rec["counters"].(map[string]any)["l2/misses"]; ok {
				if sm != 0 {
					t.Fatalf("%d SMs: chip L2 counters on SM %v's stream", sms, sm)
				}
				l2 = true
			}
		}
		if len(labelled) != sms || l2 != (sms > 1) {
			t.Fatalf("%d SMs: streams from %d SMs, chip L2 counters seen=%v", sms, len(labelled), l2)
		}
	}
}
