package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// miniScale is small enough for the self-tests to finish in seconds.
// hotspot is in it because Figure 3 samples hotspot whatever the subset.
func miniScale() scale {
	return scale{Warps: 16, Benches: []string{"hotspot", "nw"}, Lifetimes: 2}
}

func TestEstimators(t *testing.T) {
	xs := []float64{9, 1, 4, 7, 3}
	if got := fastest(xs); got != 1 {
		t.Errorf("fastest = %v, want 1", got)
	}
	if got := median(xs); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	// Quartiles of 1,3,4,7,9 by linear interpolation: 3 and 7.
	if got := iqr(xs); got != 4 {
		t.Errorf("iqr = %v, want 4", got)
	}
	if got := quantile([]float64{0, 10}, 0.99); math.Abs(got-9.9) > 1e-9 {
		t.Errorf("p99 of {0,10} = %v, want 9.9", got)
	}
	if got := mean(xs); got != 4.8 {
		t.Errorf("mean = %v, want 4.8", got)
	}
	if !reflect.DeepEqual(xs, []float64{9, 1, 4, 7, 3}) {
		t.Errorf("estimators reordered their input: %v", xs)
	}
	if !math.IsNaN(fastest(nil)) || !math.IsNaN(median(nil)) {
		t.Error("estimators of no samples should be NaN")
	}
	if got := relDiff(100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("relDiff(100,110) = %v, want 0.10", got)
	}
	if relDiff(5, 5) != 0 || relDiff(0, 0) != 0 {
		t.Error("relDiff of equal readings should be 0")
	}
}

func TestOpListsFollowTheSeed(t *testing.T) {
	sc := fullScale()
	wantLen := map[string]int{"suite_1sm": 231, "chip_4sm": 42, "serve_cold": 105, "serve_warm": 105}
	for _, spec := range specs {
		a, b, c := shuffledOps(spec, sc, 1), shuffledOps(spec, sc, 1), shuffledOps(spec, sc, 2)
		if len(a) != wantLen[spec.name] {
			t.Errorf("%s: %d ops, want %d", spec.name, len(a), wantLen[spec.name])
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two op orders", spec.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same op order", spec.name)
		}
		seen := map[op]bool{}
		for _, o := range c {
			seen[o] = true
		}
		for _, o := range canonicalOps(spec, sc) {
			if !seen[o] {
				t.Errorf("%s: shuffling lost %s", spec.name, o)
			}
		}
	}
}

// miniSamples runs a miniature of the measurement protocol (no
// cold-start probes: those re-execute the harness binary).
func miniSamples(t *testing.T, spec workloadSpec) *samples {
	t.Helper()
	sc := miniScale()
	scratch := t.TempDir()
	w := spec.build(spec, shuffledOps(spec, sc, 1), sc, scratch, false)
	s, err := measure(w, canonicalOps(spec, sc), 0, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMiniaturePassOfEachWorkload(t *testing.T) {
	for _, spec := range specs {
		s := miniSamples(t, spec)
		if s.failed != 0 || s.ops == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", spec.name, s.failed, s.ops, s.errs)
		}
		if len(s.passes) < 2 {
			t.Errorf("%s: %d timed passes, want at least 2", spec.name, len(s.passes))
		}
		for _, p := range s.passes {
			if p.simCycles == 0 || p.simCycles != s.ref.simCycles {
				t.Errorf("%s: pass sim_cycles %d, warm-up %d", spec.name, p.simCycles, s.ref.simCycles)
			}
		}
	}
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// TestEmittedMetricsMatchBenchmarkJSON holds the harness to its
// contract: it emits exactly the metrics BENCHMARK.json lists, under
// well-formed names, with the units, bounds, workloads and run length
// listed there.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []contractMetric `json:"end_to_end"`
		PerLayer   []contractMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", contract.RunSeconds, defaultSeconds)
	}
	if len(contract.Workloads) != len(specs) {
		t.Fatalf("%d workloads listed, harness has %d", len(contract.Workloads), len(specs))
	}
	for i, spec := range specs {
		if w := contract.Workloads[i]; w.Name != spec.name || w.Why != spec.why {
			t.Errorf("workload %d: listed %q %q, harness has %q %q", i, w.Name, w.Why, spec.name, spec.why)
		}
	}

	spec, _ := specByName("serve_warm")
	s := miniSamples(t, spec)
	e2e := s.endToEnd()
	if len(contract.EndToEnd) != len(endToEndBounds) {
		t.Errorf("%d end-to-end metrics listed, harness bounds %d", len(contract.EndToEnd), len(endToEndBounds))
	}
	for i, c := range contract.EndToEnd {
		if i < len(endToEndBounds) && (endToEndBounds[i].name != c.Name || endToEndBounds[i].bound != c.Bound) {
			t.Errorf("end-to-end %d: listed %s bound %v, harness %s bound %v", i, c.Name, c.Bound, endToEndBounds[i].name, endToEndBounds[i].bound)
		}
	}
	compareMetricSets(t, "end_to_end", contract.EndToEnd, e2e)

	layers, errs := layerMetrics(1, miniScale(), t.TempDir())
	if len(errs) > 0 {
		t.Errorf("layer probes failed: %v", errs)
	}
	for name, m := range s.harnessMetrics(1) {
		layers[name] = m
	}
	compareMetricSets(t, "per_layer", contract.PerLayer, layers)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func compareMetricSets(t *testing.T, list string, listed []contractMetric, emitted map[string]metric) {
	t.Helper()
	seen := map[string]bool{}
	for _, c := range listed {
		seen[c.Name] = true
		m, ok := emitted[c.Name]
		if !ok {
			t.Errorf("%s lists %s, which the harness does not emit", list, c.Name)
			continue
		}
		if m.Unit != c.Unit {
			t.Errorf("%s: %s listed in %q, emitted in %q", list, c.Name, c.Unit, m.Unit)
		}
		if c.Better != "lower" && c.Better != "higher" {
			t.Errorf("%s: %s has better=%q", list, c.Name, c.Better)
		}
	}
	var extra []string
	for name := range emitted {
		if !metricName.MatchString(name) {
			t.Errorf("%s: emitted name %q is malformed", list, name)
		}
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: emitted but not listed: %v", list, extra)
	}
}
