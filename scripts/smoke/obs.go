package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// checkObservability exercises the service-level observability surface of
// a live `regless serve` end to end and fails on any malformed output:
//
//   - /healthz must report uptime and a non-negative store entry count
//   - a sweep must be followable over SSE to its terminal summary event
//     without polling
//   - a completed run's trace must be a span tree whose children tile
//     the root exactly, and its Perfetto export must parse
//   - /metricsz?format=prom must survive a strict Prometheus text-format
//     parse: TYPE lines before samples, unique series, monotone
//     cumulative buckets ending at +Inf, _count == +Inf bucket
//   - /v1/metricsz/stream must deliver a window event
func checkObservability(base string) {
	var h serve.Health
	if code, _ := call(base+"/healthz", "", &h); code != http.StatusOK && code != http.StatusServiceUnavailable {
		fail("healthz: HTTP %d", code)
	}
	if h.Status == "" || h.UptimeSeconds <= 0 {
		fail("healthz: status %q uptime %f", h.Status, h.UptimeSeconds)
	}
	if h.StoreEntries < 0 {
		fail("healthz: store listing failed (store_entries %d)", h.StoreEntries)
	}
	runID := checkSweepStream(base)
	checkTrace(base, runID)
	checkProm(base)
	checkMetricsStream(base)
}

// checkSweepStream submits a sweep and follows it over SSE — no polling
// — until the summary event reports it done. Returns one finished run id.
func checkSweepStream(base string) string {
	var sw serve.SweepStatus
	code, raw := call(base+"/v1/sweeps", `{"benchmarks":["nw"],"schemes":["baseline","regless"]}`, &sw)
	if code != http.StatusAccepted && code != http.StatusOK || sw.ID == "" {
		fail("POST /v1/sweeps: HTTP %d: %s", code, raw)
	}
	sresp := openStream(base + "/v1/sweeps/" + sw.ID + "/events")
	defer sresp.Body.Close()
	var runID string
	runs := 0
	event, data := "", ""
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case line == "" && event != "":
			switch event {
			case "run":
				runs++
				var re serve.RunStatus
				if err := json.Unmarshal([]byte(data), &re); err != nil || re.ID == "" {
					fail("bad run event %q: %v", data, err)
				}
				if re.Status == "done" {
					runID = re.ID
				}
			case "summary":
				var sum serve.SweepStatus
				if err := json.Unmarshal([]byte(data), &sum); err != nil {
					fail("bad summary event %q: %v", data, err)
				}
				if sum.Completed != sum.Total || sum.Total != sw.Total {
					fail("summary %s does not cover the sweep (%d jobs)", data, sw.Total)
				}
				if runs == 0 {
					fail("summary arrived before any run event")
				}
				if runID == "" {
					fail("no run completed successfully: %s", data)
				}
				return runID
			}
			event, data = "", ""
		}
	}
	fail("sweep event stream ended without a summary (read %d run events): %v", runs, sc.Err())
	return ""
}

func checkTrace(base, runID string) {
	var tr struct {
		Root *obs.Node `json:"root"`
	}
	if code, _ := call(base+"/v1/runs/"+runID+"/trace", "", &tr); code != http.StatusOK {
		fail("GET run trace: HTTP %d", code)
	}
	if tr.Root == nil || tr.Root.Name != "run" || len(tr.Root.Children) < 2 {
		fail("trace root malformed: %+v", tr.Root)
	}
	cursor := tr.Root.StartUS
	for _, c := range tr.Root.Children {
		if c.StartUS != cursor {
			fail("span %q starts at %dus, previous ended at %dus (gap/overlap)", c.Name, c.StartUS, cursor)
		}
		cursor = c.StartUS + c.DurUS
	}
	if end := tr.Root.StartUS + tr.Root.DurUS; cursor != end {
		fail("child spans end at %dus but the run span ends at %dus", cursor, end)
	}

	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if code, _ := call(base+"/v1/runs/"+runID+"/trace?format=perfetto", "", &doc); code != http.StatusOK {
		fail("GET perfetto trace: HTTP %d", code)
	}
	if len(doc.TraceEvents) == 0 {
		fail("perfetto export has no events")
	}
}

// checkProm fetches the Prometheus exposition and applies a small strict
// parser: every sample belongs to a family declared by a preceding TYPE
// line, series are unique, histogram buckets are cumulative with
// strictly-increasing le ending at +Inf, and _count equals the +Inf
// bucket.
func checkProm(base string) {
	resp, err := client.Get(base + "/metricsz?format=prom")
	if err != nil {
		fail("GET prom metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		fail("prom content type %q", ct)
	}

	type bucket struct {
		le  float64
		inf bool
		val uint64
	}
	type family struct {
		kind    string
		buckets []bucket
		sum     bool
		count   uint64
		hasCnt  bool
		samples int
	}
	families := map[string]*family{}
	series := map[string]bool{}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		lines++
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "TYPE" {
				fail("bad comment line %q", line)
			}
			name, kind := f[2], f[3]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				fail("unknown TYPE %q for %s", kind, name)
			}
			if families[name] != nil {
				fail("duplicate TYPE for %s", name)
			}
			families[name] = &family{kind: kind}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			fail("bad sample line %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseUint(valStr, 10, 64)
		if err != nil {
			fail("bad sample value in %q: %v", line, err)
		}
		if series[key] {
			fail("duplicate series %q", key)
		}
		series[key] = true
		name := key
		var label string
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				fail("unterminated labels in %q", line)
			}
			name, label = key[:i], key[i+1:len(key)-1]
		}
		// Resolve the family: histogram samples use _bucket/_sum/_count
		// suffixes on the declared name.
		famName, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, sfx) {
				if f := families[strings.TrimSuffix(name, sfx)]; f != nil && f.kind == "histogram" {
					famName, suffix = strings.TrimSuffix(name, sfx), sfx
				}
			}
		}
		fam := families[famName]
		if fam == nil {
			fail("sample %q has no preceding TYPE line", line)
		}
		fam.samples++
		if fam.kind != "histogram" {
			if label != "" {
				fail("unexpected labels on %s sample %q", fam.kind, line)
			}
			continue
		}
		switch suffix {
		case "_bucket":
			const pre = `le="`
			if !strings.HasPrefix(label, pre) || !strings.HasSuffix(label, `"`) {
				fail("histogram bucket without le label: %q", line)
			}
			leStr := label[len(pre) : len(label)-1]
			b := bucket{val: val, inf: leStr == "+Inf"}
			if !b.inf {
				if b.le, err = strconv.ParseFloat(leStr, 64); err != nil {
					fail("bad le %q in %q", leStr, line)
				}
			}
			fam.buckets = append(fam.buckets, b)
		case "_sum":
			fam.sum = true
		case "_count":
			fam.count, fam.hasCnt = val, true
		default:
			fail("stray sample %q inside histogram family %s", line, famName)
		}
	}
	if err := sc.Err(); err != nil {
		fail("reading prom body: %v", err)
	}
	if lines == 0 {
		fail("prom exposition is empty")
	}

	for name, fam := range families {
		if fam.samples == 0 {
			fail("family %s declared but has no samples", name)
		}
		if fam.kind != "histogram" {
			continue
		}
		if len(fam.buckets) < 2 || !fam.sum || !fam.hasCnt {
			fail("histogram %s incomplete (%d buckets, sum %v, count %v)",
				name, len(fam.buckets), fam.sum, fam.hasCnt)
		}
		for i, b := range fam.buckets {
			last := i == len(fam.buckets)-1
			if b.inf != last {
				fail("histogram %s: +Inf bucket must be last", name)
			}
			if i > 0 {
				prev := fam.buckets[i-1]
				if !last && b.le <= prev.le {
					fail("histogram %s: le not increasing at bucket %d", name, i)
				}
				if b.val < prev.val {
					fail("histogram %s: buckets not cumulative at le index %d", name, i)
				}
			}
		}
		if inf := fam.buckets[len(fam.buckets)-1].val; fam.count != inf {
			fail("histogram %s: _count %d != +Inf bucket %d", name, fam.count, inf)
		}
	}

	// The frozen names this PR promises must be present.
	for _, want := range []string{
		"regless_serve_span_queue_us", "regless_serve_span_store_get_us",
		"regless_serve_span_simulate_us", "regless_serve_span_assemble_us",
		"regless_serve_span_store_put_us", "regless_serve_http_us",
	} {
		if f := families[want]; f == nil || f.kind != "histogram" {
			fail("missing span histogram %s", want)
		}
	}
	for _, want := range []string{"regless_serve_submissions_total", "regless_store_puts"} {
		if families[want] == nil {
			fail("missing family %s", want)
		}
	}
}

// checkMetricsStream waits for one live metrics window over SSE (windows
// close every second, so this is quick).
func checkMetricsStream(base string) {
	resp := openStream(base + "/v1/metricsz/stream")
	defer resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if time.Now().After(deadline) {
			break
		}
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "window":
			var win struct {
				Window *int `json:"window"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &win); err != nil || win.Window == nil {
				fail("bad window frame %q: %v", line, err)
			}
			return
		}
	}
	fail("no window event arrived on /v1/metricsz/stream: %v", sc.Err())
}
