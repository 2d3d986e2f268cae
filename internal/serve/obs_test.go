package serve

// Observability-layer tests: run traces (span tiling, Perfetto export),
// Prometheus exposition, SSE sweep/metrics streams (completion, a slow
// client, disconnect cleanup, window overflow), deep-dive reports, and the
// /healthz build/store fields.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// traceTree fetches a completed run's span tree.
func traceTree(t *testing.T, s *Server, id string) *obs.Node {
	t.Helper()
	var resp struct {
		ID   string    `json:"id"`
		Root *obs.Node `json:"root"`
	}
	if code := doJSON(t, s.Handler(), "GET", "/v1/runs/"+id+"/trace", "", nil, &resp); code != http.StatusOK {
		t.Fatalf("GET trace: code %d", code)
	}
	if resp.Root == nil {
		t.Fatal("trace has no root")
	}
	return resp.Root
}

// assertTiling checks the root's children are the named spans, adjacent
// (each starts exactly where the previous ended), and that together they
// cover the root span exactly.
func assertTiling(t *testing.T, root *obs.Node, names []string) {
	t.Helper()
	if len(root.Children) != len(names) {
		var got []string
		for _, c := range root.Children {
			got = append(got, c.Name)
		}
		t.Fatalf("root children = %v, want %v", got, names)
	}
	cursor := root.StartUS
	for i, c := range root.Children {
		if c.Name != names[i] {
			t.Fatalf("child %d = %q, want %q", i, c.Name, names[i])
		}
		if c.StartUS != cursor {
			t.Fatalf("child %q starts at %dus, want %dus (gap/overlap)", c.Name, c.StartUS, cursor)
		}
		cursor = c.StartUS + c.DurUS
	}
	if end := root.StartUS + root.DurUS; cursor != end {
		t.Fatalf("children end at %dus, root ends at %dus — spans do not tile the run", cursor, end)
	}
}

func TestRunTraceTilesExecution(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir, testOpts())
	var st RunStatus
	code := doJSON(t, s.Handler(), "POST", "/v1/runs?wait=1", "c", RunRequest{Bench: "nw", Scheme: "baseline"}, &st)
	if code != http.StatusOK || st.Status != "done" {
		t.Fatalf("run: code %d status %q", code, st.Status)
	}
	assertTiling(t, traceTree(t, s, st.ID), []string{"queue", "store-get", "simulate", "assemble", "store-put"})

	// The simulate span carries the suite's child spans.
	root := traceTree(t, s, st.ID)
	var simNode *obs.Node
	for _, c := range root.Children {
		if c.Name == "simulate" {
			simNode = c
		}
	}
	var kids []string
	for _, c := range simNode.Children {
		kids = append(kids, c.Name)
	}
	if want := []string{"kernel-load", "build", "run"}; fmt.Sprint(kids) != fmt.Sprint(want) {
		t.Fatalf("simulate children = %v, want %v", kids, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A warm process serving the same key from disk records a hit-shaped
	// trace: queue and store lookup only.
	warm := newTestServer(t, dir, testOpts())
	defer warm.Close()
	var wst RunStatus
	doJSON(t, warm.Handler(), "POST", "/v1/runs?wait=1", "c", RunRequest{Bench: "nw", Scheme: "baseline"}, &wst)
	if !wst.Cached {
		t.Fatal("warm run not served from store")
	}
	assertTiling(t, traceTree(t, warm, wst.ID), []string{"queue", "store-get"})
}

// TestTraceSizedPerJobKind: a miss records exactly missSpans spans and a
// disk hit exactly hitSpans, the counts each kind's trace is sized for.
// That neither has room left over — one span more allocates — is a pair
// of ledger rows (TestAllocations).
func TestTraceSizedPerJobKind(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range []struct {
		what  string
		spans int
	}{{"miss", missSpans}, {"disk hit", hitSpans}} {
		s := newTestServer(t, dir, testOpts())
		if code, body := post(t, s.Handler(), "/v1/runs?wait=1", "", RunRequest{Bench: "nw", Scheme: "regless"}); code != http.StatusOK {
			t.Fatalf("%s = %d %s", kind.what, code, body)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if n := len(theJob(t, s).trace.Spans()); n != kind.spans {
			t.Errorf("a %s records %d spans, its trace is sized for %d", kind.what, n, kind.spans)
		}
	}
}

func TestRunTracePerfettoExport(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	var st RunStatus
	doJSON(t, s.Handler(), "POST", "/v1/runs?wait=1", "c", RunRequest{Bench: "nw", Scheme: "baseline"}, &st)

	req := httptest.NewRequest("GET", "/v1/runs/"+st.ID+"/trace?format=perfetto", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("perfetto trace: code %d", rec.Code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 5 {
		t.Fatalf("perfetto export has %d events, want >= 5", len(doc.TraceEvents))
	}
	if doc.OtherData["kind"] != "service-trace" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}

	// Incomplete runs refuse a trace (409), unknown runs 404.
	if code := doJSON(t, s.Handler(), "GET", "/v1/runs/nope/trace", "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace: code %d, want 404", code)
	}
}

func TestMetricszPrometheusFormat(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	doJSON(t, s.Handler(), "POST", "/v1/runs?wait=1", "c", RunRequest{Bench: "nw", Scheme: "baseline"}, nil)

	req := httptest.NewRequest("GET", "/metricsz?format=prom", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("prom scrape: code %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, w := range []string{
		"# TYPE regless_serve_span_simulate_us histogram",
		"regless_serve_span_simulate_us_bucket{le=\"+Inf\"} 1",
		"regless_serve_span_simulate_us_count 1",
		"# TYPE regless_serve_submissions_total counter",
		"# TYPE regless_serve_queue_depth gauge",
	} {
		if !strings.Contains(body, w) {
			t.Fatalf("prom output missing %q:\n%s", w, body)
		}
	}

	// The default format stays the JSON map reglessload scrapes.
	var m map[string]uint64
	if code := doJSON(t, s.Handler(), "GET", "/metricsz", "", nil, &m); code != http.StatusOK {
		t.Fatalf("json scrape: code %d", code)
	}
	if _, ok := m["serve/hits"]; !ok {
		t.Fatal("JSON metricsz lost serve/hits")
	}
}

// sseEvent is one parsed frame from a test stream.
type sseEvent struct {
	name string
	data string
}

// readSSE parses frames off the stream until the named terminal event
// (inclusive) or EOF.
func readSSE(t *testing.T, r *bufio.Reader, until string) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return out
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			out = append(out, cur)
			if cur.name == until {
				return out
			}
			cur = sseEvent{}
		}
	}
}

func TestSweepEventsStreamToCompletion(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sw SweepStatus
	code := doJSON(t, s.Handler(), "POST", "/v1/sweeps", "c",
		SweepRequest{Benchmarks: []string{"nw", "bfs"}, Schemes: []string{"baseline", "regless"}}, &sw)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("sweep submit: code %d", code)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sw.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, bufio.NewReader(resp.Body), "summary")
	var runs int
	var summary string
	for _, ev := range events {
		switch ev.name {
		case "run":
			runs++
			var re runEvent
			if err := json.Unmarshal([]byte(ev.data), &re); err != nil {
				t.Fatalf("bad run event %q: %v", ev.data, err)
			}
			if re.Status != "done" {
				t.Fatalf("run event status %q: %s", re.Status, ev.data)
			}
		case "dropped":
			t.Fatalf("unexpected drop on a healthy stream: %s", ev.data)
		case "summary":
			summary = ev.data
		}
	}
	if runs != sw.Total {
		t.Fatalf("streamed %d run events, sweep has %d jobs", runs, sw.Total)
	}
	var sum struct {
		Status    string `json:"status"`
		Total     int    `json:"total"`
		Completed int    `json:"completed"`
	}
	if err := json.Unmarshal([]byte(summary), &sum); err != nil || sum.Status != "done" || sum.Completed != sw.Total {
		t.Fatalf("bad summary %q (err %v)", summary, err)
	}
}

// gateWriter is an SSE sink whose first Write blocks until released —
// the shape of a stalled client socket.
type gateWriter struct {
	gate <-chan struct{}
	mu   sync.Mutex
	buf  bytes.Buffer
	hdr  http.Header
}

func (w *gateWriter) Header() http.Header { return w.hdr }
func (w *gateWriter) WriteHeader(int)     {}
func (w *gateWriter) Flush()              {}
func (w *gateWriter) Write(p []byte) (int, error) {
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}
func (w *gateWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSweepEventsSlowClientLosesNothing: a client whose socket is stalled
// while every job of a sweep larger than a window subscriber's buffer ends
// still reads one run event per job, then the summary, and nothing drops.
func TestSweepEventsSlowClientLosesNothing(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	hold := make(chan struct{})
	s.testExecGate = func(j *job) { <-hold; j.cancel() } // each job ends unsimulated
	var caps []int
	for c := 32; len(caps) < 80; c += 32 {
		caps = append(caps, c)
	}
	var sw SweepStatus
	doJSON(t, s.Handler(), "POST", "/v1/sweeps", "c",
		SweepRequest{Benchmarks: []string{"nw"}, Schemes: []string{"regless"}, Capacities: caps}, &sw)

	writerGate := make(chan struct{})
	w := &gateWriter{gate: writerGate, hdr: http.Header{}}
	req := httptest.NewRequest("GET", "/v1/sweeps/"+sw.ID+"/events", nil)
	req.SetPathValue("id", sw.ID)
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		s.handleSweepEvents(w, req)
	}()
	close(hold)
	waitUntil(t, "every job to end", func() bool { return counter(t, s, "serve/canceled") == uint64(len(caps)) })
	close(writerGate)
	select {
	case <-handlerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not end after its sweep")
	}

	events := readSSE(t, bufio.NewReader(strings.NewReader(w.String())), "summary")
	for _, ev := range events[:len(events)-1] {
		if ev.name != "run" {
			t.Fatalf("slow client got a %q event: %s", ev.name, ev.data)
		}
	}
	if len(events) != len(caps)+1 || events[len(caps)].name != "summary" {
		t.Fatalf("slow client read %d events, want %d runs and the summary:\n%s", len(events), len(caps), w)
	}
	if n := counter(t, s, "serve/sse_dropped"); n != 0 {
		t.Fatalf("serve/sse_dropped = %d, want 0", n)
	}
}

func TestSweepEventsDisconnectCleansUp(t *testing.T) {
	hold := make(chan struct{})
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	s.testExecGate = func(*job) { <-hold }
	defer close(hold)

	var sw SweepStatus
	doJSON(t, s.Handler(), "POST", "/v1/sweeps", "c",
		SweepRequest{Benchmarks: []string{"nw"}, Schemes: []string{"baseline", "regless"}}, &sw)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/sweeps/"+sw.ID+"/events", nil).WithContext(ctx)
	req.SetPathValue("id", sw.ID)
	go s.handleSweepEvents(httptest.NewRecorder(), req)
	// The handler and one watcher per held job.
	waitUntil(t, "the stream to watch both jobs", func() bool { return streamGoroutines() == 3 })

	// Mid-stream disconnect, with both jobs still held: the handler
	// returns and nothing it started outlives it.
	cancel()
	waitUntil(t, "the handler and its watchers to exit", func() bool { return streamGoroutines() == 0 })
}

// streamGoroutines counts the goroutines in a sweep stream's handler or
// started by it.
func streamGoroutines() (n int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "handleSweepEvents") {
			n++
		}
	}
	return n
}

// TestMetricsStreamSlowClientDrops: the window stream is pushed by the
// registry, so a stalled subscriber loses what its buffer cannot hold and
// is told how many with one dropped marker.
func TestMetricsStreamSlowClientDrops(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	// A hub of its own: the server's ticks cannot reach this subscriber.
	hub := &winHub{}
	st := &sseStream{ch: make(chan []byte, windowBuffer), drop: s.cSSEDropped}
	hub.subscribe(st)
	gate, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	w := &gateWriter{gate: gate, hdr: http.Header{}}
	go func() {
		defer close(done)
		s.pump(w, httptest.NewRequest("GET", "/v1/metricsz/stream", nil), st, stop)
	}()
	hub.Emit(metrics.Window{})
	waitUntil(t, "the writer to take the first window", func() bool { return len(st.ch) == 0 })
	const lost = 5
	for range windowBuffer + lost {
		hub.Emit(metrics.Window{})
	}
	close(gate)
	waitUntil(t, "the buffer to drain", func() bool { return len(st.ch) == 0 })
	close(stop)
	<-done

	out := w.String()
	if got := strings.Count(out, "event: window"); got != 1+windowBuffer {
		t.Fatalf("%d windows written, want %d", got, 1+windowBuffer)
	}
	if strings.Count(out, "event: dropped") != 1 || !strings.Contains(out, fmt.Sprintf(`{"dropped":%d}`, lost)) {
		t.Fatalf("want one dropped marker of %d:\n%s", lost, out)
	}
	if n := counter(t, s, "serve/sse_dropped"); n != lost {
		t.Fatalf("serve/sse_dropped = %d, want %d", n, lost)
	}
}

// TestMetricsStreamDeliversWindows waits out the server's one-second
// window period for a live window.
func TestMetricsStreamDeliversWindows(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/metricsz/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(t, bufio.NewReader(resp.Body), "window")
	if len(events) == 0 {
		t.Fatal("no window event arrived")
	}
	last := events[len(events)-1]
	var win struct {
		Window   *int              `json:"window"`
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(last.data), &win); err != nil || win.Window == nil {
		t.Fatalf("bad window frame %q (err %v)", last.data, err)
	}
}

func TestReportRunAttachesAnalysis(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	h := s.Handler()

	var plain, rep RunStatus
	doJSON(t, h, "POST", "/v1/runs?wait=1", "c", RunRequest{Bench: "nw", Scheme: "regless"}, &plain)
	code := doJSON(t, h, "POST", "/v1/runs?wait=1", "c",
		RunRequest{Bench: "nw", Scheme: "regless", Report: []string{"stalls", "preload"}}, &rep)
	if code != http.StatusOK || rep.Status != "done" {
		t.Fatalf("report run: code %d status %q error %q", code, rep.Status, rep.Error)
	}
	if rep.ID == plain.ID {
		t.Fatal("reported run aliases the plain run's cache key")
	}

	var plainRes, repRes RunResult
	if err := json.Unmarshal(plain.Result, &plainRes); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rep.Result, &repRes); err != nil {
		t.Fatal(err)
	}
	// The event layer is passive: the instrumented run's statistics match
	// the plain run exactly (Stats holds slices, so compare encodings).
	pb, _ := json.Marshal(plainRes.Stats)
	rb, _ := json.Marshal(repRes.Stats)
	if !bytes.Equal(pb, rb) {
		t.Fatalf("instrumented stats diverge from plain run:\n%s\n%s", pb, rb)
	}
	r := repRes.Report
	if r == nil {
		t.Fatal("result carries no report")
	}
	if want := []string{"preload", "stalls"}; fmt.Sprint(r.Kinds) != fmt.Sprint(want) {
		t.Fatalf("kinds = %v, want canonical %v", r.Kinds, want)
	}
	if len(r.SMs) != 1 || r.SMs[0].Stalls == nil || r.SMs[0].Preload == nil {
		t.Fatalf("report sections missing: %+v", r.SMs)
	}
	if !r.SMs[0].Stalls.Tiles {
		t.Fatal("stall attribution does not tile the run's issue slots")
	}
	if r.SMs[0].Preload.Preloads == 0 {
		t.Fatal("regless run reports zero preloads")
	}
	if plainRes.Report != nil {
		t.Fatal("plain run grew a report")
	}

	// A repeat reported request is a disk hit serving identical bytes.
	var again RunStatus
	doJSON(t, h, "POST", "/v1/runs?wait=1", "c2",
		RunRequest{Bench: "nw", Scheme: "regless", Report: []string{"preload", "stalls", "stalls"}}, &again)
	if again.ID != rep.ID {
		t.Fatal("report list canonicalization is order/dup sensitive")
	}

	// Unknown sections are admission errors.
	if code := doJSON(t, h, "POST", "/v1/runs", "c", RunRequest{Bench: "nw", Scheme: "regless", Report: []string{"vibes"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown report section: code %d, want 400", code)
	}
}

func TestHealthzBuildAndStoreFields(t *testing.T) {
	s, err := New(Config{Opts: testOpts(), StoreDir: t.TempDir(), GitSHA: "abc123"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var h Health
	doJSON(t, s.Handler(), "GET", "/healthz", "", nil, &h)
	if h.GitSHA != "abc123" {
		t.Fatalf("git_sha = %q", h.GitSHA)
	}
	if h.StoreEntries != 0 {
		t.Fatalf("fresh store reports %d entries", h.StoreEntries)
	}
	doJSON(t, s.Handler(), "POST", "/v1/runs?wait=1", "c", RunRequest{Bench: "nw", Scheme: "baseline"}, nil)
	doJSON(t, s.Handler(), "GET", "/healthz", "", nil, &h)
	if h.StoreEntries != 1 {
		t.Fatalf("store_entries = %d after one persisted run", h.StoreEntries)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("uptime %f", h.UptimeSeconds)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	off := newTestServer(t, t.TempDir(), testOpts())
	defer off.Close()
	if code := doJSON(t, off.Handler(), "GET", "/debug/pprof/", "", nil, nil); code != http.StatusNotFound {
		t.Fatalf("pprof served without -pprof: code %d", code)
	}
	on, err := New(Config{Opts: testOpts(), StoreDir: t.TempDir(), EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	on.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index with -pprof: code %d", rec.Code)
	}
}
