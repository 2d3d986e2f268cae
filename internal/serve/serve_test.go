package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/store"
)

// testOpts is the reduced-scale server configuration shared by the serve
// tests: small enough that a cold simulation is fast, identical across
// cold and warm servers so keys line up.
func testOpts() experiments.Options {
	return experiments.Options{
		Warps:       8,
		Benchmarks:  []string{"nw", "bfs"},
		MaxCycles:   2_000_000,
		Parallelism: 4,
	}
}

func newTestServer(t testing.TB, dir string, opts experiments.Options) *Server {
	t.Helper()
	s, err := New(Config{Opts: opts, StoreDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// doJSON fires one request at the handler and decodes the JSON response.
func doJSON(t *testing.T, h http.Handler, method, path, client string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	if client != "" {
		req.Header.Set("X-Regless-Client", client)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad response JSON: %v\n%s", method, path, err, rec.Body.Bytes())
		}
	}
	return rec.Code
}

// counter reads one named metric from the server's registry.
func counter(t *testing.T, s *Server, name string) uint64 {
	t.Helper()
	v, ok := s.Metrics().Value(name)
	if !ok {
		t.Fatalf("metric %q not registered", name)
	}
	return v
}

// refPayload computes, via a direct Suite.Get against an independent
// suite, the exact bytes the server must serve for a run — the
// byte-identity oracle.
func refPayload(t *testing.T, suite *experiments.Suite, opts experiments.Options, bench string, scheme experiments.Scheme, capacity int) []byte {
	t.Helper()
	run, err := suite.Get(bench, scheme, capacity)
	if err != nil {
		t.Fatalf("reference Get(%s,%s,%d): %v", bench, scheme, capacity, err)
	}
	sms := opts.SMs
	if sms < 1 {
		sms = 1
	}
	raw, err := json.Marshal(RunResult{
		Bench:    run.Bench,
		Scheme:   string(run.Scheme),
		Capacity: run.Capacity,
		Warps:    opts.Warps,
		SMs:      sms,
		Stats:    *run.Stats,
		Prov:     run.Prov,
		Mem:      run.Mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestRunEndpointMatchesDirectSuite(t *testing.T) {
	opts := testOpts()
	s := newTestServer(t, t.TempDir(), opts)
	defer s.Close()
	h := s.Handler()

	var st RunStatus
	code := doJSON(t, h, "POST", "/v1/runs?wait=1", "c1", RunRequest{Bench: "nw", Scheme: "regless"}, &st)
	if code != http.StatusOK || st.Status != "done" {
		t.Fatalf("POST run = %d %q (%s)", code, st.Status, st.Error)
	}
	if st.Cached {
		t.Fatal("first run of an empty store claims cached")
	}
	want := refPayload(t, experiments.NewSuite(opts), opts, "nw", experiments.SchemeRegLess, experiments.DefaultCapacity)
	if !bytes.Equal(st.Result, want) {
		t.Fatalf("served result differs from direct Suite.Get:\n%s\n%s", st.Result, want)
	}

	// Poll endpoint returns the same job and the same bytes.
	var st2 RunStatus
	if code := doJSON(t, h, "GET", "/v1/runs/"+st.ID, "", nil, &st2); code != http.StatusOK {
		t.Fatalf("GET run = %d", code)
	}
	if !bytes.Equal(st2.Result, st.Result) {
		t.Fatal("poll returned different bytes than submit")
	}

	// Resubmission dedupes onto the same job.
	var st3 RunStatus
	doJSON(t, h, "POST", "/v1/runs?wait=1", "c2", RunRequest{Bench: "nw", Scheme: "regless", Capacity: experiments.DefaultCapacity}, &st3)
	if st3.ID != st.ID {
		t.Fatalf("explicit default capacity minted a second job: %s vs %s", st3.ID, st.ID)
	}
	if got := counter(t, s, "serve/dedup"); got != 1 {
		t.Fatalf("dedup counter = %d, want 1", got)
	}
}

func TestBadRequestsAre4xx(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	h := s.Handler()

	post := func(path, body string) int {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	cases := []struct {
		name, path, body string
	}{
		{"unknown bench", "/v1/runs", `{"bench":"nope","scheme":"regless"}`},
		{"unknown scheme", "/v1/runs", `{"bench":"nw","scheme":"nope"}`},
		{"negative capacity", "/v1/runs", `{"bench":"nw","scheme":"regless","capacity":-1}`},
		{"capacity not whole lines per bank", "/v1/runs", `{"bench":"nw","scheme":"regless","capacity":100}`},
		{"sweep capacity not whole lines per bank", "/v1/sweeps", `{"benchmarks":["nw"],"schemes":["regless"],"capacities":[256,100]}`},
		{"unknown field", "/v1/runs", `{"bench":"nw","scheme":"regless","warps":4}`},
		{"trailing garbage", "/v1/runs", `{"bench":"nw","scheme":"regless"} extra`},
		{"trailing brace", "/v1/runs", `{"bench":"nw","scheme":"regless"}}`},
		{"trailing bracket", "/v1/runs", `{"bench":"nw","scheme":"regless"}]`},
		{"trailing bracket after space", "/v1/runs", "{\"bench\":\"nw\",\"scheme\":\"regless\"}\n ]"},
		{"second object", "/v1/runs", `{"bench":"nw","scheme":"regless"}{}`},
		{"not json", "/v1/runs", `cycles go brr`},
		{"empty body", "/v1/runs", ``},
		{"empty sweep", "/v1/sweeps", `{"benchmarks":[],"schemes":["regless"]}`},
		{"sweep bad cell", "/v1/sweeps", `{"benchmarks":["nw","nope"],"schemes":["regless"]}`},
		{"sweep trailing brace", "/v1/sweeps", `{"benchmarks":["nw"],"schemes":["regless"]}}`},
		{"sweep trailing bracket", "/v1/sweeps", `{"benchmarks":["nw"],"schemes":["regless"]}]`},
		{"sweep trailing garbage", "/v1/sweeps", `{"benchmarks":["nw"],"schemes":["regless"]} extra`},
	}
	for _, c := range cases {
		if code := post(c.path, c.body); code < 400 || code >= 500 {
			t.Errorf("%s: code = %d, want 4xx", c.name, code)
		}
	}
	// A capacity the OSU cannot hold exactly is the client's mistake, under
	// the one scheme family it means anything to: baseline ignores it.
	if code := post("/v1/runs", `{"bench":"nw","scheme":"regless-nocomp","capacity":100}`); code != http.StatusBadRequest {
		t.Errorf("regless-nocomp at capacity 100 = %d, want 400", code)
	}
	if k, err := s.KeyFor(RunRequest{Bench: "nw", Scheme: "baseline", Capacity: 100}); err != nil || k.Capacity != 0 {
		t.Errorf("baseline at capacity 100: key capacity %d, %v; want 0, nil", k.Capacity, err)
	}
	if code := doJSON(t, h, "GET", "/v1/runs/deadbeef", "", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown run id = %d, want 404", code)
	}
	if code := doJSON(t, h, "GET", "/v1/sweeps/deadbeef", "", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown sweep id = %d, want 404", code)
	}
	// A bad-cell sweep admitted nothing.
	if got := counter(t, s, "serve/submissions"); got != 0 {
		t.Errorf("bad requests admitted %d submissions", got)
	}
	if got := counter(t, s, "serve/http_errors"); got == 0 {
		t.Error("http_errors counter never moved")
	}
}

// TestColdWarmRestart is the PR's acceptance proof: the same sweep
// submitted to a fresh server and again to a restarted server over the
// same store directory returns byte-identical results, with the second
// pass served entirely (100% >= 95%) from the disk store.
func TestColdWarmRestart(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	sweepReq := SweepRequest{
		Benchmarks: []string{"nw", "bfs"},
		Schemes:    []string{"baseline", "regless"},
	}

	type pass struct {
		results map[string][]byte // job id -> result bytes
		cached  map[string]bool
		table   string
		hits    uint64
		misses  uint64
	}
	runPass := func(t *testing.T) pass {
		s := newTestServer(t, dir, opts)
		defer s.Close()
		h := s.Handler()
		var sw SweepStatus
		if code := doJSON(t, h, "POST", "/v1/sweeps?wait=1", "acceptance", sweepReq, &sw); code != http.StatusOK {
			t.Fatalf("POST sweep = %d", code)
		}
		if sw.Status != "done" || sw.Total != 4 || sw.Completed != 4 || sw.Failed != 0 {
			t.Fatalf("sweep = %+v", sw)
		}
		p := pass{results: map[string][]byte{}, cached: map[string]bool{}}
		for _, r := range sw.Runs {
			var st RunStatus
			if code := doJSON(t, h, "GET", "/v1/runs/"+r.ID, "", nil, &st); code != http.StatusOK {
				t.Fatalf("GET run %s = %d", r.ID, code)
			}
			if len(st.Result) == 0 {
				t.Fatalf("run %s served no result", r.ID)
			}
			p.results[r.ID] = st.Result
			p.cached[r.ID] = st.Cached
		}
		req := httptest.NewRequest("GET", "/v1/sweeps/"+sw.ID+"/table", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET table = %d", rec.Code)
		}
		p.table = rec.Body.String()
		p.hits = counter(t, s, "serve/hits")
		p.misses = counter(t, s, "serve/misses")
		if n, err := s.Store().Verify(); err != nil || n != 4 {
			t.Fatalf("store Verify = %d, %v", n, err)
		}
		return p
	}

	cold := runPass(t)
	if cold.misses != 4 || cold.hits != 0 {
		t.Fatalf("cold pass: hits=%d misses=%d, want 0/4", cold.hits, cold.misses)
	}
	for id, c := range cold.cached {
		if c {
			t.Fatalf("cold pass served %s from a store that was empty", id)
		}
	}

	warm := runPass(t) // fresh Server, same directory: the restart
	if warm.hits != 4 || warm.misses != 0 {
		t.Fatalf("warm pass: hits=%d misses=%d, want 4/0 (>=95%% from store)", warm.hits, warm.misses)
	}
	for id, c := range warm.cached {
		if !c {
			t.Fatalf("warm pass recomputed %s", id)
		}
	}
	if len(warm.results) != len(cold.results) {
		t.Fatalf("pass sizes differ: %d vs %d", len(warm.results), len(cold.results))
	}
	for id, want := range cold.results {
		got, ok := warm.results[id]
		if !ok {
			t.Fatalf("warm pass lost run %s", id)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %s not byte-identical across restart:\n%s\n%s", id, got, want)
		}
	}
	if warm.table != cold.table {
		t.Fatalf("table not byte-identical across restart:\n%q\n%q", warm.table, cold.table)
	}

	// And the bytes match an independent direct computation.
	suite := experiments.NewSuite(opts)
	for id, got := range cold.results {
		var res RunResult
		if err := json.Unmarshal(got, &res); err != nil {
			t.Fatal(err)
		}
		want := refPayload(t, suite, opts, res.Bench, experiments.Scheme(res.Scheme), res.Capacity)
		if !bytes.Equal(got, want) {
			t.Fatalf("run %s differs from direct Suite.Get", id)
		}
	}
}

func TestHealthzStartsOK(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	var h Health
	if code := doJSON(t, s.Handler(), "GET", "/healthz", "", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if h.Status != "ok" || h.Failures != 0 {
		t.Fatalf("health = %+v", h)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Opts: experiments.Options{Warps: 0, MaxCycles: 1}, StoreDir: t.TempDir()}); err == nil {
		t.Error("New accepted zero warps")
	}
	if _, err := New(Config{Opts: experiments.Options{Warps: 1, MaxCycles: 0}, StoreDir: t.TempDir()}); err == nil {
		t.Error("New accepted zero max cycles")
	}
	if _, err := New(Config{Opts: experiments.Options{Warps: 1, MaxCycles: 1}}); err == nil {
		t.Error("New accepted empty store dir")
	}
}

// TestStoreKeyNormalisationMatchesEngine: the store canonicalises keys
// without importing the engine, so it says again which schemes have a
// capacity and that 0 SMs means 1. Its copy must agree with
// experiments.Scheme.HasCapacity and experiments.Options.Normalized, or a
// key the server admits and a key the store reads back would differ.
func TestStoreKeyNormalisationMatchesEngine(t *testing.T) {
	for _, scheme := range experiments.Schemes() {
		for _, sms := range []int{0, 1} {
			got := store.Key{Scheme: string(scheme), Capacity: 256, SMs: sms}.Normalized()
			wantCap := 0
			if scheme.HasCapacity() {
				wantCap = 256
			}
			wantSMs := experiments.Options{SMs: sms}.Normalized().SMs
			if got.Capacity != wantCap || got.SMs != wantSMs {
				t.Errorf("%s at %d SMs: store keeps capacity %d on %d SMs, the engine %d on %d",
					scheme, sms, got.Capacity, got.SMs, wantCap, wantSMs)
			}
		}
	}
}
