package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gen/machine"
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

// TestRunEndpointMatchesDirectSuite: on every drawn point serve runs —
// one suite kernel over the whole chip, cold, alone — a run served cold
// is byte for byte the direct suite's, an entry stored under another
// model epoch is never served in its place, and a server restarted on the
// same store serves the same bytes from it. One server, and one store,
// per drawn (warps, SMs).
func TestRunEndpointMatchesDirectSuite(t *testing.T) {
	root, ms := t.TempDir(), machine.ServedPoints.Machines()
	cold := make([][]byte, len(ms))
	for pass, cached := range []bool{false, true} {
		servers := map[[2]int]*Server{}
		for i, m := range ms {
			opts := experiments.Options{Warps: m.Warps, SMs: m.SMs, MaxCycles: 20_000_000}
			shape := [2]int{m.Warps, m.SMs}
			if servers[shape] == nil {
				servers[shape] = newTestServer(t, filepath.Join(root, fmt.Sprint(shape)), opts)
			}
			s := servers[shape]
			req, want := RunRequest{Bench: m.Seq, Scheme: m.Scheme, Capacity: m.Capacity}, cold[i]
			if !cached {
				k, err := s.KeyFor(req)
				if k.Model = experiments.ModelEpoch + 1; err == nil {
					err = s.Store().Put(k, []byte(`{"stale":true}`))
				}
				if err != nil {
					t.Fatalf("%s: %v", m, err)
				}
				want = refPayload(t, experiments.NewSuite(opts), opts, m.Seq, experiments.Scheme(m.Scheme), m.Capacity)
			}
			var st RunStatus
			if code := doJSON(t, s.Handler(), "POST", "/v1/runs?wait=1", "", req, &st); code != http.StatusOK || st.Status != "done" || st.Cached != cached {
				t.Fatalf("%s: pass %d: POST run = %d %q, cached %v (%s)", m, pass, code, st.Status, st.Cached, st.Error)
			}
			cold[i] = st.Result
			machine.Same(t, m, fmt.Sprint("pass ", pass, ": served and direct results"), string(st.Result), string(want))
		}
		for _, s := range servers {
			s.Close()
		}
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

// TestBodyLimit: a request body is read to at most maxBody bytes, over a
// real connection. A body that declares more, or a chunked one that runs
// past the bound, is refused with 400 and its connection closed, not
// reused; a body that declares maxBody bytes is read in full (a run
// request at the end of a mebibyte of whitespace is admitted) and its
// connection kept.
func TestBodyLimit(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	run := []byte(`{"bench":"nw","scheme":"baseline"}`)
	padded := func(n int) []byte { return append(bytes.Repeat([]byte(" "), n-len(run)), run...) }
	for _, c := range []struct {
		name   string
		body   io.Reader
		code   int
		reused bool
	}{
		{"declared over the bound", bytes.NewReader(padded(maxBody + 1024)), http.StatusBadRequest, false},
		{"chunked past the bound", io.MultiReader(bytes.NewReader(padded(maxBody + 1024))), http.StatusBadRequest, false},
		{"declared at the bound", bytes.NewReader(padded(maxBody)), http.StatusOK, true},
	} {
		// A client of its own, so the only connection it can reuse is the
		// one the body went over.
		client := &http.Client{Transport: &http.Transport{}}
		resp, err := client.Post(srv.URL+"/v1/runs?wait=1", "application/json", c.body)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code || resp.Close == c.reused {
			t.Fatalf("%s: %d %s, connection closed %v; want %d, closed %v",
				c.name, resp.StatusCode, msg, resp.Close, c.code, !c.reused)
		}
		if c.code == http.StatusBadRequest && !bytes.Contains(msg, []byte("too large")) {
			t.Fatalf("%s: refused with %s, want the size limit", c.name, msg)
		}
		var reused bool
		req, err := http.NewRequest("GET", srv.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		}))
		next, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: the next request: %v", c.name, err)
		}
		io.Copy(io.Discard, next.Body)
		next.Body.Close()
		client.CloseIdleConnections()
		if reused != c.reused {
			t.Fatalf("%s: the next request reused the connection: %v, want %v", c.name, reused, c.reused)
		}
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

	// runPass submits the sweep to a fresh server over dir, which must
	// serve all four runs from the store when cached and none when not,
	// and returns each run's bytes by job id and the sweep's table.
	runPass := func(t *testing.T, cached bool) (map[string][]byte, string) {
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
		results := map[string][]byte{}
		for _, r := range sw.Runs {
			var st RunStatus
			if code := doJSON(t, h, "GET", "/v1/runs/"+r.ID, "", nil, &st); code != http.StatusOK || len(st.Result) == 0 {
				t.Fatalf("GET run %s = %d with %d result bytes", r.ID, code, len(st.Result))
			}
			if st.Cached != cached {
				t.Fatalf("run %s: cached %v, want %v", r.ID, st.Cached, cached)
			}
			results[r.ID] = st.Result
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sweeps/"+sw.ID+"/table", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET table = %d", rec.Code)
		}
		want := map[bool][2]uint64{false: {0, 4}, true: {4, 0}}[cached]
		if hits, misses := counter(t, s, "serve/hits"), counter(t, s, "serve/misses"); hits != want[0] || misses != want[1] {
			t.Fatalf("cached %v: hits=%d misses=%d, want %d/%d", cached, hits, misses, want[0], want[1])
		}
		if n, err := s.Store().Verify(); err != nil || n != 4 {
			t.Fatalf("store Verify = %d, %v", n, err)
		}
		return results, rec.Body.String()
	}

	cold, coldTable := runPass(t, false)
	warm, warmTable := runPass(t, true) // fresh Server, same directory: the restart
	if !maps.EqualFunc(warm, cold, bytes.Equal) {
		t.Fatalf("runs not byte-identical across restart:\n%s\n%s", warm, cold)
	}
	if warmTable != coldTable {
		t.Fatalf("table not byte-identical across restart:\n%q\n%q", warmTable, coldTable)
	}

	// And the bytes match an independent direct computation.
	suite := experiments.NewSuite(opts)
	for id, got := range cold {
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

// TestRegistryReservesItsCells: the cells the server reserves are the ones
// it registers, so its registry grows once.
func TestRegistryReservesItsCells(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	if got := s.Metrics().Len(); got != serveCells {
		t.Fatalf("the server registers %d cells and reserves %d", got, serveCells)
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
