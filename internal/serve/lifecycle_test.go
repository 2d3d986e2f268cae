package serve

// Lifecycle tests: graceful drain (with and without a deadline), request
// budgets, overload shedding, the circuit breaker, request IDs, and SSE
// subscriber behavior during drain. DESIGN.md §16.

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainGracefulCompletes(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	h := s.Handler()
	var a, b RunStatus
	if code := doJSON(t, h, "POST", "/v1/runs", "dg", RunRequest{Bench: "nw", Scheme: "baseline"}, &a); code != http.StatusAccepted {
		t.Fatalf("POST run = %d", code)
	}
	if code := doJSON(t, h, "POST", "/v1/runs", "dg", RunRequest{Bench: "bfs", Scheme: "baseline"}, &b); code != http.StatusAccepted {
		t.Fatalf("POST run = %d", code)
	}

	rep, err := s.Drain(30 * time.Second)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.TimedOut || rep.Canceled != 0 {
		t.Fatalf("graceful drain report %+v", rep)
	}
	if rep.Completed != rep.Pending {
		t.Fatalf("drain completed %d of %d pending", rep.Completed, rep.Pending)
	}

	// Reads still work on the drained server; submissions are rejected.
	var st RunStatus
	if code := doJSON(t, h, "GET", "/v1/runs/"+a.ID, "dg", nil, &st); code != http.StatusOK || st.Status != "done" {
		t.Fatalf("GET after drain = %d %q (%s)", code, st.Status, st.Error)
	}
	var rej map[string]string
	if code := doJSON(t, h, "POST", "/v1/runs", "dg", RunRequest{Bench: "nw", Scheme: "regless"}, &rej); code != http.StatusServiceUnavailable {
		t.Fatalf("POST after drain = %d, want 503", code)
	}
	if !strings.Contains(rej["error"], "draining") {
		t.Fatalf("rejection says %q, want draining", rej["error"])
	}
	var hz Health
	if code := doJSON(t, h, "GET", "/healthz", "", nil, &hz); code != http.StatusServiceUnavailable || hz.Status != "draining" {
		t.Fatalf("healthz after drain = %d %q", code, hz.Status)
	}
	if got := counter(t, s, "serve/canceled"); got != 0 {
		t.Fatalf("graceful drain canceled %d jobs", got)
	}

	// Drain and Close are idempotent after the fact.
	if rep2, err := s.Drain(time.Second); err != nil || rep2.Pending != 0 {
		t.Fatalf("second Drain = %+v, %v", rep2, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}
}

func TestDrainDeadlineCancelsInflight(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	// Hold every job until its context cancels: the only way out of the
	// pool is the drain deadline.
	s.testExecGate = func(j *job) { <-j.ctx.Done() }
	h := s.Handler()
	var st RunStatus
	if code := doJSON(t, h, "POST", "/v1/runs", "dd", RunRequest{Bench: "nw", Scheme: "baseline"}, &st); code != http.StatusAccepted {
		t.Fatalf("POST run = %d", code)
	}

	rep, err := s.Drain(100 * time.Millisecond)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !rep.TimedOut || rep.Pending != 1 || rep.Canceled != 1 {
		t.Fatalf("deadline drain report %+v", rep)
	}
	if got := counter(t, s, "serve/canceled"); got != 1 {
		t.Fatalf("serve/canceled = %d, want 1", got)
	}
	var got RunStatus
	if code := doJSON(t, h, "GET", "/v1/runs/"+st.ID, "dd", nil, &got); code != http.StatusOK || got.Status != "canceled" {
		t.Fatalf("GET after deadline drain = %d %q", code, got.Status)
	}
	// Cancellation is not a simulation failure: healthz may be draining
	// but records no failures.
	if got := counter(t, s, "serve/failures"); got != 0 {
		t.Fatalf("drain cancellation recorded %d failures", got)
	}
}

// TestSubmitToClosedPoolIsRefused: a submission can find the pool closed
// while the state still reads accepting (it passed the accepting check
// before Drain's CAS, and reaches the admitter after close returned). It is
// refused as draining and leaves no job behind: queued on a pool with no
// workers it would never run, and a ?wait=1 handler would block on it until
// its client left.
func TestSubmitToClosedPoolIsRefused(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	s.admit.close()
	a, err := s.admitRun([]byte(`{"bench":"nw","scheme":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	if j, _, err := s.submit(a, "dr", "", 0); !errors.Is(err, errDraining) || j != nil {
		t.Fatalf("submit to a closed pool = job %v, %v; want errDraining and no job", j != nil, err)
	}
	var rej map[string]string
	if code := doJSON(t, s.Handler(), "POST", "/v1/runs?wait=1", "dr", RunRequest{Bench: "nw", Scheme: "regless"}, &rej); code != http.StatusServiceUnavailable || !strings.Contains(rej["error"], "draining") {
		t.Fatalf("POST ?wait=1 to a closed pool = %d %q, want 503 draining", code, rej["error"])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != 0 {
		t.Fatalf("%d jobs left in the job map, want none", len(s.jobs))
	}
}

func TestRequestBudgetExpires(t *testing.T) {
	s, err := New(Config{Opts: testOpts(), StoreDir: t.TempDir(), RequestTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.testExecGate = func(j *job) { <-j.ctx.Done() }
	h := s.Handler()

	var st RunStatus
	if code := doJSON(t, h, "POST", "/v1/runs?wait=1", "exp", RunRequest{Bench: "nw", Scheme: "baseline"}, &st); code != http.StatusOK {
		t.Fatalf("POST run = %d", code)
	}
	if st.Status != "expired" || st.Error == "" {
		t.Fatalf("budgeted run = %q (%s), want expired", st.Status, st.Error)
	}
	if got := counter(t, s, "serve/expired"); got != 1 {
		t.Fatalf("serve/expired = %d, want 1", got)
	}
	// Expiry says nothing about the simulation: healthz stays ok.
	var hz Health
	if code := doJSON(t, h, "GET", "/healthz", "", nil, &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz after expiry = %d %q", code, hz.Status)
	}
	// A later submission of the same key replaces the expired job and
	// computes for real.
	s.testExecGate = nil
	var again RunStatus
	if code := doJSON(t, h, "POST", "/v1/runs?wait=1", "exp", RunRequest{Bench: "nw", Scheme: "baseline"}, &again); code != http.StatusOK {
		t.Fatalf("retry POST = %d", code)
	}
	if again.Status != "done" || len(again.Result) == 0 {
		t.Fatalf("retry after expiry = %q (%s), want done", again.Status, again.Error)
	}
	if got := counter(t, s, "serve/failures"); got != 0 {
		t.Fatalf("expiry recorded %d failures", got)
	}
}

// TestResubmittedSweepFollowsFreshJobs: a sweep's id hashes its runs'
// ids, so re-submitting a sweep whose runs expired lands on the same id
// with fresh jobs for the same keys. The answer, and GET on the id, must
// follow those jobs; the handler used to keep the sweep stored under the
// id and answer "failed" with the expired runs while the fresh ones
// simulated unobserved.
func TestResubmittedSweepFollowsFreshJobs(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	s.testExecGate = func(j *job) { <-j.ctx.Done() }
	h := s.Handler()
	sweep := `{"benchmarks":["nw"],"schemes":["baseline","rfv"]}`

	r := httptest.NewRequest("POST", "/v1/sweeps?wait=1", strings.NewReader(sweep))
	r.Header.Set("X-Regless-Timeout", "20ms")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	var first SweepStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("budgeted sweep = %d %v: %s", rec.Code, err, rec.Body)
	}
	if first.Status != "failed" || first.Runs[0].Status != "expired" {
		t.Fatalf("budgeted sweep = %q, first run %q; want failed with expired runs", first.Status, first.Runs[0].Status)
	}

	s.testExecGate = nil
	var again, got SweepStatus
	if code := doJSON(t, h, "POST", "/v1/sweeps?wait=1", "resub", json.RawMessage(sweep), &again); code != http.StatusOK {
		t.Fatalf("re-submitted sweep = %d", code)
	}
	if again.ID != first.ID {
		t.Fatalf("re-submission has id %s, want %s (the id names the runs)", again.ID, first.ID)
	}
	if again.Status != "done" || again.Failed != 0 {
		t.Fatalf("re-submitted sweep = %q with %d failed runs, want done", again.Status, again.Failed)
	}
	if code := doJSON(t, h, "GET", "/v1/sweeps/"+first.ID, "resub", nil, &got); code != http.StatusOK || got.Status != "done" {
		t.Fatalf("GET re-submitted sweep = %d %q, want done", code, got.Status)
	}
}

// TestReportRunBudgetExpires: a deep-dive ("report") request runs the
// instrumented pipeline, which must poll its budget like any other run.
// It used to ignore it — simulating to completion while holding a pool
// slot, then answering "done" and persisting the result.
func TestReportRunBudgetExpires(t *testing.T) {
	// Park one memory response for 800k stepped cycles so the run far
	// outlasts the budget and crosses many context polls.
	plan, err := faults.Parse("mem-delay@500:delay=800000")
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Faults, opts.NoFastForward = plan, true
	s, err := New(Config{Opts: opts, StoreDir: t.TempDir(), RequestTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var st RunStatus
	req := RunRequest{Bench: "nw", Scheme: "regless", Report: []string{"stalls"}}
	if code := doJSON(t, s.Handler(), "POST", "/v1/runs?wait=1", "rep", req, &st); code != http.StatusOK {
		t.Fatalf("POST run = %d", code)
	}
	if st.Status != "expired" || st.Error == "" {
		t.Fatalf("budgeted report run = %q (%s), want expired", st.Status, st.Error)
	}
	if got := counter(t, s, "serve/expired"); got != 1 {
		t.Fatalf("serve/expired = %d, want 1", got)
	}
	if n, err := s.Store().Len(); err != nil || n != 0 {
		t.Fatalf("expired report run persisted: %d store entries (err %v)", n, err)
	}
}

func TestBudgetForClamps(t *testing.T) {
	s, err := New(Config{Opts: testOpts(), StoreDir: t.TempDir(), RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := func(hdr string) *http.Request {
		r := httptest.NewRequest("POST", "/v1/runs", nil)
		if hdr != "" {
			r.Header.Set("X-Regless-Timeout", hdr)
		}
		return r
	}
	if d, err := s.budgetFor(req("")); err != nil || d != 5*time.Second {
		t.Fatalf("default budget = %v, %v", d, err)
	}
	if d, err := s.budgetFor(req("1s")); err != nil || d != time.Second {
		t.Fatalf("shortened budget = %v, %v", d, err)
	}
	// A client may never extend the server's budget.
	if d, err := s.budgetFor(req("1m")); err != nil || d != 5*time.Second {
		t.Fatalf("clamped budget = %v, %v", d, err)
	}
	for _, bad := range []string{"garbage", "-1s", "0"} {
		if _, err := s.budgetFor(req(bad)); err == nil {
			t.Fatalf("budgetFor(%q) accepted", bad)
		}
	}
	// No server default: the header is the only deadline.
	s2, err := New(Config{Opts: testOpts(), StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if d, err := s2.budgetFor(req("2s")); err != nil || d != 2*time.Second {
		t.Fatalf("header-only budget = %v, %v", d, err)
	}
	if d, err := s2.budgetFor(req("")); err != nil || d != 0 {
		t.Fatalf("no-deadline budget = %v, %v", d, err)
	}
	// And over HTTP a bad header is a 400 before admission.
	r := httptest.NewRequest("POST", "/v1/runs", strings.NewReader(`{"bench":"nw","scheme":"baseline"}`))
	r.Header.Set("X-Regless-Timeout", "nope")
	rec := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, r)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad timeout header = %d, want 400", rec.Code)
	}
}

func TestOverloadSheds(t *testing.T) {
	opts := testOpts()
	opts.Parallelism = 1
	s, err := New(Config{Opts: opts, StoreDir: t.TempDir(), QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.testExecGate = func(*job) { <-release }
	h := s.Handler()

	// A occupies the single worker; B fills the queue; C sheds.
	if code := doJSON(t, h, "POST", "/v1/runs", "shed", RunRequest{Bench: "nw", Scheme: "baseline"}, nil); code != http.StatusAccepted {
		t.Fatalf("POST A = %d", code)
	}
	waitUntil(t, "worker pickup", func() bool { return s.admit.inflight.Load() == 1 && s.admit.queued.Load() == 0 })
	if code := doJSON(t, h, "POST", "/v1/runs", "shed", RunRequest{Bench: "bfs", Scheme: "baseline"}, nil); code != http.StatusAccepted {
		t.Fatalf("POST B = %d", code)
	}

	r := httptest.NewRequest("POST", "/v1/runs", strings.NewReader(`{"bench":"nw","scheme":"regless"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("POST C = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 carries no Retry-After")
	}
	if got := counter(t, s, "serve/shed"); got != 1 {
		t.Fatalf("serve/shed = %d, want 1", got)
	}
	var hz Health
	if code := doJSON(t, h, "GET", "/healthz", "", nil, &hz); code != http.StatusServiceUnavailable || hz.Status != "overloaded" {
		t.Fatalf("healthz under load = %d %q", code, hz.Status)
	}

	// Draining the queue reopens admission: the shed point is accepted
	// and computed on retry.
	close(release)
	waitUntil(t, "queue drain", func() bool { return s.admit.queued.Load() == 0 && s.admit.inflight.Load() == 0 })
	var st RunStatus
	if code := doJSON(t, h, "POST", "/v1/runs?wait=1", "shed", RunRequest{Bench: "nw", Scheme: "regless"}, &st); code != http.StatusOK || st.Status != "done" {
		t.Fatalf("retry after shed = %d %q (%s)", code, st.Status, st.Error)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRejectedSweepIsAllOrNothing: admission can refuse a sweep part-way
// through its grid (queue full: 429). The cells it had already enqueued
// belong to nobody — no waiter, no pin — so they are canceled, not
// simulated while the server is shedding: every job the request created
// ends under serve/canceled and serve/misses does not move.
func TestRejectedSweepIsAllOrNothing(t *testing.T) {
	opts := testOpts()
	opts.Parallelism = 1
	s, err := New(Config{Opts: opts, StoreDir: t.TempDir(), QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.testExecGate = func(*job) { <-release }
	h := s.Handler()

	// Six cells into a queue of two (and at most one more on the gated
	// worker): the third or fourth sheds.
	sweep := SweepRequest{Benchmarks: []string{"nw", "bfs"}, Schemes: []string{"baseline", "regless", "rfv"}}
	if code := doJSON(t, h, "POST", "/v1/sweeps", "aon", sweep, nil); code != http.StatusTooManyRequests {
		t.Fatalf("POST sweep = %d, want 429", code)
	}
	created := counter(t, s, "serve/submissions") - counter(t, s, "serve/shed")
	if shed := counter(t, s, "serve/shed"); shed != 1 || created < 2 {
		t.Fatalf("serve/shed = %d, created %d; want one shed cell after at least two admitted", shed, created)
	}
	close(release)
	waitUntil(t, "orphans resolved", func() bool { return counter(t, s, "serve/canceled") == created })
	waitUntil(t, "pool idle", func() bool { return s.admit.queued.Load() == 0 && s.admit.inflight.Load() == 0 })
	if hits, misses := counter(t, s, "serve/hits"), counter(t, s, "serve/misses"); hits != 0 || misses != 0 {
		t.Fatalf("a refused sweep touched the store or simulated: hits %d, misses %d", hits, misses)
	}

	// The canceled cells satisfy nobody: a retry of one computes it.
	var st RunStatus
	if code := doJSON(t, h, "POST", "/v1/runs?wait=1", "aon", RunRequest{Bench: "nw", Scheme: "baseline"}, &st); code != http.StatusOK || st.Status != "done" {
		t.Fatalf("retry after refused sweep = %d %q (%s)", code, st.Status, st.Error)
	}
	if misses := counter(t, s, "serve/misses"); misses != 1 {
		t.Fatalf("serve/misses = %d after the retry, want 1", misses)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBreakerQuarantines(t *testing.T) {
	// A corrupted OSU tag under RegLess is the pinned known-detected
	// case: the sanitizer fails the run with a Diagnostic, feeding the
	// breaker.
	opts := faultOpts(t, "osu-tag@200; seed=3")
	s, err := New(Config{Opts: opts, StoreDir: t.TempDir(), BreakerThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	body := RunRequest{Bench: "nw", Scheme: "regless"}

	var st RunStatus
	if code := doJSON(t, h, "POST", "/v1/runs?wait=1", "brk", body, &st); code != http.StatusOK || st.Status != "failed" {
		t.Fatalf("first run = %d %q, want failed", code, st.Status)
	}
	if st.Diagnostic == nil {
		t.Fatalf("detected run carries no diagnostic (%s)", st.Error)
	}
	if st.Diagnostic.RequestID == "" {
		t.Fatal("diagnostic carries no request id")
	}
	// Re-submitting the failed config counts against the breaker even
	// though the job map dedupes it.
	if code := doJSON(t, h, "POST", "/v1/runs?wait=1", "brk", body, &st); code != http.StatusOK || st.Status != "failed" {
		t.Fatalf("second run = %d %q", code, st.Status)
	}
	if got := counter(t, s, "serve/breaker_trips"); got != 1 {
		t.Fatalf("serve/breaker_trips = %d, want 1", got)
	}

	var rej map[string]string
	if code := doJSON(t, h, "POST", "/v1/runs", "brk", body, &rej); code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined run = %d, want 503", code)
	}
	if !strings.Contains(rej["error"], "quarantined") {
		t.Fatalf("rejection says %q", rej["error"])
	}
	if got := counter(t, s, "serve/breaker_rejects"); got != 1 {
		t.Fatalf("serve/breaker_rejects = %d, want 1", got)
	}
	// The quarantine is per (bench, scheme, capacity): a different
	// capacity of the same scheme is still admitted.
	other := RunRequest{Bench: "nw", Scheme: "regless", Capacity: 256}
	if code := doJSON(t, h, "POST", "/v1/runs?wait=1", "brk", other, &st); code != http.StatusOK {
		t.Fatalf("other capacity = %d, want admitted", code)
	}
	var hz Health
	if code := doJSON(t, h, "GET", "/healthz", "", nil, &hz); code != http.StatusServiceUnavailable || hz.Status != "degraded" {
		t.Fatalf("healthz with open breaker = %d %q", code, hz.Status)
	}
	if len(hz.Breakers) != 1 || !strings.HasPrefix(hz.Breakers[0], "nw/regless/") {
		t.Fatalf("healthz breakers = %v", hz.Breakers)
	}
}

// TestHealthzListsBreakersSorted: /healthz names the open breakers in one
// order, poll after poll, whatever order the server's map ranges them in.
func TestHealthzListsBreakersSorted(t *testing.T) {
	s, err := New(Config{Opts: testOpts(), StoreDir: t.TempDir(), BreakerThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []breakerKey{{"nw", "regless", 512}, {"bfs", "rfv", 0}, {"nw", "regless", 128}} {
		s.noteDiagnostic(k)
	}
	want := []string{"bfs/rfv/0", "nw/regless/128", "nw/regless/512"}
	h := s.Handler()
	for poll := 0; poll < 50; poll++ {
		var hz Health
		doJSON(t, h, "GET", "/healthz", "", nil, &hz)
		if !slices.Equal(hz.Breakers, want) {
			t.Fatalf("poll %d: healthz breakers = %v, want %v", poll, hz.Breakers, want)
		}
	}
}

func TestRequestIDsAssignedAndEchoed(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	h := s.Handler()

	// Client-provided id echoes through response header and status.
	r := httptest.NewRequest("POST", "/v1/runs?wait=1", strings.NewReader(`{"bench":"nw","scheme":"baseline"}`))
	r.Header.Set("X-Request-ID", "trace-me-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Request-ID"); got != "trace-me-42" {
		t.Fatalf("echoed id %q", got)
	}
	if !strings.Contains(rec.Body.String(), `"request_id":"trace-me-42"`) {
		t.Fatalf("status carries no request id: %s", rec.Body.String())
	}

	// Absent header: the server mints a unique id.
	mint := func() string {
		r := httptest.NewRequest("GET", "/healthz", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Header().Get("X-Request-ID")
	}
	a := mint()
	b := mint()
	if !strings.HasPrefix(a, "r-") || a == b {
		t.Fatalf("minted ids %q, %q", a, b)
	}
}

// TestRequestIDTruncatesOnRuneBoundary: an over-long client id is cut
// where a rune ends, so the one string that joins the HTTP log, the run
// status and a failure's Diagnostic is the same string in all three. Cut
// mid-rune, the header would echo a stray lead byte and the JSON would
// read U+FFFD in its place.
func TestRequestIDTruncatesOnRuneBoundary(t *testing.T) {
	// Every case fails the same config: keep the breaker out of the way.
	s, err := New(Config{Opts: faultOpts(t, "osu-tag@200; seed=3"), StoreDir: t.TempDir(), BreakerThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	for _, c := range []struct{ name, sent, want string }{
		{"two-byte rune across the limit", strings.Repeat("a", 127) + "é" + "tail", strings.Repeat("a", 127)},
		{"four-byte rune across the limit", strings.Repeat("a", 125) + "\U0001F600" + "tail", strings.Repeat("a", 125)},
		{"rune ending at the limit", strings.Repeat("a", 126) + "é" + "tail", strings.Repeat("a", 126) + "é"},
		{"ascii", strings.Repeat("a", 200), strings.Repeat("a", 128)},
		{"short", "trace-é", "trace-é"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s.mu.Lock()
			clear(s.jobs) // every case creates the job anew, under its own id
			s.mu.Unlock()
			r := httptest.NewRequest("POST", "/v1/runs?wait=1", strings.NewReader(`{"bench":"nw","scheme":"regless"}`))
			r.Header.Set("X-Request-ID", c.sent)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var st RunStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("reply %d does not parse: %v\n%s", rec.Code, err, rec.Body.Bytes())
			}
			if st.Status != "failed" || st.Diagnostic == nil {
				t.Fatalf("run is %q without a diagnostic, want the injected failure: %s", st.Status, rec.Body.Bytes())
			}
			echo := rec.Header().Get("X-Request-ID")
			if echo != c.want || st.RequestID != c.want || st.Diagnostic.RequestID != c.want {
				t.Fatalf("header %q, status %q, diagnostic %q, want all three %q",
					echo, st.RequestID, st.Diagnostic.RequestID, c.want)
			}
		})
	}
}

func TestSSESubscribersDuringDrain(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	s.testExecGate = func(j *job) { <-j.ctx.Done() }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := runtime.NumGoroutine()

	var sw SweepStatus
	code := doJSON(t, s.Handler(), "POST", "/v1/sweeps", "sse",
		SweepRequest{Benchmarks: []string{"nw"}, Schemes: []string{"baseline", "regless"}}, &sw)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep = %d", code)
	}

	// Subscribe over a real connection and collect the stream.
	events := make(chan string, 1)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + sw.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer resp.Body.Close()
		var b strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
		events <- b.String()
	}()
	rep, err := s.Drain(100 * time.Millisecond)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if rep.Canceled != 2 {
		t.Fatalf("drain report %+v, want 2 canceled", rep)
	}
	select {
	case body := <-events:
		// Drain resolved every job, so the stream ended with the summary.
		if !strings.Contains(body, "event: summary") {
			t.Fatalf("stream ended without terminal event:\n%s", body)
		}
		if !strings.Contains(body, `"canceled"`) {
			t.Fatalf("stream never reported the canceled runs:\n%s", body)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate on drain")
	}

	// No goroutine leak: subscriber, handler, and pool goroutines all
	// unwound (allow slack for runtime/background goroutines).
	waitUntil(t, "goroutines to unwind", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+3
	})
}

func TestAbandonedWaiterCancelsJob(t *testing.T) {
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	s.testExecGate = func(j *job) { <-j.ctx.Done() }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A waiting client that disconnects abandons its (unpinned) job.
	req, err := http.NewRequest("POST", ts.URL+"/v1/runs?wait=1",
		strings.NewReader(`{"bench":"nw","scheme":"baseline"}`))
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Timeout: 200 * time.Millisecond}
	if _, err := hc.Do(req); err == nil {
		t.Fatal("gated run answered before its client timeout")
	}
	waitUntil(t, "abandoned job cancellation", func() bool {
		return counter(t, s, "serve/canceled") == 1
	})
	if got := counter(t, s, "serve/failures"); got != 0 {
		t.Fatalf("abandonment recorded %d failures", got)
	}
}

// TestCanceledMidRunKeyResimulates: a job whose only client hangs up
// while the cycle loop is running ends "canceled" from inside the loop;
// that must say nothing about its key. The next submission replaces the
// job (abandonedFinal), simulates from scratch — no layer under the jobs
// map remembers the abandoned attempt — and serves and persists exactly
// what an undisturbed run of the point produces.
func TestCanceledMidRunKeyResimulates(t *testing.T) {
	// One memory response parked for 800k stepped cycles: long enough
	// that the client's timeout lands in mid-run, across many polls.
	plan, err := faults.Parse("mem-delay@500:delay=800000")
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts()
	opts.Faults, opts.NoFastForward = plan, true
	want := refPayload(t, experiments.NewSuite(opts), opts, "nw", experiments.SchemeRegLess, experiments.DefaultCapacity)

	s := newTestServer(t, t.TempDir(), opts)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const body = `{"bench":"nw","scheme":"regless"}`
	hc := &http.Client{Timeout: 20 * time.Millisecond}
	if _, err := hc.Post(ts.URL+"/v1/runs?wait=1", "application/json", strings.NewReader(body)); err == nil {
		t.Fatal("the run finished inside its client's timeout; lengthen the delay")
	}
	waitUntil(t, "abandoned job cancellation", func() bool {
		return counter(t, s, "serve/canceled") == 1
	})
	a, err := s.admitRun([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	var first RunStatus
	if code := doJSON(t, s.Handler(), "GET", "/v1/runs/"+a.id, "", nil, &first); code != http.StatusOK {
		t.Fatalf("GET canceled run = %d", code)
	}
	if first.Status != "canceled" || !strings.Contains(first.Error, "abandoned at cycle") {
		t.Fatalf("first job = %q (%s), want canceled from inside the cycle loop", first.Status, first.Error)
	}

	var again RunStatus
	if code := doJSON(t, s.Handler(), "POST", "/v1/runs?wait=1", "", json.RawMessage(body), &again); code != http.StatusOK {
		t.Fatalf("resubmission = %d", code)
	}
	if again.Status != "done" || again.Cached || string(again.Result) != string(want) {
		t.Fatalf("resubmission = %q cached=%v (%s), result == undisturbed run: %v",
			again.Status, again.Cached, again.Error, string(again.Result) == string(want))
	}
	if misses, fails := counter(t, s, "serve/misses"), counter(t, s, "serve/failures"); misses != 2 || fails != 0 {
		t.Fatalf("%d misses and %d failures, want both jobs to have simulated and neither to have failed", misses, fails)
	}
	if n, err := s.Store().Len(); err != nil || n != 1 {
		t.Fatalf("%d store entries (err %v), want the second job's alone", n, err)
	}
}
