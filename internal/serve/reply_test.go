package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/experiments"
)

// post fires one run submission at the handler and returns the raw reply.
func post(t *testing.T, h http.Handler, path, reqID string, rr RunRequest) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(raw))
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func get(h http.Handler, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

// theJob returns the one job the server holds.
func theJob(t *testing.T, s *Server) *job {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != 1 {
		t.Fatalf("server holds %d jobs, want 1", len(s.jobs))
	}
	for _, j := range s.jobs {
		return j
	}
	return nil
}

// assertWire checks a run reply against the wire format's definition:
// json.NewEncoder(w).Encode of the job's RunStatus, result attached.
func assertWire(t *testing.T, what string, body []byte, j *job, wantStatus string) RunStatus {
	t.Helper()
	want := j.status()
	if want.Status == "done" {
		// The payload sits between the head and the closing "}\n".
		want.Result = j.reply[bytes.Index(j.reply, []byte(`,"result":`))+len(`,"result":`) : len(j.reply)-2]
	}
	if want.Status != wantStatus {
		t.Fatalf("%s: job is %q, want %q (%s)", what, want.Status, wantStatus, want.Error)
	}
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, enc.Bytes()) {
		t.Fatalf("%s: reply is not the encoder's bytes:\ngot  %q\nwant %q", what, body, enc.Bytes())
	}
	// And the reply is a fixed point of decode + encode, whatever the job
	// holds: field order, omitted fields, escaping, the trailing newline.
	var st RunStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("%s: reply does not parse: %v", what, err)
	}
	enc.Reset()
	if err := json.NewEncoder(&enc).Encode(st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, enc.Bytes()) {
		t.Fatalf("%s: reply does not survive decode+encode:\ngot  %q\nwant %q", what, body, enc.Bytes())
	}
	return st
}

// TestRunReplyBytesMatchEncodingJSON pins the run endpoints' wire bytes.
// Done jobs answer with a reply built once per job around the stored
// payload; every other state goes through encoding/json. Both must be
// exactly what json.NewEncoder(w).Encode(RunStatus) writes.
func TestRunReplyBytesMatchEncodingJSON(t *testing.T) {
	const reqID = `rid <a&b> "q" \ end` // exercises the encoder's escaping
	opts := testOpts()
	rr := RunRequest{Bench: "nw", Scheme: "regless"}
	ref := refPayload(t, experiments.NewSuite(opts), opts, "nw", experiments.SchemeRegLess, experiments.DefaultCapacity)
	dir := t.TempDir()

	t.Run("miss, job-map hits, disk hit", func(t *testing.T) {
		s := newTestServer(t, dir, opts)
		h := s.Handler()
		code, body := post(t, h, "/v1/runs?wait=1", reqID, rr)
		j := theJob(t, s)
		st := assertWire(t, "fresh miss", body, j, "done")
		if code != http.StatusOK || st.Cached || st.RequestID != reqID || !bytes.Equal(st.Result, ref) {
			t.Fatalf("fresh miss = %d cached=%v request_id=%q, result == direct Suite.Get: %v",
				code, st.Cached, st.RequestID, bytes.Equal(st.Result, ref))
		}
		// The job map answers every later submission and poll with the
		// same bytes — under the creator's request id — sync or async.
		for _, again := range []struct {
			what, path string
			code       int
		}{
			{"job-map hit", "/v1/runs?wait=1", http.StatusOK},
			{"async submit of a done job", "/v1/runs", http.StatusAccepted},
		} {
			code, b := post(t, h, again.path, "someone-else", rr)
			if code != again.code || !bytes.Equal(b, body) {
				t.Fatalf("%s = %d %q, want %d and the first reply's bytes", again.what, code, b, again.code)
			}
		}
		for _, path := range []string{"/v1/runs/" + j.id, "/v1/runs/" + j.id + "?wait=1"} {
			if code, b := get(h, path); code != http.StatusOK || !bytes.Equal(b, body) {
				t.Fatalf("GET %s = %d %q, want the POST reply's bytes", path, code, b)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2 := newTestServer(t, dir, opts)
		defer s2.Close()
		code, body = post(t, s2.Handler(), "/v1/runs?wait=1", "", rr)
		st = assertWire(t, "disk hit", body, theJob(t, s2), "done")
		if code != http.StatusOK || !st.Cached || !bytes.Equal(st.Result, ref) {
			t.Fatalf("disk hit = %d cached=%v, result == direct Suite.Get: %v", code, st.Cached, bytes.Equal(st.Result, ref))
		}
	})

	t.Run("report", func(t *testing.T) {
		s := newTestServer(t, t.TempDir(), opts)
		defer s.Close()
		withReport := rr
		withReport.Report = []string{"stalls", "preload"}
		_, body := post(t, s.Handler(), "/v1/runs?wait=1", reqID, withReport)
		st := assertWire(t, "report run", body, theJob(t, s), "done")
		if !bytes.Contains(st.Result, []byte(`"report":{`)) {
			t.Fatalf("report run carries no report: %s", st.Result)
		}
	})

	t.Run("failed", func(t *testing.T) {
		s := newTestServer(t, t.TempDir(), faultOpts(t, "osu-tag@200; seed=3"))
		defer s.Close()
		_, body := post(t, s.Handler(), "/v1/runs?wait=1", reqID, rr)
		if st := assertWire(t, "failed run", body, theJob(t, s), "failed"); st.Diagnostic == nil {
			t.Fatalf("failed run carries no diagnostic: %s", body)
		}
	})

	t.Run("expired", func(t *testing.T) {
		s, err := New(Config{Opts: opts, StoreDir: t.TempDir(), RequestTimeout: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.testExecGate = func(j *job) { <-j.ctx.Done() }
		_, body := post(t, s.Handler(), "/v1/runs?wait=1", reqID, rr)
		assertWire(t, "expired run", body, theJob(t, s), "expired")
	})

	t.Run("queued, canceled", func(t *testing.T) {
		s := newTestServer(t, t.TempDir(), opts)
		defer s.Close()
		s.testExecGate = func(j *job) { <-j.ctx.Done() }
		h := s.Handler()
		code, body := post(t, h, "/v1/runs", reqID, rr)
		j := theJob(t, s)
		if code != http.StatusAccepted {
			t.Fatalf("async submit = %d", code)
		}
		assertWire(t, "queued run", body, j, "queued")
		j.cancel()
		_, body = get(h, "/v1/runs/"+j.id+"?wait=1")
		assertWire(t, "canceled run", body, j, "canceled")
	})
}

// hitLoop prepares one server holding one done job and returns a function
// that replays the submission through the whole handler stack — request
// id, counters, mux, body memo, job-map dedupe, reply — reusing one
// request and one writer, so what it costs is the server's.
func hitLoop(tb testing.TB, s *Server) func() {
	tb.Helper()
	h := s.Handler()
	body := strings.NewReader(`{"bench":"nw","scheme":"regless"}`)
	req := httptest.NewRequest("POST", "/v1/runs?wait=1", nil)
	req.Body = io.NopCloser(body)
	w := &discardWriter{hdr: http.Header{}}
	fire := func() {
		body.Seek(0, io.SeekStart)
		w.code, w.n = 0, 0
		h.ServeHTTP(w, req)
	}
	fire()
	if w.code != http.StatusOK || w.n == 0 {
		tb.Fatalf("priming run = %d with %d body bytes", w.code, w.n)
	}
	return fire
}

// discardWriter is a ResponseWriter that counts the body and keeps nothing.
type discardWriter struct {
	hdr     http.Header
	code, n int
}

func (w *discardWriter) Header() http.Header { return w.hdr }
func (w *discardWriter) WriteHeader(c int)   { w.code = c }
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// diskHitLoop turns hitLoop's request into a disk hit: the job map is
// emptied before every request, so each one runs admission, the pool
// hand-off, store.Get and the reply build.
func diskHitLoop(fire func(), s *Server) func() {
	return func() {
		s.mu.Lock()
		clear(s.jobs)
		s.mu.Unlock()
		fire()
	}
}

// BenchmarkHandlerMemHit is one job-map hit through Handler().ServeHTTP.
func BenchmarkHandlerMemHit(b *testing.B) {
	s := newTestServer(b, b.TempDir(), testOpts())
	defer s.Close()
	fire := hitLoop(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fire()
	}
}

// BenchmarkHandlerDiskHit is one disk hit through Handler().ServeHTTP.
func BenchmarkHandlerDiskHit(b *testing.B) {
	s := newTestServer(b, b.TempDir(), testOpts())
	defer s.Close()
	fire := diskHitLoop(hitLoop(b, s), s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fire()
	}
}

// TestMissReplyUnderPoison: a miss encodes its reply from the run where the
// simulation folded it, in the machine's arena, before the arena goes back
// (experiments.SimulateWith). With every arena scribbled over on its way
// back, each miss's reply must still be the payload of a fresh computation:
// the one built from a Suite.Get of the same point, plus, for a report key,
// the analysis of a SimulateInstrumented run — plain and report keys, on
// one SM and on two. A reply read from the fold after its arena went back
// carries scribble, or the next run's numbers.
func TestMissReplyUnderPoison(t *testing.T) {
	arena.Drop()
	arena.SetPoison(true)
	defer arena.SetPoison(false)
	defer arena.Drop()
	for _, sms := range []int{1, 2} {
		opts := testOpts()
		opts.SMs = sms
		s := newTestServer(t, t.TempDir(), opts)
		suite := experiments.NewSuite(opts)
		for _, rr := range []RunRequest{
			{Bench: "nw", Scheme: "regless"},
			{Bench: "bfs", Scheme: "baseline"},
			{Bench: "nw", Scheme: "regless", Report: []string{"stalls", "preload"}},
			{Bench: "bfs", Scheme: "rfh", Report: []string{"stalls"}},
		} {
			what := fmt.Sprintf("%d SMs, %+v", sms, rr)
			code, body := post(t, s.Handler(), "/v1/runs?wait=1", "", rr)
			var st RunStatus
			if err := json.Unmarshal(body, &st); err != nil || code != http.StatusOK || st.Status != "done" {
				t.Fatalf("%s: %d %s (%v)", what, code, body, err)
			}
			key, err := s.KeyFor(rr)
			if err != nil {
				t.Fatal(err)
			}
			scheme := experiments.Scheme(key.Scheme)
			want := refPayload(t, suite, opts, key.Bench, scheme, key.Capacity)
			if key.Report != "" {
				in, err := experiments.SimulateInstrumented(context.Background(), key.Bench, scheme, sms,
					opts.Setup(key.Capacity), reportMask)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := json.Marshal(reportOf(key.Report, in))
				if err != nil {
					t.Fatal(err)
				}
				want = append(append(append(want[:len(want)-1], `,"report":`...), rep...), '}')
			}
			if !bytes.Equal(st.Result, want) {
				t.Fatalf("%s: the reply's payload is not a fresh computation's:\ngot  %s\nwant %s", what, st.Result, want)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
