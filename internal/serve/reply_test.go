package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

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

// The allocation ceilings are what hitLoop reads per request, plus one
// object of slack. They may only go down.
//
// A job-map hit: the request-id header value and the body's size limiter
// (2 objects; 24 when the body was decoded and the key hashed per request,
// 25 when the reply went through json.NewEncoder as well).
const memHitAllocCeiling = 3

// A disk hit adds the job with its context and trace, the hand-off to the
// pool, the store's path and open file, and the reply, built around the
// payload where the store read it into a recycled buffer (15 objects; 19
// when the file was read into a fresh buffer and copied into the reply, 65
// when the entry was decoded to be verified).
const diskHitAllocCeiling = 16

// diskHitBytesCeiling bounds a disk hit's bytes as the ceiling above bounds
// its objects, so a dropped buffer cannot come back as a bigger object: the
// 1.25 KB reply, the job with its trace and the store's paths come to 2.6 KB
// (2.8 KB with room for 8 spans in every trace, 4.7 KB with the file read
// into a fresh buffer).
const diskHitBytesCeiling = 3 << 10

// A compact run body admitted for the first time: the id, and the memo
// entry that remembers it — its copy of the body and the boxed value (an
// admitted is larger than the 128 bytes a map keeps in place); the
// scanner and KeyFor allocate nothing (3 objects; 13 when decodeStrict
// read every body).
const firstAdmitAllocCeiling = 4

// bytesPerRun is testing.AllocsPerRun in bytes: what one call of f
// allocates on the heap, the pool workers' share included, averaged over
// runs after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func TestMemHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	fire := hitLoop(t, s)
	if got := testing.AllocsPerRun(200, fire); got > memHitAllocCeiling {
		t.Errorf("a job-map hit allocates %.0f objects in the handler, ceiling %d", got, memHitAllocCeiling)
	}
}

func TestDiskHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	fire := diskHitLoop(hitLoop(t, s), s)
	if got := testing.AllocsPerRun(200, fire); got > diskHitAllocCeiling {
		t.Errorf("a disk hit allocates %.0f objects in the handler, pool and store, ceiling %d", got, diskHitAllocCeiling)
	}
	if got := bytesPerRun(200, fire); got > diskHitBytesCeiling {
		t.Errorf("a disk hit allocates %.0f bytes in the handler, pool and store, ceiling %d", got, diskHitBytesCeiling)
	}
	if hits := s.Store().Stats().Hits; hits < 400 {
		t.Fatalf("store served %d hits: the loop is not reading the disk", hits)
	}
}

// TestFirstAdmissionAllocations admits a body the memo has never seen —
// the memo is emptied before every admission — as a sweep client writes
// it, so the scanner reads it.
func TestFirstAdmissionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	s := newTestServer(t, t.TempDir(), testOpts())
	defer s.Close()
	body := []byte(`{"bench":"b+tree","scheme":"regless","capacity":256}`)
	got := testing.AllocsPerRun(200, func() {
		s.memoMu.Lock()
		clear(s.memo)
		s.memoMu.Unlock()
		if _, err := s.admitRun(body); err != nil {
			t.Fatal(err)
		}
	})
	if got > firstAdmitAllocCeiling {
		t.Errorf("a first admission allocates %.0f objects, ceiling %d", got, firstAdmitAllocCeiling)
	}
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
