package serve

// HTTP plumbing: the mux, the request wrapper, the helpers every handler
// shares, and the run endpoints.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

func (s *Server) initHandler() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handlePostRun)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleRunTrace)
	mux.HandleFunc("POST /v1/sweeps", s.handlePostSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/table", s.handleSweepTable)
	mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("GET /v1/metricsz/stream", s.handleMetricsStream)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = mux
}

// Handler returns the service's HTTP handler. The wrapper assigns (or
// echoes) the request's X-Request-ID, counts and times the request, and
// consults the client-abort chaos class — an injected abort severs the
// connection exactly as a real client disconnect would, which is the
// point: the abandonment paths get exercised deterministically.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.chaos != nil && s.chaos.AbortsClient(s.reqNum.Add(1)) {
			panic(http.ErrAbortHandler)
		}
		// One value, set on the response and normalized onto the request
		// so downstream handlers read one place.
		reqID := []string{s.requestID(r)}
		w.Header()[headerRequestID] = reqID
		r.Header[headerRequestID] = reqID
		s.cHTTPRequests.Inc()
		start := time.Now()
		s.handler.ServeHTTP(w, r)
		s.hHTTP.Observe(uint64(time.Since(start) / time.Microsecond))
	})
}

// headerRequestID is X-Request-ID as net/http keys it. Spelled this way
// the header map is indexed directly; any other spelling is canonicalized
// into a fresh string on every Get and Set.
const headerRequestID = "X-Request-Id"

// client identifies the fairness bucket: an explicit header, else one
// shared anonymous bucket.
func clientOf(r *http.Request) string {
	if c := r.Header.Get("X-Regless-Client"); c != "" {
		return c
	}
	return "anon"
}

// wantWait reports whether the query asks to block for the result: its
// first wait parameter, if any, is 1 or true. The raw query is scanned in
// place (percent-escaped spellings of the name or the value are not
// decoded, and so not recognised).
func wantWait(r *http.Request) bool {
	for q := r.URL.RawQuery; q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if name, v, _ := strings.Cut(pair, "="); name == "wait" {
			return v == "1" || v == "true"
		}
	}
	return false
}

func (s *Server) httpError(w http.ResponseWriter, code int, format string, args ...any) {
	s.cHTTPErrors.Inc()
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// jsonContentType is the Content-Type value every JSON response shares;
// nothing appends to a response header's value slice.
var jsonContentType = []string{"application/json"}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeRun answers a run submission or poll: a done job's reply verbatim
// (reading the done state orders this after j.reply's write), else status.
func writeRun(w http.ResponseWriter, code int, j *job) {
	if j.state.Load() != jobDone {
		writeJSON(w, code, j.status())
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	w.Write(j.reply)
}

// maxBody bounds a request body; a longer one is an admission error.
const maxBody = 1 << 20

// bodyPool recycles the buffers request bodies are read into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the request's body, at most maxBody bytes of it, into a
// pooled buffer the caller hands back with putBody.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		putBody(buf)
		return nil, err
	}
	return buf, nil
}

// putBody returns a body buffer to the pool, unless one oversized request
// grew it: the pool is for a sweep's 70-byte bodies.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= 64<<10 {
		bodyPool.Put(buf)
	}
}

// decodeStrict decodes a JSON request body into v: one object, no unknown
// fields, and nothing after it but whitespace — the decoder must report
// the end of the input, not merely no further value (More is also false in
// front of a stray closing bracket).
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after request object")
	}
	return nil
}

// wait blocks for the jobs when the query asks to (wantWait), unless the
// client goes away first, and reports whether it did. Every waiting
// handler is accounted: when the last waiter of an unpinned job
// disconnects, the job is abandoned (abandonIfOrphan). ok is false when
// the client gave up: the 503 is written and the handler has nothing left
// to say. A finished job is not waited on, so a job-map hit never asks
// for the request context's Done channel (made on first use).
func (s *Server) wait(w http.ResponseWriter, r *http.Request, jobs ...*job) (waited, ok bool) {
	if !wantWait(r) {
		return false, true
	}
	for _, j := range jobs {
		j.waiters.Add(1)
	}
	ok = true
wait:
	for _, j := range jobs {
		if j.finished() {
			continue
		}
		select {
		case <-j.done:
		case <-r.Context().Done():
			ok = false
			break wait
		}
	}
	for _, j := range jobs {
		j.waiters.Add(-1)
		j.abandonIfOrphan()
	}
	if !ok {
		s.httpError(w, http.StatusServiceUnavailable, "client gave up waiting")
	}
	return true, ok
}

// settle is how a submission ends: waited for, and answered 200; or, an
// async submission intending to poll later, with its jobs pinned — so they
// survive having no waiter attached right now — and answered 202.
func (s *Server) settle(w http.ResponseWriter, r *http.Request, jobs ...*job) (code int, ok bool) {
	waited, ok := s.wait(w, r, jobs...)
	if waited || !ok {
		return http.StatusOK, ok
	}
	for _, j := range jobs {
		j.pinned.Store(true)
	}
	return http.StatusAccepted, true
}

// submitError maps an admission rejection to its HTTP shape.
func (s *Server) submitError(w http.ResponseWriter, err error) {
	code := http.StatusServiceUnavailable // draining, or a quarantined config
	if errors.Is(err, errOverloaded) {
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		code = http.StatusTooManyRequests
	}
	s.httpError(w, code, "%v", err)
}

func (s *Server) handlePostRun(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad run request: %v", err)
		return
	}
	a, err := s.admitRun(body.Bytes())
	putBody(body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget, err := s.budgetFor(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, _, err := s.submit(a, clientOf(r), r.Header.Get(headerRequestID), budget)
	if err != nil {
		s.submitError(w, err)
		return
	}
	if code, ok := s.settle(w, r, j); ok {
		writeRun(w, code, j)
	}
}

// jobOf resolves the {id} of a run endpoint; an unknown id is answered
// 404 and nil returned.
func (s *Server) jobOf(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		s.httpError(w, http.StatusNotFound, "unknown run %q", id)
	}
	return j
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	j := s.jobOf(w, r)
	if j == nil {
		return
	}
	if _, ok := s.wait(w, r, j); ok {
		writeRun(w, http.StatusOK, j)
	}
}

// handleMetricsz serves the registry snapshot. The default JSON map is
// the original exposition (reglessload scrapes it); ?format=prom renders
// Prometheus text exposition 0.0.4 instead.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := metrics.WritePrometheus(w, s.reg, "regless"); err != nil {
			s.cHTTPErrors.Inc()
		}
		return
	}
	snap := s.reg.Snapshot()
	out := make(map[string]uint64, len(snap))
	for _, smp := range snap {
		out[smp.Name] = smp.Value
	}
	writeJSON(w, http.StatusOK, out)
}

// handleRunTrace serves a completed run's span tree: JSON by default,
// Chrome trace-event JSON (?format=perfetto) for the shared viewer the
// cycle-level event exports use.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobOf(w, r)
	if j == nil {
		return
	}
	if !j.finished() {
		s.httpError(w, http.StatusConflict, "run %s still %s", j.id, j.status().Status)
		return
	}
	if r.URL.Query().Get("format") == "perfetto" {
		w.Header().Set("Content-Type", "application/json")
		if err := j.trace.WriteChrome(w, "run "+j.id); err != nil {
			s.cHTTPErrors.Inc()
		}
		return
	}
	resp := map[string]any{"id": j.id, "root": j.trace.Tree()}
	if j.reqID != "" {
		resp["request_id"] = j.reqID
	}
	writeJSON(w, http.StatusOK, resp)
}
