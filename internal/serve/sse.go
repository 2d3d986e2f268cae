package serve

// Server-sent-event streaming: per-run completion events for a sweep
// (GET /v1/sweeps/{id}/events) and the live metrics-window stream
// (GET /v1/metricsz/stream). Both share one subscriber shape — a bounded
// frame buffer drained by the handler goroutine — and one overflow
// policy: a slow client loses frames and is told how many with a
// "dropped" marker event; the execution path never blocks on a client.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// sseFrame renders one SSE frame: "event: <name>\ndata: <data>\n\n".
// data must be newline-free (all our payloads are single-line JSON).
func sseFrame(event string, data []byte) []byte {
	return fmt.Appendf(nil, "event: %s\ndata: %s\n\n", event, data)
}

// sseStream is one subscriber: a bounded channel of ready-to-write
// frames. Publishers deliver with a non-blocking send; overflow bumps
// dropped instead of stalling. For sweep streams, total is the sweep's
// job count and complete closes when the got counter reaches it; metric
// streams use total 0 (never complete, terminated by disconnect/close).
type sseStream struct {
	ch       chan []byte
	complete chan struct{}
	total    int
	got      atomic.Int64
	dropped  atomic.Int64
	// reported counts drops already surfaced to the client; only the
	// writer goroutine touches it.
	reported int64
	// drop mirrors every dropped frame into the server-wide counter.
	drop metrics.AtomicCounter
}

func (s *Server) newStream(total int) *sseStream {
	return &sseStream{
		ch:       make(chan []byte, s.cfg.SSEBuffer),
		complete: make(chan struct{}),
		total:    total,
		drop:     s.cSSEDropped,
	}
}

// deliver enqueues a frame without blocking; a full buffer drops it.
func (st *sseStream) deliver(frame []byte) {
	select {
	case st.ch <- frame:
	default:
		st.dropped.Add(1)
		st.drop.Inc()
	}
}

// arrived counts one finished job toward total and closes complete on
// the last one. The caller ensures each job is counted exactly once per
// stream (registration pre-counts finished jobs, publishRun counts the
// rest), so there is exactly one closer.
func (st *sseStream) arrived(n int64) {
	if st.total > 0 && st.got.Add(n) == int64(st.total) {
		close(st.complete)
	}
}

// runEvent is the per-run completion payload on a sweep event stream.
type runEvent struct {
	ID       string `json:"id"`
	Bench    string `json:"bench"`
	Scheme   string `json:"scheme"`
	Capacity int    `json:"capacity"`
	Status   string `json:"status"` // done | failed | expired | canceled
	Cached   bool   `json:"cached,omitempty"`
	Error    string `json:"error,omitempty"`
}

func runEventFrame(j *job) []byte {
	ev := runEvent{
		ID:       j.id,
		Bench:    j.key.Bench,
		Scheme:   j.key.Scheme,
		Capacity: j.key.Capacity,
		Status:   stateNames[j.state.Load()],
		Cached:   j.cached,
		Error:    j.errText,
	}
	data, _ := json.Marshal(ev)
	return sseFrame("run", data)
}

// publishRun fans a finished job out to the streams subscribed to it
// and retires the subscription entry. Runs after finish (deferred last
// in execute), so subscribers observe final job state.
func (s *Server) publishRun(j *job) {
	s.sseMu.Lock()
	subs := s.runSubs[j.id]
	delete(s.runSubs, j.id)
	s.sseMu.Unlock()
	if len(subs) == 0 {
		return
	}
	frame := runEventFrame(j)
	for _, st := range subs {
		st.deliver(frame)
		st.arrived(1)
	}
}

// unsubscribe removes the stream from every per-job list (disconnect
// path; completed streams were already drained by publishRun).
func (s *Server) unsubscribe(st *sseStream) {
	s.sseMu.Lock()
	defer s.sseMu.Unlock()
	for id, subs := range s.runSubs {
		if kept := slices.DeleteFunc(subs, func(x *sseStream) bool { return x == st }); len(kept) == 0 {
			delete(s.runSubs, id)
		} else {
			s.runSubs[id] = kept
		}
	}
}

// sseWriter pairs the response with its flusher and tracks write errors
// so the loop can bail on a dead connection.
type sseWriter struct {
	w   http.ResponseWriter
	fl  http.Flusher
	err error
}

func (sw *sseWriter) frame(b []byte) bool {
	if sw.err != nil {
		return false
	}
	if _, sw.err = sw.w.Write(b); sw.err != nil {
		return false
	}
	sw.fl.Flush()
	return true
}

// reportDrops emits a "dropped" marker if frames were lost since the
// last report, so the client knows its view has gaps to re-poll.
func (sw *sseWriter) reportDrops(st *sseStream) bool {
	d := st.dropped.Load()
	if d <= st.reported {
		return true
	}
	st.reported = d
	return sw.frame(sseFrame("dropped", fmt.Appendf(nil, `{"dropped":%d}`, d)))
}

// pump is the one stream loop: it opens the event stream and writes st's
// frames as they arrive, a heartbeat comment while idle, and a "dropped"
// marker after any gap. It returns ok when the stream ended on the
// server's side — st completed or stop closed — and the caller may still
// write its terminal frames; not ok means the client is gone (or cannot
// stream at all, which is answered 500).
func (s *Server) pump(w http.ResponseWriter, r *http.Request, st *sseStream, stop <-chan struct{}) (sw *sseWriter, ok bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	sw = &sseWriter{w: w, fl: fl}
	hb := time.NewTicker(s.cfg.SSEHeartbeat)
	defer hb.Stop()
	for {
		select {
		case f := <-st.ch:
			if !sw.frame(f) || !sw.reportDrops(st) {
				return sw, false
			}
		case <-hb.C:
			if !sw.frame([]byte(": hb\n\n")) {
				return sw, false
			}
		case <-st.complete:
			return sw, true
		case <-stop:
			return sw, true
		case <-r.Context().Done():
			return sw, false
		}
	}
}

// handleSweepEvents streams one "run" event per completing job of the
// sweep, heartbeat comments while idle, and a terminal "summary" event
// once every job has finished.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	swp := s.sweepOf(w, r)
	if swp == nil {
		return
	}
	st := s.newStream(len(swp.jobs))
	// Register under sseMu: a job is either already finished (emit its
	// event now) or publishRun — which also takes sseMu and runs strictly
	// after finish — will see this subscription. No completion can slip
	// between the check and the append.
	s.sseMu.Lock()
	already := 0
	for _, j := range swp.jobs {
		if j.finished() {
			st.deliver(runEventFrame(j))
			already++
		} else {
			s.runSubs[j.id] = append(s.runSubs[j.id], st)
		}
	}
	s.sseMu.Unlock()
	st.arrived(int64(already))
	defer s.unsubscribe(st)

	// The stream ends when the sweep completes, or at server drain once
	// every pending job has resolved (cleanly or by the drain deadline).
	if sw, ok := s.pump(w, r, st, s.sseDrain); ok {
		sweepTerminalFrames(sw, st, swp)
	}
}

// sweepTerminalFrames flushes the frames that raced the terminal signal
// (only this goroutine receives from st.ch) and closes the stream: with the
// sweep "summary" if the sweep actually completed, else an explicit
// "draining" event so the client knows to re-poll a future process rather
// than wait.
func sweepTerminalFrames(sw *sseWriter, st *sseStream, swp *sweep) {
	for len(st.ch) > 0 {
		if !sw.frame(<-st.ch) {
			return
		}
	}
	if !sw.reportDrops(st) {
		return
	}
	sum := swp.status()
	data, _ := json.Marshal(map[string]any{
		"id": sum.ID, "status": sum.Status, "total": sum.Total,
		"completed": sum.Completed, "failed": sum.Failed,
	})
	event := "draining"
	select {
	case <-st.complete:
		event = "summary"
	default:
	}
	sw.frame(sseFrame(event, data))
}

// ---------------------------------------------------------------------
// Metrics-window streaming

// winHub is the registry sink: every closed window is forwarded to the
// JSONL writer (when configured) and fanned out as a "window" SSE frame
// to /v1/metricsz/stream subscribers.
type winHub struct {
	fwd  metrics.Sink
	mu   sync.Mutex
	subs []*sseStream
}

// Emit implements metrics.Sink. Window buffers are registry-owned and
// reused, so the JSONL line is rendered (copied) before returning.
func (h *winHub) Emit(w metrics.Window) {
	if h.fwd != nil {
		h.fwd.Emit(w)
	}
	h.mu.Lock()
	subs := h.subs
	h.mu.Unlock()
	if len(subs) == 0 {
		return
	}
	line := bytes.TrimRight(metrics.AppendWindow(nil, nil, w), "\n")
	frame := sseFrame("window", line)
	for _, st := range subs {
		st.deliver(frame)
	}
}

// subscribe copies-on-write so Emit can read the list outside the lock.
func (h *winHub) subscribe(st *sseStream) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs = append(append([]*sseStream(nil), h.subs...), st)
}

func (h *winHub) unsubscribe(st *sseStream) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs = slices.DeleteFunc(slices.Clone(h.subs), func(x *sseStream) bool { return x == st })
}

// handleMetricsStream streams every closed metrics window as one
// "window" event (the JSONL line without trailing newline), reusing the
// window machinery rather than re-sampling. The stream ends when the
// client disconnects or the server closes.
func (s *Server) handleMetricsStream(w http.ResponseWriter, r *http.Request) {
	st := s.newStream(0)
	s.winHub.subscribe(st)
	defer s.winHub.unsubscribe(st)
	s.pump(w, r, st, s.stopWin)
}
