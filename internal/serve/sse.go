package serve

// Server-sent-event streaming: per-run completion events for a sweep
// (GET /v1/sweeps/{id}/events) and the live metrics-window stream
// (GET /v1/metricsz/stream), both written by one loop, pump. A sweep
// stream reads its own jobs: each frame is staged when its job ends, and
// nothing is dropped. The window stream is pushed by the registry, which
// must not wait for a client: a slow one loses frames and is told how
// many with a "dropped" marker event.

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

// sseStream is one stream's frames. A sweep stream's channel holds a
// frame for each of its jobs and closes after the last; a metrics-window
// subscriber's is bounded (windowBuffer), and Emit delivers with a
// non-blocking send whose overflow bumps dropped instead of stalling.
type sseStream struct {
	ch      chan []byte
	dropped atomic.Int64
	// reported counts drops already surfaced to the client; only the
	// writer goroutine touches it.
	reported int64
	// drop mirrors every dropped frame into the server-wide counter.
	drop metrics.AtomicCounter
}

// windowBuffer is a metrics-window subscriber's frame buffer.
const windowBuffer = 64

// deliver enqueues a frame without blocking; a full buffer drops it.
func (st *sseStream) deliver(frame []byte) {
	select {
	case st.ch <- frame:
	default:
		st.dropped.Add(1)
		st.drop.Inc()
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
// frames as they arrive, a heartbeat comment every 15 s, and a "dropped"
// marker after any gap. It returns ok when the stream ended on the
// server's side — st's channel closed or stop closed — and the caller may
// still write its terminal frames; not ok means the client is gone (or
// cannot stream at all, which is answered 500).
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
	hb := time.NewTicker(15 * time.Second)
	defer hb.Stop()
	for {
		select {
		case f, open := <-st.ch:
			if !open {
				return sw, true
			}
			if !sw.frame(f) || !sw.reportDrops(st) {
				return sw, false
			}
		case <-hb.C:
			if !sw.frame([]byte(": hb\n\n")) {
				return sw, false
			}
		case <-stop:
			return sw, true
		case <-r.Context().Done():
			return sw, false
		}
	}
}

// handleSweepEvents streams one "run" event per job of the sweep as the
// job ends, heartbeat comments while idle, and a terminal "summary" event
// once every job has ended. A finished job's frame is staged at once; a
// pending job's by a goroutine that waits on the job and leaves with the
// stream. The channel holds every job's frame, so no send blocks, and the
// last one closes it.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	swp := s.sweepOf(w, r)
	if swp == nil {
		return
	}
	st := &sseStream{ch: make(chan []byte, len(swp.jobs))}
	var left atomic.Int64
	left.Store(int64(len(swp.jobs)))
	stage := func(j *job) {
		st.ch <- runEventFrame(j)
		if left.Add(-1) == 0 {
			close(st.ch)
		}
	}
	gone := make(chan struct{})
	defer close(gone)
	for _, j := range swp.jobs {
		if j.finished() {
			stage(j)
			continue
		}
		go func() {
			select {
			case <-j.done:
				stage(j)
			case <-gone:
			}
		}()
	}
	sw, ok := s.pump(w, r, st, nil)
	if !ok {
		return
	}
	sum := swp.status()
	data, _ := json.Marshal(map[string]any{
		"id": sum.ID, "status": sum.Status, "total": sum.Total,
		"completed": sum.Completed, "failed": sum.Failed,
	})
	sw.frame(sseFrame("summary", data))
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
	st := &sseStream{ch: make(chan []byte, windowBuffer), drop: s.cSSEDropped}
	s.winHub.subscribe(st)
	defer s.winHub.unsubscribe(st)
	s.pump(w, r, st, s.stopWin)
}
