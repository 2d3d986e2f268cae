package serve

// Service lifecycle: the accepting -> draining -> stopped state machine,
// graceful drain with a cancellation deadline, request budgets, the
// per-config circuit breaker, and request-ID assignment. DESIGN.md §16.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// DrainReport summarizes a graceful shutdown: how many pending jobs
// finished cleanly, how many were canceled at the deadline, and whether
// the deadline fired at all.
type DrainReport struct {
	// Pending is how many jobs were queued or running when drain began.
	Pending int `json:"pending"`
	// Completed finished (done or failed on their own terms) during the
	// drain window; Canceled were abandoned by the drain deadline.
	Completed int `json:"completed"`
	Canceled  int `json:"canceled"`
	// TimedOut reports the drain deadline fired before the pool emptied.
	TimedOut bool `json:"timed_out"`
	// DurationSeconds is the wall time the drain took.
	DurationSeconds float64 `json:"duration_seconds"`
}

// Drain gracefully shuts the server down. Transitions are one-way:
// accepting -> draining (s.draining set) -> stopped (s.drained closed).
// New submissions are rejected with 503 "draining" immediately, while
// reads (status polls, tables, traces, metrics) keep working; in-flight
// and queued jobs get up to timeout to finish (timeout <= 0 waits
// indefinitely) before their contexts are canceled, which ends every
// sweep stream with its summary; the final metrics window flushes, and
// the store is fsynced. Safe to call once; later calls (including Close
// after Drain) wait for the first to finish and return.
func (s *Server) Drain(timeout time.Duration) (DrainReport, error) {
	start := time.Now()
	if !s.draining.CompareAndSwap(false, true) {
		<-s.drained
		return DrainReport{}, nil
	}

	// Snapshot the jobs that are still pending: these are what the
	// report accounts for.
	s.mu.Lock()
	var pending []*job
	for _, j := range s.jobs {
		if !j.finished() {
			pending = append(pending, j)
		}
	}
	s.mu.Unlock()

	// Arm the drain deadline: when it fires, every pending job's context
	// is canceled, which the cycle loop observes within one poll
	// interval and queued jobs observe on dequeue.
	timedOut := atomic.Bool{}
	var timer *time.Timer
	if timeout > 0 {
		timer = time.AfterFunc(timeout, func() {
			timedOut.Store(true)
			for _, j := range pending {
				j.cancel()
			}
		})
	}
	s.admit.close()
	if timer != nil {
		timer.Stop()
	}

	// Flush the final metrics window to subscribers and the JSONL stream
	// before tearing the window loop down.
	close(s.stopWin)
	<-s.winDone
	s.reg.CloseWindow(uint64(time.Since(s.start)/time.Second) + 1)

	rep := DrainReport{Pending: len(pending), TimedOut: timedOut.Load()}
	for _, j := range pending {
		switch j.state.Load() {
		case jobCanceled, jobExpired:
			rep.Canceled++
		default:
			rep.Completed++
		}
	}
	rep.DurationSeconds = time.Since(start).Seconds()

	err := s.st.Sync()
	if s.jsonl != nil {
		if ferr := s.jsonl.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	close(s.drained)
	return rep, err
}

// ---------------------------------------------------------------------
// Request budgets

// errDraining and errOverloaded are admission rejections with dedicated
// status codes (503 + draining, 429 + Retry-After).
var (
	errDraining   = errors.New("server is draining")
	errOverloaded = errors.New("admission queue is full")
)

// budgetFor resolves the effective request budget: the server's
// -request-timeout default, optionally shortened — never extended — by
// the client's X-Regless-Timeout header. Returns 0 for "no deadline".
func (s *Server) budgetFor(r *http.Request) (time.Duration, error) {
	budget := s.cfg.RequestTimeout
	h := r.Header.Get("X-Regless-Timeout")
	if h == "" {
		return budget, nil
	}
	d, err := time.ParseDuration(h)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad X-Regless-Timeout %q", h)
	}
	if budget <= 0 || d < budget {
		return d, nil
	}
	return budget, nil
}

// retryAfterSeconds estimates when shedding will clear: roughly the
// queue's service time at current depth, clamped to [1s, 30s].
func (s *Server) retryAfterSeconds() int {
	workers := int64(max(s.cfg.Opts.Parallelism, 1))
	return int(min(1+s.admit.queued.Load()/workers, 30))
}

// ---------------------------------------------------------------------
// Circuit breaker

// breakerKey quarantines one simulation configuration. Capacity is part
// of the key: a capacity-512 config tripping the sanitizer says nothing
// about capacity 768.
type breakerKey struct {
	bench    string
	scheme   string
	capacity int
}

func (k breakerKey) String() string {
	return fmt.Sprintf("%s/%s/%d", k.bench, k.scheme, k.capacity)
}

// noteDiagnostic counts one sanitizer/watchdog Diagnostic against the
// config and trips the breaker at the threshold. Deduped re-submissions
// of an already-failed job call this too (submit's dedup branch), so a
// poisoned config that clients keep re-requesting trips even though
// the job map never re-simulates the identical key — the breaker's job
// is to stop *variations* of the config (deep-dive report keys, warm
// restarts) from re-simulating it forever.
func (s *Server) noteDiagnostic(k breakerKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.breaker[k] < s.cfg.BreakerThreshold {
		s.breaker[k]++
		if s.breaker[k] == s.cfg.BreakerThreshold {
			s.cBreakerTrips.Inc()
		}
	}
}

// openBreakers lists quarantined configs for /healthz, sorted, so that
// two polls of an unchanged server agree.
func (s *Server) openBreakers() []string {
	s.mu.Lock()
	var out []string
	for k, n := range s.breaker {
		if n >= s.cfg.BreakerThreshold {
			out = append(out, k.String())
		}
	}
	s.mu.Unlock()
	slices.Sort(out)
	return out
}

// ---------------------------------------------------------------------
// Request IDs

// newRequestID mints a process-unique request id, "r-<boot>-<n>". The
// boot component distinguishes restarts so ids in persisted diagnostics
// stay unique across a server's lifetimes.
func (s *Server) newRequestID() string {
	var buf [40]byte
	id := append(append(append(buf[:0], "r-"...), s.bootID...), '-')
	return string(strconv.AppendUint(id, s.reqSeq.Add(1), 10))
}

// maxRequestID bounds a client-provided request id, in bytes.
const maxRequestID = 128

// requestID returns the client-provided X-Request-ID or mints one.
// Client-provided ids are truncated rather than rejected: they are
// annotations, not addresses. The cut backs up to a rune boundary, so the
// id is the same string in the header echo and in JSON (a split rune would
// be echoed as bytes there and encoded as U+FFFD here).
func (s *Server) requestID(r *http.Request) string {
	id := r.Header.Get(headerRequestID)
	if id == "" {
		return s.newRequestID()
	}
	if len(id) > maxRequestID {
		n := maxRequestID
		for n > maxRequestID-utf8.UTFMax && !utf8.RuneStart(id[n]) {
			n--
		}
		id = id[:n]
	}
	return id
}

// bootIDFrom derives the server's boot id from its start time.
func bootIDFrom(start time.Time) string {
	sum := sha256.Sum256([]byte(start.Format(time.RFC3339Nano)))
	return hex.EncodeToString(sum[:4])
}
