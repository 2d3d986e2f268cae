package serve

// The job state machine: one admitted simulation from submission through a
// pool worker to its terminal state, shared by every submission of its key.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/jsonstr"
	"repro/internal/obs"
	"repro/internal/sanitizer"
	"repro/internal/store"
)

// job states, stored atomically so poll handlers read them without locks.
const (
	jobQueued int32 = iota
	jobRunning
	jobDone
	jobFailed
	// jobExpired (request budget ran out) and jobCanceled (abandoned by
	// its clients or the drain deadline) are terminal like jobFailed but
	// say nothing about the simulation itself: they do not degrade
	// /healthz, do not count toward the breaker, and a later submission
	// of the same key re-runs instead of inheriting them.
	jobExpired
	jobCanceled
)

// job is one admitted simulation, shared by every submission of its key.
// done closes after the final fields (reply, cached, errText, diag) are
// set, so any reader that observed the closed channel reads them race-free.
type job struct {
	id string
	// key is the admission's, which the body memo keeps (admitRun): the
	// job points at it rather than holding a 128-byte copy.
	key    *store.Key
	client string
	// reqID is the X-Request-ID of the submission that created the job —
	// the end-to-end trace handle echoed in statuses and Diagnostics.
	reqID string

	// ctx carries the job's request budget; cancel is safe to call any
	// number of times. The cycle loop polls ctx, so canceling frees the
	// pool slot instead of simulating to completion.
	ctx    context.Context
	cancel context.CancelFunc
	// waiters counts handlers blocked on the job right now; pinned marks
	// that some submission intends to poll later (async submit). A job
	// whose last waiter disconnects without a pin is abandoned.
	waiters atomic.Int64
	pinned  atomic.Bool

	state atomic.Int32 // a job state; the zero job is queued
	done  chan struct{}

	// trace spans the job's life from submission; qspan is the
	// admission-queue wait opened at submit and closed when a pool
	// worker picks the job up.
	trace *obs.Trace
	qspan obs.SpanID

	reply   []byte // a done job's response: replyHead, the payload as stored, "}\n"
	cached  bool
	errText string
	diag    *sanitizer.Diagnostic
}

// abandonedFinal reports the job ended by cancellation/expiry rather
// than by computing anything — such entries never satisfy a later
// submission of the same key.
func (j *job) abandonedFinal() bool {
	if !j.finished() {
		return false
	}
	st := j.state.Load()
	return st == jobExpired || st == jobCanceled
}

// finished reports the job reached a terminal state: done is closed, and
// the final fields are set.
func (j *job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// abandonIfOrphan cancels a job nobody is attached to — no handler waits
// on it, no submission pinned it to poll later, and it has not finished —
// so its context cancels, the cycle loop (or the admission queue) observes
// it, and the pool slot frees instead of simulating for nobody.
func (j *job) abandonIfOrphan() {
	if j.waiters.Load() == 0 && !j.pinned.Load() && !j.finished() {
		j.cancel()
	}
}

// submit admits one run (or attaches to the job already covering its
// key) and returns the shared job; fresh reports this call created it.
// Admission can reject: errDraining (shutdown in progress, 503),
// errOverloaded (queue at its limit, 429), or a quarantined config
// (breaker open, 503).
func (s *Server) submit(a *admitted, client, reqID string, budget time.Duration) (j *job, fresh bool, err error) {
	key, id := &a.key, a.id
	bk := breakerKey{bench: key.Bench, scheme: key.Scheme, capacity: key.Capacity}
	s.mu.Lock()
	// Draining is decided under s.mu, which Drain takes for its snapshot
	// after leaving the accepting state: every job admitted here is in it.
	if s.draining.Load() {
		s.mu.Unlock()
		return nil, false, errDraining
	}
	if s.breaker[bk] >= s.cfg.BreakerThreshold {
		s.mu.Unlock()
		s.cBreakerRejects.Inc()
		return nil, false, fmt.Errorf("config %s is quarantined after repeated diagnostics", bk)
	}
	s.cSubmissions.Inc()
	if j, ok := s.jobs[id]; ok && !j.abandonedFinal() {
		s.mu.Unlock()
		s.cDedup.Inc()
		// A re-submission of a config that already failed with a
		// Diagnostic counts against the breaker even though the job map
		// never re-simulates the identical key: the breaker's purpose is
		// to stop variations of the config from re-simulating forever.
		if j.state.Load() == jobFailed && j.diag != nil {
			s.noteDiagnostic(bk)
		}
		return j, false, nil
	}
	j = &job{id: id, key: key, client: client, reqID: reqID, done: make(chan struct{})}
	if budget > 0 {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), budget)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
	// The queue span starts at the trace epoch (offset 0) so the child
	// spans tile the root exactly from its first microsecond. The trace
	// is sized for a hit; a miss grows it once in execute.
	j.trace = obs.NewTraceCap("run", hitSpans)
	j.qspan = j.trace.StartAt(obs.Root, "queue", 0)
	// Enqueue while still holding s.mu (admit workers never take s.mu
	// with a.mu held, so the nesting is one-way): the job is visible in
	// s.jobs only if admission accepted it, and a shed or refused
	// submission leaves no trace to dedup against.
	if err := s.admit.tryEnqueue(j, s.cfg.QueueLimit); err != nil {
		s.mu.Unlock()
		j.cancel()
		if errors.Is(err, errOverloaded) {
			s.cShed.Inc()
		}
		return nil, false, err
	}
	s.jobs[id] = j
	s.mu.Unlock()
	return j, true, nil
}

// The spans a job's trace records, counted: a disk hit's are the root
// "run", "queue" and "store-get"; a miss adds "simulate" with the three
// the run records under it ("kernel-load", "build", "run"), "assemble"
// and "store-put" (TestTraceSizedPerJobKind). A trace sized for the larger
// count costs every hit the bytes only a miss uses.
const (
	hitSpans  = 3
	missSpans = hitSpans + 6
)

// execute runs one admitted job on a pool worker: disk hit, else
// simulate and persist. The job's trace records the phases as sibling
// spans that tile the run span exactly: every boundary timestamp is read
// once and closes one span where it opens the next.
func (s *Server) execute(j *job) {
	if gate := s.testExecGate; gate != nil {
		gate(j)
	}
	defer j.cancel()
	j.state.Store(jobRunning)
	tr := j.trace
	t0 := tr.Now()
	tr.EndAt(j.qspan, t0)
	s.hSpanQueue.Observe(uint64(t0))

	if err := j.ctx.Err(); err != nil {
		// Abandoned (or expired) while queued: free the slot without
		// touching the store or simulating.
		s.fail(j, t0, err)
		return
	}

	sg := tr.StartAt(obs.Root, "store-get", t0)
	// A disk hit's reply is built around the payload where the store read
	// it: one exact-size allocation, the only one the hit keeps.
	ok, err := s.st.View(*j.key, func(payload []byte) {
		var hb [replyHeadRoom]byte
		head := j.appendReplyHead(hb[:0], true)
		reply := append(make([]byte, 0, len(head)+len(payload)+2), head...)
		j.reply = append(append(reply, payload...), "}\n"...)
	})
	t1 := tr.Now()
	tr.EndAt(sg, t1)
	s.hSpanStoreGet.Observe(uint64(t1 - t0))
	if err == nil && ok {
		s.cHits.Inc()
		tr.CloseAt(t1)
		j.finish(jobDone)
		return
	} else if err != nil {
		s.cStoreErrors.Inc()
	}
	s.cMisses.Inc()

	// The reply is encoded from the run where the simulation folded it, in
	// the machine's arena, before the arena goes back: "simulate" ends and
	// "assemble" starts inside simulate's consumer, and "assemble" ends when
	// simulate returns, so the arena's return is charged to "assemble".
	tr.Grow(missSpans - hitSpans)
	simSpan := tr.StartAt(obs.Root, "simulate", t1)
	var (
		assembled bool
		t2        int64
		asm       obs.SpanID
		payload   []byte
	)
	err = s.simulate(obs.NewContext(j.ctx, tr, simSpan), j.key, func(run *experiments.Run, rep *RunReport) error {
		assembled, t2 = true, tr.Now()
		tr.EndAt(simSpan, t2)
		s.hSpanSimulate.Observe(uint64(t2 - t1))
		asm = tr.StartAt(obs.Root, "assemble", t2)
		var err error
		payload, err = s.encodeReply(j, run, rep)
		return err
	})
	t3 := tr.Now()
	if !assembled {
		tr.EndAt(simSpan, t3)
		s.hSpanSimulate.Observe(uint64(t3 - t1))
		s.fail(j, t3, err)
		return
	}
	tr.EndAt(asm, t3)
	s.hSpanAssemble.Observe(uint64(t3 - t2))
	if err != nil {
		s.fail(j, t3, err)
		return
	}

	sp := tr.StartAt(obs.Root, "store-put", t3)
	perr := s.st.Put(*j.key, payload)
	t4 := tr.Now()
	tr.EndAt(sp, t4)
	s.hSpanStorePut.Observe(uint64(t4 - t3))
	if perr != nil {
		// The response is still served from memory; only persistence
		// for future processes failed.
		s.cStoreErrors.Inc()
	}
	tr.CloseAt(t4)
	j.finish(jobDone)
}

// encodeScratch is what a miss encodes its result through, recycled across
// misses: the RunResult the encoder reads by pointer (one passed by value
// would be boxed, a copy on the heap per miss) and the buffer it writes.
type encodeScratch struct {
	res RunResult
	buf bytes.Buffer
	enc *json.Encoder
}

var encodeScratches = sync.Pool{New: func() any {
	sc := new(encodeScratch)
	sc.enc = json.NewEncoder(&sc.buf)
	return sc
}}

// maxScratch is the largest encoding buffer a scratch goes back to the
// pool with: an exceptional report's must not stay pinned (the store's
// rule for its read buffers).
const maxScratch = 64 << 10

// recycle puts sc back in the pool, holding no result.
func (sc *encodeScratch) recycle() {
	sc.res = RunResult{}
	if sc.buf.Cap() <= maxScratch {
		encodeScratches.Put(sc)
	}
}

// encodeReply sets the reply of a job that simulated run: the head, the
// payload as json.Encoder writes it, and "}\n", in one exact-size
// allocation — the only one it makes. It returns the payload, which is
// what the store keeps.
func (s *Server) encodeReply(j *job, run *experiments.Run, rep *RunReport) ([]byte, error) {
	sc := encodeScratches.Get().(*encodeScratch)
	defer sc.recycle()
	sc.res = s.resultFrom(run)
	sc.res.Report = rep
	sc.buf.Reset()
	if err := sc.enc.Encode(&sc.res); err != nil {
		return nil, err
	}
	enc := sc.buf.Bytes()
	enc = enc[:len(enc)-1] // Encode ends with a newline
	var hb [replyHeadRoom]byte
	head := j.appendReplyHead(hb[:0], false)
	reply := append(make([]byte, 0, len(head)+len(enc)+2), head...)
	j.reply = append(append(reply, enc...), "}\n"...)
	return j.reply[len(head) : len(j.reply)-2], nil
}

func (s *Server) resultFrom(r *experiments.Run) RunResult {
	return RunResult{
		Bench:    r.Bench,
		Scheme:   string(r.Scheme),
		Capacity: r.Capacity,
		Warps:    s.cfg.Opts.Warps,
		SMs:      s.cfg.Opts.SMs,
		Stats:    *r.Stats,
		Prov:     r.Prov,
		Mem:      r.Mem,
	}
}

// fail ends a job that has no result, closing its trace at at. A job
// that stopped because its request went away (canceled) or its budget ran
// out (expired) — err is then the context's, as it was found in the queue
// or as it surfaced through the cycle loop — says nothing about the
// simulation: no recordFailure, no healthz degradation, no breaker
// accounting. Anything else is a failed run, and the Diagnostic it may
// carry counts against its config's breaker.
func (s *Server) fail(j *job, at int64, err error) {
	j.trace.CloseAt(at)
	j.errText = err.Error()
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.cExpired.Inc()
		j.finish(jobExpired)
	case errors.Is(err, context.Canceled):
		s.cCanceled.Inc()
		j.finish(jobCanceled)
	default:
		if errors.As(err, &j.diag) {
			j.diag.RequestID = j.reqID
			s.noteDiagnostic(breakerKey{bench: j.key.Bench, scheme: j.key.Scheme, capacity: j.key.Capacity})
		}
		s.recordFailure(j)
		j.finish(jobFailed)
	}
}

func (j *job) finish(state int32) { j.state.Store(state); close(j.done) }

// appendReplyHead opens a done job's reply (and records whether it is a
// disk hit): the encoding of its RunStatus up to the result value, field
// for field as json.Marshal writes it; the caller appends the payload and
// "}\n". The payload is json.Marshal output (checksum-verified when read
// from disk), which json.Encoder copies through unchanged: the bytes are
// the encoder's own (TestRunReplyBytesMatchEncodingJSON).
func (j *job) appendReplyHead(dst []byte, cached bool) []byte {
	j.cached = cached
	dst = jsonstr.Append(append(dst, `{"id":`...), j.id)
	dst = append(dst, `,"status":"done"`...)
	if j.reqID != "" {
		dst = jsonstr.Append(append(dst, `,"request_id":`...), j.reqID)
	}
	if cached {
		dst = append(dst, `,"cached":true`...)
	}
	return append(dst, `,"result":`...)
}

// replyHeadRoom holds a disk hit's reply head on the stack: 130 bytes
// around a request id of up to maxRequestID bytes that needs no escaping
// (one that does moves the head to the heap).
const replyHeadRoom = 130 + maxRequestID

var stateNames = [...]string{jobQueued: "queued", jobRunning: "running", jobDone: "done",
	jobFailed: "failed", jobExpired: "expired", jobCanceled: "canceled"}

// status renders the job without its result (a done job's is in j.reply).
func (j *job) status() RunStatus {
	st := RunStatus{ID: j.id, RequestID: j.reqID, Status: "queued"}
	if j.finished() {
		st.Status = stateNames[j.state.Load()]
		st.Cached, st.Error, st.Diagnostic = j.cached, j.errText, j.diag
	} else if j.state.Load() == jobRunning {
		st.Status = "running"
	}
	return st
}
