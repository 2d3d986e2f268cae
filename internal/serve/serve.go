// Package serve is the sweep service: an HTTP JSON API over the
// experiment engine, backed by the persistent content-addressed run
// cache in internal/store. Simulations are deterministic, so every
// completed result is cacheable forever; the service turns that into the
// serving-stack shape of DESIGN.md §14 — admission with per-client
// fairness, bounded in-flight simulation, singleflight dedupe of
// identical submissions, a disk store that stays warm across restarts,
// and a health model that surfaces sanitizer/watchdog Diagnostics as
// per-run error reports and a degraded /healthz instead of process exit.
//
// Layering per request:
//
//	HTTP handler  -> canonical store.Key (content-addressed job id)
//	  body memo   -> a body seen before is its (key, id) again: no decode
//	  jobs map    -> submissions of the same key attach to one job (dedupe)
//	  admitter    -> per-client round-robin FIFO into a bounded pool
//	  store.Get   -> disk hit: serve the stored bytes verbatim
//	  simulate    -> miss: experiments.SimulateInstrumented, store.Put
//
// Because the store holds the marshaled response payload itself, a hit —
// in this process or any later one — is byte-identical to the response
// the original miss produced.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/jsonstr"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sanitizer"
	"repro/internal/sim"
	"repro/internal/store"
)

// Config parameterizes a server. Every simulation this server runs uses
// the same Options (warps, SMs, cycle bounds, robustness
// instrumentation); requests choose the (bench, scheme, capacity) point.
type Config struct {
	// Opts sizes every simulation (Opts.Setup; SMs 0 means 1).
	// Parallelism bounds the admission pool's in-flight simulations
	// (0: GOMAXPROCS).
	Opts experiments.Options
	// StoreDir roots the persistent result store (required).
	StoreDir string
	// MetricsWriter, when non-nil, receives the server's own JSONL
	// window stream (hit/miss/queue counters); MetricsEvery is the
	// window period (default 1s). Windows close on this period whether
	// or not a writer is configured — /v1/metricsz/stream subscribers
	// receive the same stream live.
	MetricsWriter io.Writer
	MetricsEvery  time.Duration

	// GitSHA stamps /healthz (ldflags or VCS build info; "" omits it).
	GitSHA string
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// SSEHeartbeat is the keepalive comment interval on SSE streams
	// (default 15s); SSEBuffer is each subscriber's bounded frame buffer
	// (default 64) — a slow client overflowing it loses frames and is
	// told so with a "dropped" marker event rather than stalling the
	// execution path.
	SSEHeartbeat time.Duration
	SSEBuffer    int

	// RequestTimeout is the default per-request simulation budget: a
	// job older than this is canceled mid-cycle-loop and reported as
	// "expired". Clients may shorten (never extend) it per request via
	// the X-Regless-Timeout header. 0 disables deadlines.
	RequestTimeout time.Duration
	// QueueLimit bounds the admission queue; submissions beyond it are
	// shed with 429 + Retry-After. 0 means the default (1024).
	QueueLimit int
	// BreakerThreshold is how many sanitizer Diagnostics a
	// (bench, scheme, capacity) config may accumulate before the
	// circuit breaker quarantines it (503 at admission). 0 means 3.
	BreakerThreshold int
	// StoreMaxBytes is the disk store's size budget (LRU eviction);
	// 0 disables eviction. See store.Options.MaxBytes.
	StoreMaxBytes int64
}

// RunRequest names one simulation in the server's configuration space.
type RunRequest struct {
	Bench  string `json:"bench"`
	Scheme string `json:"scheme"`
	// Capacity is the RegLess OSU capacity (registers/SM); 0 means the
	// paper default for RegLess schemes and is ignored for the rest.
	Capacity int `json:"capacity,omitempty"`
	// Report opts this run into deep-dive analysis: the named sections
	// ("stalls", "preload") are computed from an event-instrumented
	// execution and stored on the RunResult. Reported runs are cached
	// under a distinct key, so they never alias plain results.
	Report []string `json:"report,omitempty"`
}

// SweepRequest is the cross product of its fields, in deterministic
// (bench, scheme, capacity) order. Capacities defaults to the paper
// default; Benchmarks and Schemes must be non-empty.
type SweepRequest struct {
	Benchmarks []string `json:"benchmarks"`
	Schemes    []string `json:"schemes"`
	Capacities []int    `json:"capacities,omitempty"`
}

// RunResult is the cacheable payload served for one completed simulation:
// exactly the statistics a direct Suite.Get exposes, plus the server
// configuration that produced them. Its JSON encoding is what the store
// persists, so hits are byte-identical to the original computation.
type RunResult struct {
	Bench    string `json:"bench"`
	Scheme   string `json:"scheme"`
	Capacity int    `json:"capacity"`
	Warps    int    `json:"warps"`
	SMs      int    `json:"sms"`

	Stats sim.Stats         `json:"stats"`
	Prov  sim.ProviderStats `json:"provider"`
	Mem   mem.Stats         `json:"mem"`

	// Report carries the requested deep-dive sections (nil — and omitted
	// from the JSON — for plain runs, so pre-existing cache entries and
	// payload bytes are unchanged).
	Report *RunReport `json:"report,omitempty"`
}

// RunStatus is the poll/fetch view of one submitted run.
type RunStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"` // queued | running | done | failed | expired | canceled
	// RequestID is the X-Request-ID of the submission that created the
	// job (omitted from Result payloads — those stay byte-identical to
	// the stored simulation output).
	RequestID string `json:"request_id,omitempty"`
	// Cached reports the result was served from the disk store.
	Cached bool            `json:"cached,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Error and Diagnostic carry the per-run failure report (sanitizer
	// invariant violation, watchdog trip, MaxCycles abort).
	Error      string                `json:"error,omitempty"`
	Diagnostic *sanitizer.Diagnostic `json:"diagnostic,omitempty"`
}

// SweepStatus is the poll view of a sweep: per-run statuses without the
// (potentially large) result payloads, which are fetched per run or as a
// rendered table.
type SweepStatus struct {
	ID        string      `json:"id"`
	Status    string      `json:"status"` // running | done | failed
	Total     int         `json:"total"`
	Completed int         `json:"completed"`
	Failed    int         `json:"failed"`
	Runs      []RunStatus `json:"runs"`
}

// Health is the /healthz report. Status is "ok" (HTTP 200) while the
// server is healthy; it degrades — always with HTTP 503 so load
// balancers stop routing — in priority order: "draining" (shutdown in
// progress), "overloaded" (admission queue at its limit), "degraded"
// (a run failed with a Diagnostic, or a circuit breaker is open).
type Health struct {
	Status        string  `json:"status"`
	GitSHA        string  `json:"git_sha,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// StoreEntries counts the persisted results on disk (-1 when the
	// listing itself failed); StoreBytes is the entry-file total the GC
	// budget is enforced against.
	StoreEntries int    `json:"store_entries"`
	StoreBytes   int64  `json:"store_bytes"`
	Jobs         int    `json:"jobs"`
	Queued       int64  `json:"queued"`
	Inflight     int64  `json:"inflight"`
	Failures     uint64 `json:"failures"`
	// ArmedFaults, Sanitize, and Watchdog describe the robustness
	// campaign this server runs under, so a degraded status is
	// attributable to injection rather than mistaken for organic decay.
	ArmedFaults  []string       `json:"armed_faults,omitempty"`
	Sanitize     bool           `json:"sanitize,omitempty"`
	Watchdog     uint64         `json:"watchdog,omitempty"`
	LastFailures []FailureBrief `json:"last_failures,omitempty"`
	// Breakers lists quarantined (bench/scheme/capacity) configs.
	Breakers []string `json:"breakers,omitempty"`
}

// FailureBrief is one failed run in the health report.
type FailureBrief struct {
	ID        string `json:"id"`
	Bench     string `json:"bench"`
	Scheme    string `json:"scheme"`
	Component string `json:"component,omitempty"`
	Brief     string `json:"brief"`
}

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
	id     string
	key    store.Key
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
	select {
	case <-j.done:
	default:
		return false
	}
	st := j.state.Load()
	return st == jobExpired || st == jobCanceled
}

type sweep struct {
	id   string
	jobs []*job
}

// Server is the sweep service. Create with New, mount Handler, and Close
// to drain the pool and flush metrics.
type Server struct {
	cfg   Config
	st    *store.Store
	admit *admitter

	faultsSpec string
	// chaos is the serve-level fault injector (disk-full, slow-disk,
	// store-corrupt, client-abort, clock-skew), split off the config's
	// fault plan; the sim-level clauses stay in cfg.Opts. Nil-safe.
	chaos *faults.Injector

	reg    *metrics.Registry
	jsonl  *metrics.JSONLWriter
	winHub *winHub
	// metrics counters (atomic: counted from handlers and pool workers).
	cHTTPRequests, cHTTPErrors              metrics.AtomicCounter
	cSubmissions, cDedup                    metrics.AtomicCounter
	cHits, cMisses, cFailures, cStoreErrors metrics.AtomicCounter
	cSSEDropped                             metrics.AtomicCounter
	cShed, cExpired, cCanceled              metrics.AtomicCounter
	cBreakerTrips, cBreakerRejects          metrics.AtomicCounter
	// span-latency histograms, observed at the execute/handler span
	// boundaries (names frozen; see DESIGN.md §15).
	hSpanQueue, hSpanStoreGet, hSpanSimulate metrics.Histogram
	hSpanAssemble, hSpanStorePut, hHTTP      metrics.Histogram

	mu     sync.Mutex
	jobs   map[string]*job
	sweeps map[string]*sweep
	recent []FailureBrief
	// breakerHits/breakerOpen quarantine poisoned configs (under mu).
	breakerHits map[breakerKey]int
	breakerOpen map[breakerKey]bool

	// memo maps run-request bodies to what they were admitted as
	// (admitRun), under memoMu.
	memoMu sync.Mutex
	memo   map[string]admitted

	// sseMu guards runSubs: per-job SSE subscriber lists, appended at
	// stream registration and drained by publishRun when the job ends.
	sseMu   sync.Mutex
	runSubs map[string][]*sseStream

	// testExecGate, when non-nil, is called at the top of execute —
	// tests use it to hold jobs while they stage SSE subscribers.
	testExecGate func(*job)

	start   time.Time
	stopWin chan struct{}
	winDone chan struct{}
	handler http.Handler

	// Lifecycle: accepting -> draining -> stopped (see lifecycle.go).
	// sseDrain closes once every pending job has resolved during drain
	// (sweep streams flush terminal events); drained closes when the
	// drain completes end to end.
	state    atomic.Int32
	sseDrain chan struct{}
	drained  chan struct{}

	// Request-ID minting and the client-abort chaos request counter.
	bootID string
	reqSeq atomic.Uint64
	reqNum atomic.Uint64
}

// New opens the store and starts the admission pool and metrics loop.
func New(cfg Config) (*Server, error) {
	if cfg.Opts.Warps < 1 {
		return nil, fmt.Errorf("serve: warps must be at least 1, got %d", cfg.Opts.Warps)
	}
	if cfg.Opts.MaxCycles < 1 {
		return nil, fmt.Errorf("serve: max-cycles must be at least 1")
	}
	if cfg.Opts.Parallelism < 1 {
		cfg.Opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	cfg.Opts = cfg.Opts.Normalized()
	if cfg.MetricsEvery <= 0 {
		cfg.MetricsEvery = time.Second
	}
	if cfg.SSEHeartbeat <= 0 {
		cfg.SSEHeartbeat = 15 * time.Second
	}
	if cfg.SSEBuffer < 1 {
		cfg.SSEBuffer = 64
	}
	if cfg.QueueLimit < 1 {
		cfg.QueueLimit = 1024
	}
	// Split the fault plan: sim-level clauses go to every simulation (and
	// into store keys — they change simulation output), serve-level
	// clauses arm the chaos injector shared by the store and the HTTP
	// layer (they must NOT change any result byte).
	simPlan, servePlan := cfg.Opts.Faults.Split()
	cfg.Opts.Faults = simPlan
	var chaos *faults.Injector
	if servePlan != nil {
		chaos = faults.NewInjector(servePlan)
	}
	st, err := store.OpenWith(cfg.StoreDir, store.Options{
		MaxBytes: cfg.StoreMaxBytes,
		Chaos:    chaos,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		st:          st,
		chaos:       chaos,
		jobs:        map[string]*job{},
		sweeps:      map[string]*sweep{},
		memo:        map[string]admitted{},
		runSubs:     map[string][]*sseStream{},
		breakerHits: map[breakerKey]int{},
		breakerOpen: map[breakerKey]bool{},
		start:       time.Now(),
		stopWin:     make(chan struct{}),
		winDone:     make(chan struct{}),
		sseDrain:    make(chan struct{}),
		drained:     make(chan struct{}),
	}
	s.bootID = bootIDFrom(s.start)
	if cfg.Opts.Faults != nil {
		s.faultsSpec = cfg.Opts.Faults.String()
	}
	s.admit = newAdmitter(cfg.Opts.Parallelism, s.execute)
	s.initMetrics()
	s.initHandler()
	go s.windowLoop()
	return s, nil
}

func (s *Server) initMetrics() {
	s.reg = metrics.NewRegistry()
	s.cHTTPRequests = s.reg.AtomicCounter("serve/http_requests")
	s.cHTTPErrors = s.reg.AtomicCounter("serve/http_errors")
	s.cSubmissions = s.reg.AtomicCounter("serve/submissions")
	s.cDedup = s.reg.AtomicCounter("serve/dedup")
	s.cHits = s.reg.AtomicCounter("serve/hits")
	s.cMisses = s.reg.AtomicCounter("serve/misses")
	s.cFailures = s.reg.AtomicCounter("serve/failures")
	s.cStoreErrors = s.reg.AtomicCounter("serve/store_errors")
	s.cSSEDropped = s.reg.AtomicCounter("serve/sse_dropped")
	s.cShed = s.reg.AtomicCounter("serve/shed")
	s.cExpired = s.reg.AtomicCounter("serve/expired")
	s.cCanceled = s.reg.AtomicCounter("serve/canceled")
	s.cBreakerTrips = s.reg.AtomicCounter("serve/breaker_trips")
	s.cBreakerRejects = s.reg.AtomicCounter("serve/breaker_rejects")
	s.reg.Gauges(s.admit, "serve/queue_depth", "serve/inflight")
	s.reg.Gauges(storeGauges{s.st}, "store/puts", "store/quarantined", "store/recovered_temps",
		"store/bytes", "store/evictions", "store/gc_runs", "store/gc_us")
	// Span-latency histograms in wall microseconds; bucket bounds span
	// 50us to 10s. Names and bounds are frozen — the Prometheus
	// exposition derives bucket labels from them.
	spanBounds := []uint64{50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
		100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000}
	s.hSpanQueue = s.reg.AtomicHistogram("serve/span_queue_us", spanBounds...)
	s.hSpanStoreGet = s.reg.AtomicHistogram("serve/span_store_get_us", spanBounds...)
	s.hSpanSimulate = s.reg.AtomicHistogram("serve/span_simulate_us", spanBounds...)
	s.hSpanAssemble = s.reg.AtomicHistogram("serve/span_assemble_us", spanBounds...)
	s.hSpanStorePut = s.reg.AtomicHistogram("serve/span_store_put_us", spanBounds...)
	s.hHTTP = s.reg.AtomicHistogram("serve/http_us", spanBounds...)
	// Windows always close (windowLoop); the hub fans each one out to
	// the JSONL file (when configured) and to live SSE subscribers.
	s.winHub = &winHub{}
	if s.cfg.MetricsWriter != nil {
		s.jsonl = metrics.NewJSONLWriter(s.cfg.MetricsWriter)
		s.winHub.fwd = s.jsonl.Run(metrics.String("component", "serve"))
	}
	s.reg.SetSink(s.winHub)
}

// storeGauges samples the store's activity counters, in the order they
// are registered above, off one Stats snapshot a sample.
type storeGauges struct{ st *store.Store }

func (g storeGauges) Sample(i int) uint64 {
	st := g.st.Stats()
	return [...]uint64{st.Puts, st.Quarantined, st.RecoveredTemps, clampGauge(st.Bytes),
		st.Evictions, st.GCRuns, st.GCMicros}[i]
}

func clampGauge(v int64) uint64 { return uint64(max(v, 0)) }

// windowLoop closes a metrics window every MetricsEvery on a wall-clock
// axis (seconds since start); the final partial window closes at Close.
func (s *Server) windowLoop() {
	defer close(s.winDone)
	t := time.NewTicker(s.cfg.MetricsEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.reg.CloseWindow(uint64(time.Since(s.start) / time.Second))
		case <-s.stopWin:
			return
		}
	}
}

// Close is Drain with no deadline: every admitted job completes (the
// watchdog and MaxCycles bound each simulation), the final metrics
// window closes, the JSONL stream flushes, and the store fsyncs.
// Idempotent, and safe after Drain.
func (s *Server) Close() error {
	_, err := s.Drain(0)
	return err
}

// Store exposes the underlying store (tests assert consistency on it).
func (s *Server) Store() *store.Store { return s.st }

// Metrics exposes the server's registry (tests read counters by name).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// ---------------------------------------------------------------------
// Submission and execution

// KeyFor canonicalizes a run request against this server's configuration.
// Errors are admission errors (unknown bench/scheme, bad capacity) and
// map to 4xx.
func (s *Server) KeyFor(req RunRequest) (store.Key, error) {
	scheme, err := experiments.ParseScheme(req.Scheme)
	if err != nil {
		return store.Key{}, err
	}
	if req.Capacity < 0 {
		return store.Key{}, fmt.Errorf("negative capacity %d", req.Capacity)
	}
	capacity := req.Capacity
	if scheme.HasCapacity() {
		if capacity == 0 {
			capacity = experiments.DefaultCapacity
		}
		if err := core.CheckCapacity(capacity); err != nil {
			return store.Key{}, err
		}
	}
	report, err := canonicalizeReport(req.Report)
	if err != nil {
		return store.Key{}, err
	}
	ksha, err := KernelHash(req.Bench)
	if err != nil {
		return store.Key{}, err
	}
	k := store.Key{
		KernelSHA: ksha,
		Bench:     req.Bench,
		Scheme:    string(scheme),
		Capacity:  capacity,
		Warps:     s.cfg.Opts.Warps,
		SMs:       s.cfg.Opts.SMs,
		MaxCycles: s.cfg.Opts.MaxCycles,
		Watchdog:  s.cfg.Opts.Watchdog,
		Sanitize:  s.cfg.Opts.Sanitize,
		Faults:    s.faultsSpec,
		Report:    report,
	}.Normalized()
	if err := k.Validate(); err != nil {
		return store.Key{}, err
	}
	return k, nil
}

// admitted is what a run request comes to once it has been accepted: the
// canonical key and its content address, which is the job's id.
type admitted struct {
	key store.Key
	id  string
}

// resolve canonicalizes a run request and addresses it.
func (s *Server) resolve(req RunRequest) (admitted, error) {
	key, err := s.KeyFor(req)
	if err != nil {
		return admitted{}, err
	}
	id, err := key.Hash()
	if err != nil {
		return admitted{}, err
	}
	return admitted{key: key, id: id}, nil
}

// The body memo. Strict decode, KeyFor and Hash are together a pure
// function of the body's bytes for the life of a Server (its configuration
// and the kernels are fixed), and a figure re-reads the same few hundred
// points, so a body that was admitted once is looked up instead. The memo
// holds successful admissions only — a rejected body is decoded, and
// rejected, again every time — and is bounded by constants rather than
// evicted: at most memoEntries bodies of at most memoBodyMax bytes (2 MiB
// of bodies at worst, and a sweep's bodies are under 70 bytes); past
// either bound a body simply takes the decoder, as every body does first.
const (
	memoEntries = 4096
	memoBodyMax = 512
)

// admitRun resolves the body of a run submission.
func (s *Server) admitRun(body []byte) (admitted, error) {
	s.memoMu.Lock()
	a, ok := s.memo[string(body)]
	s.memoMu.Unlock()
	if ok {
		return a, nil
	}
	var req RunRequest
	if err := decodeStrict(body, &req); err != nil {
		return admitted{}, fmt.Errorf("bad run request: %v", err)
	}
	a, err := s.resolve(req)
	if err != nil {
		return admitted{}, err
	}
	if len(body) <= memoBodyMax {
		s.memoMu.Lock()
		if len(s.memo) < memoEntries {
			s.memo[string(body)] = a
		}
		s.memoMu.Unlock()
	}
	return a, nil
}

// submit admits one run (or attaches to the job already covering its
// key) and returns the shared job. Admission can reject: errDraining
// (shutdown in progress, 503), errOverloaded (queue at its limit, 429),
// or a quarantined config (breaker open, 503).
func (s *Server) submit(a admitted, client, reqID string, budget time.Duration) (*job, error) {
	key, id := a.key, a.id
	if s.draining() {
		return nil, errDraining
	}
	bk := breakerKey{bench: key.Bench, scheme: key.Scheme, capacity: key.Capacity}
	if s.breakerBlocks(bk) {
		s.cBreakerRejects.Inc()
		return nil, fmt.Errorf("config %s is quarantined after repeated diagnostics", bk)
	}
	s.cSubmissions.Inc()
	s.mu.Lock()
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
		return j, nil
	}
	j := &job{id: id, key: key, client: client, reqID: reqID, done: make(chan struct{})}
	if budget > 0 {
		j.ctx, j.cancel = context.WithTimeout(context.Background(), budget)
	} else {
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}
	// The queue span starts at the trace epoch (offset 0) so the child
	// spans tile the root exactly from its first microsecond.
	j.trace = obs.NewTrace("run")
	j.qspan = j.trace.StartAt(obs.Root, "queue", 0)
	// Enqueue while still holding s.mu (admit workers never take s.mu
	// with a.mu held, so the nesting is one-way): the job is visible in
	// s.jobs only if admission accepted it, and a shed submission leaves
	// no trace to dedup against.
	if !s.admit.tryEnqueue(j, s.cfg.QueueLimit) {
		s.mu.Unlock()
		j.cancel()
		s.cShed.Inc()
		return nil, errOverloaded
	}
	s.jobs[id] = j
	s.mu.Unlock()
	return j, nil
}

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
	defer s.publishRun(j)
	tr := j.trace
	t0 := tr.Now()
	tr.EndAt(j.qspan, t0)
	s.hSpanQueue.Observe(uint64(t0))

	if err := j.ctx.Err(); err != nil {
		// Abandoned (or expired) while queued: free the slot without
		// touching the store or simulating.
		tr.CloseAt(t0)
		s.finishAbandoned(j, err)
		return
	}

	sg := tr.StartAt(obs.Root, "store-get", t0)
	payload, ok, err := s.st.Get(j.key)
	t1 := tr.Now()
	tr.EndAt(sg, t1)
	s.hSpanStoreGet.Observe(uint64(t1 - t0))
	if err == nil && ok {
		s.cHits.Inc()
		tr.CloseAt(t1)
		reply := j.appendReplyHead(make([]byte, 0, replyHeadRoom+len(j.reqID)+len(payload)), true)
		j.reply = append(append(reply, payload...), "}\n"...)
		j.finish(jobDone)
		return
	} else if err != nil {
		s.cStoreErrors.Inc()
	}
	s.cMisses.Inc()

	simSpan := tr.StartAt(obs.Root, "simulate", t1)
	run, rep, err := s.simulate(obs.NewContext(j.ctx, tr, simSpan), j.key)
	t2 := tr.Now()
	tr.EndAt(simSpan, t2)
	s.hSpanSimulate.Observe(uint64(t2 - t1))
	if err != nil {
		if isAbandonErr(err) {
			tr.CloseAt(t2)
			s.finishAbandoned(j, err)
			return
		}
		j.errText = err.Error()
		var d *sanitizer.Diagnostic
		if errors.As(err, &d) {
			d.RequestID = j.reqID
			j.diag = d
			s.noteDiagnostic(breakerKey{bench: j.key.Bench, scheme: j.key.Scheme, capacity: j.key.Capacity})
		}
		s.recordFailure(j)
		tr.CloseAt(t2)
		j.finish(jobFailed)
		return
	}

	asm := tr.StartAt(obs.Root, "assemble", t2)
	res := s.resultFrom(run)
	res.Report = rep
	// Marshaled straight into the reply: one buffer for store and responses.
	buf := bytes.NewBuffer(j.appendReplyHead(nil, false))
	head := buf.Len()
	merr := json.NewEncoder(buf).Encode(res)
	t3 := tr.Now()
	tr.EndAt(asm, t3)
	s.hSpanAssemble.Observe(uint64(t3 - t2))
	if merr != nil {
		j.errText = merr.Error()
		s.recordFailure(j)
		tr.CloseAt(t3)
		j.finish(jobFailed)
		return
	}
	reply := buf.Bytes()[:buf.Len()-1] // Encode ends with a newline

	sp := tr.StartAt(obs.Root, "store-put", t3)
	perr := s.st.Put(j.key, reply[head:])
	t4 := tr.Now()
	tr.EndAt(sp, t4)
	s.hSpanStorePut.Observe(uint64(t4 - t3))
	if perr != nil {
		// The response is still served from memory; only persistence
		// for future processes failed.
		s.cStoreErrors.Inc()
	}
	tr.CloseAt(t4)
	j.reply = append(reply, "}\n"...)
	j.finish(jobDone)
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

// isAbandonErr reports the error is the request budget or cancellation
// surfacing through the cycle loop, not a simulation failure.
func isAbandonErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// finishAbandoned ends a job that stopped because its request went away
// (canceled) or its budget ran out (expired). Neither says anything
// about the simulation: no recordFailure, no healthz degradation, no
// breaker accounting.
func (s *Server) finishAbandoned(j *job, err error) {
	j.errText = err.Error()
	st := jobCanceled
	if errors.Is(err, context.DeadlineExceeded) {
		st = jobExpired
		s.cExpired.Inc()
	} else {
		s.cCanceled.Inc()
	}
	j.finish(st)
}

func (s *Server) recordFailure(j *job) {
	s.cFailures.Inc()
	fb := FailureBrief{ID: j.id, Bench: j.key.Bench, Scheme: j.key.Scheme, Brief: j.errText}
	if j.diag != nil {
		fb.Component = j.diag.Component
		fb.Brief = j.diag.Brief()
	}
	s.mu.Lock()
	s.recent = append(s.recent, fb)
	if len(s.recent) > 8 {
		s.recent = s.recent[len(s.recent)-8:]
	}
	s.mu.Unlock()
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

// replyHeadRoom covers a reply's head and tail around a request id that
// needs no escaping (one that does grows the buffer once more).
const replyHeadRoom = 160

var stateNames = [...]string{jobQueued: "queued", jobRunning: "running", jobDone: "done",
	jobFailed: "failed", jobExpired: "expired", jobCanceled: "canceled"}

// status renders the job without its result (a done job's is in j.reply).
func (j *job) status() RunStatus {
	st := RunStatus{ID: j.id, RequestID: j.reqID, Status: "queued"}
	select {
	case <-j.done:
		st.Status = stateNames[j.state.Load()]
		st.Cached, st.Error, st.Diagnostic = j.cached, j.errText, j.diag
	default:
		if j.state.Load() == jobRunning {
			st.Status = "running"
		}
	}
	return st
}

// ---------------------------------------------------------------------
// HTTP layer

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

// waitJobs blocks for the jobs unless the client goes away first. Every
// waiting handler is accounted: when the last waiter of an unpinned job
// disconnects, the job is abandoned — its context cancels, the cycle
// loop (or the admission queue) observes it, and the pool slot frees
// instead of simulating for nobody.
func (s *Server) waitJobs(r *http.Request, jobs ...*job) bool {
	for _, j := range jobs {
		j.waiters.Add(1)
	}
	finished := true
wait:
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-r.Context().Done():
			finished = false
			break wait
		}
	}
	for _, j := range jobs {
		if j.waiters.Add(-1) == 0 && !j.pinned.Load() {
			select {
			case <-j.done:
			default:
				j.cancel()
			}
		}
	}
	return finished
}

// submitError maps an admission rejection to its HTTP shape.
func (s *Server) submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errDraining):
		s.httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
		s.httpError(w, http.StatusTooManyRequests, "%v", err)
	default:
		s.httpError(w, http.StatusServiceUnavailable, "%v", err)
	}
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
	j, err := s.submit(a, clientOf(r), r.Header.Get(headerRequestID), budget)
	if err != nil {
		s.submitError(w, err)
		return
	}
	if wantWait(r) {
		if !s.waitJobs(r, j) {
			s.httpError(w, http.StatusServiceUnavailable, "client gave up waiting")
			return
		}
		writeRun(w, http.StatusOK, j)
		return
	}
	// An async submission intends to poll later: pin the job so it
	// survives having no waiter attached right now.
	j.pinned.Store(true)
	writeRun(w, http.StatusAccepted, j)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown run %q", id)
		return
	}
	if wantWait(r) && !s.waitJobs(r, j) {
		s.httpError(w, http.StatusServiceUnavailable, "client gave up waiting")
		return
	}
	writeRun(w, http.StatusOK, j)
}

// expand builds the sweep's run requests in deterministic grid order.
func (req SweepRequest) expand() ([]RunRequest, error) {
	if len(req.Benchmarks) == 0 {
		return nil, fmt.Errorf("sweep names no benchmarks")
	}
	if len(req.Schemes) == 0 {
		return nil, fmt.Errorf("sweep names no schemes")
	}
	caps := req.Capacities
	if len(caps) == 0 {
		caps = []int{0} // KeyFor resolves 0 to the scheme's default
	}
	var out []RunRequest
	for _, b := range req.Benchmarks {
		for _, sc := range req.Schemes {
			for _, c := range caps {
				out = append(out, RunRequest{Bench: b, Scheme: sc, Capacity: c})
			}
		}
	}
	return out, nil
}

func (s *Server) handlePostSweep(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	var req SweepRequest
	err = decodeStrict(body.Bytes(), &req)
	putBody(body)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "bad sweep request: %v", err)
		return
	}
	runs, err := req.expand()
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Canonicalize the whole grid first so a bad cell rejects the sweep
	// before anything is admitted.
	cells := make([]admitted, 0, len(runs))
	for _, rr := range runs {
		a, err := s.resolve(rr)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		cells = append(cells, a)
	}
	budget, err := s.budgetFor(r)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	client := clientOf(r)
	reqID := r.Header.Get(headerRequestID)
	var jobs []*job
	seen := map[string]bool{}
	for _, a := range cells {
		j, err := s.submit(a, client, reqID, budget)
		if err != nil {
			s.submitError(w, err)
			return
		}
		if !seen[j.id] {
			seen[j.id] = true
			jobs = append(jobs, j)
		}
	}
	sw := &sweep{jobs: jobs}
	h := sha256.New()
	for _, j := range jobs {
		io.WriteString(h, j.id)
	}
	sw.id = hex.EncodeToString(h.Sum(nil))
	s.mu.Lock()
	if prev, ok := s.sweeps[sw.id]; ok {
		sw = prev
	} else {
		s.sweeps[sw.id] = sw
	}
	s.mu.Unlock()
	if wantWait(r) {
		if !s.waitJobs(r, sw.jobs...) {
			s.httpError(w, http.StatusServiceUnavailable, "client gave up waiting")
			return
		}
		writeJSON(w, http.StatusOK, sw.status())
		return
	}
	for _, j := range sw.jobs {
		j.pinned.Store(true)
	}
	writeJSON(w, http.StatusAccepted, sw.status())
}

func (sw *sweep) status() SweepStatus {
	st := SweepStatus{ID: sw.id, Total: len(sw.jobs)}
	for _, j := range sw.jobs {
		rs := j.status()
		st.Runs = append(st.Runs, rs)
		switch rs.Status {
		case "done":
			st.Completed++
		case "failed", "expired", "canceled":
			// Expired/canceled runs are terminal without a result: the
			// sweep cannot end "done", so they count as failures at the
			// sweep level even though they say nothing about the sim.
			st.Completed++
			st.Failed++
		}
	}
	switch {
	case st.Completed < st.Total:
		st.Status = "running"
	case st.Failed > 0:
		st.Status = "failed"
	default:
		st.Status = "done"
	}
	return st
}

func (s *Server) lookupSweep(id string) *sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	sw := s.lookupSweep(r.PathValue("id"))
	if sw == nil {
		s.httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	if wantWait(r) && !s.waitJobs(r, sw.jobs...) {
		s.httpError(w, http.StatusServiceUnavailable, "client gave up waiting")
		return
	}
	writeJSON(w, http.StatusOK, sw.status())
}

func (s *Server) handleSweepTable(w http.ResponseWriter, r *http.Request) {
	sw := s.lookupSweep(r.PathValue("id"))
	if sw == nil {
		s.httpError(w, http.StatusNotFound, "unknown sweep %q", r.PathValue("id"))
		return
	}
	if wantWait(r) {
		if !s.waitJobs(r, sw.jobs...) {
			s.httpError(w, http.StatusServiceUnavailable, "client gave up waiting")
			return
		}
	} else {
		for _, j := range sw.jobs {
			select {
			case <-j.done:
			default:
				s.httpError(w, http.StatusConflict, "sweep still running (%s)", j.id)
				return
			}
		}
	}
	tb, err := sw.table(s.cfg.Opts.Warps, s.cfg.Opts.SMs)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, tb.Render())
}

// table renders the sweep's completed runs. The text is a pure function
// of the run results (no hit/miss annotations), so a cached pass renders
// byte-identically to the pass that computed it.
func (sw *sweep) table(warps, sms int) (*experiments.Table, error) {
	tb := &experiments.Table{
		ID:     "sweep",
		Title:  fmt.Sprintf("%d runs (warps %d, SMs %d)", len(sw.jobs), warps, sms),
		Header: []string{"bench", "scheme", "capacity", "cycles", "insns", "IPC", "SIMT eff"},
	}
	for _, j := range sw.jobs {
		switch j.state.Load() {
		case jobFailed:
			tb.AddRow(j.key.Bench, j.key.Scheme, fmt.Sprint(j.key.Capacity), "error", j.errText, "", "")
			continue
		case jobExpired:
			tb.AddRow(j.key.Bench, j.key.Scheme, fmt.Sprint(j.key.Capacity), "expired", j.errText, "", "")
			continue
		case jobCanceled:
			tb.AddRow(j.key.Bench, j.key.Scheme, fmt.Sprint(j.key.Capacity), "canceled", j.errText, "", "")
			continue
		}
		var st struct{ Result RunResult }
		if err := json.Unmarshal(j.reply, &st); err != nil {
			return nil, fmt.Errorf("decoding result %s: %w", j.id, err)
		}
		res := st.Result
		tb.AddRow(res.Bench, res.Scheme, fmt.Sprint(res.Capacity),
			fmt.Sprint(res.Stats.Cycles), fmt.Sprint(res.Stats.DynInsns),
			fmt.Sprintf("%.2f", res.Stats.IPC()), fmt.Sprintf("%.2f", res.Stats.SIMTEfficiency()))
	}
	return tb, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	recent := append([]FailureBrief(nil), s.recent...)
	s.mu.Unlock()
	entries, err := s.st.Len()
	if err != nil {
		entries = -1
	}
	h := Health{
		GitSHA:        s.cfg.GitSHA,
		StoreEntries:  entries,
		StoreBytes:    s.st.Bytes(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Jobs:          jobs,
		Queued:        s.admit.queued.Load(),
		Inflight:      s.admit.inflight.Load(),
		Failures:      s.cFailures.Value(),
		Sanitize:      s.cfg.Opts.Sanitize,
		Watchdog:      s.cfg.Opts.Watchdog,
		LastFailures:  recent,
		Breakers:      s.openBreakers(),
	}
	if s.cfg.Opts.Faults != nil {
		h.ArmedFaults = s.cfg.Opts.Faults.ArmedClasses()
	}
	code := http.StatusOK
	h.Status = "ok"
	switch {
	case s.draining():
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	case h.Queued >= int64(s.cfg.QueueLimit):
		h.Status = "overloaded"
		code = http.StatusServiceUnavailable
	case h.Failures > 0 || len(h.Breakers) > 0:
		h.Status = "degraded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
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
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		s.httpError(w, http.StatusNotFound, "unknown run %q", id)
		return
	}
	select {
	case <-j.done:
	default:
		s.httpError(w, http.StatusConflict, "run %s still %s", id, j.status().Status)
		return
	}
	if r.URL.Query().Get("format") == "perfetto" {
		w.Header().Set("Content-Type", "application/json")
		if err := j.trace.WriteChrome(w, "run "+id); err != nil {
			s.cHTTPErrors.Inc()
		}
		return
	}
	resp := map[string]any{"id": id, "root": j.trace.Tree()}
	if j.reqID != "" {
		resp["request_id"] = j.reqID
	}
	writeJSON(w, http.StatusOK, resp)
}
