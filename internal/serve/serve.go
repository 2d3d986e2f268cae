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
//	  scanner     -> a body as json.Marshal writes it is read in place;
//	                 any other goes to the strict decoder
//	  jobs map    -> submissions of the same key attach to one job (dedupe)
//	  admitter    -> per-client round-robin FIFO into a bounded pool
//	  store.Get   -> disk hit: serve the stored bytes verbatim
//	  simulate    -> miss: experiments.SimulateInstrumented, store.Put
//
// Because the store holds the marshaled response payload itself, a hit —
// in this process or any later one — is byte-identical to the response
// the original miss produced.
//
// The package is one file per concern; DESIGN.md §14 has the map.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
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
	// window stream (hit/miss/queue counters), one window a second.
	// Windows close whether or not a writer is configured —
	// /v1/metricsz/stream subscribers receive the same stream live.
	MetricsWriter io.Writer

	// GitSHA stamps /healthz (ldflags or VCS build info; "" omits it).
	GitSHA string
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

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
	// sseBuffer is each SSE subscriber's bounded frame buffer (64 frames;
	// a test shrinks it after New): a slow client overflowing it loses
	// frames and is told so with a "dropped" marker event rather than
	// stalling the execution path.
	sseBuffer int

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
	if cfg.QueueLimit < 1 {
		cfg.QueueLimit = 1024
	}
	if cfg.BreakerThreshold < 1 {
		cfg.BreakerThreshold = 3
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
		sseBuffer:   64,
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

// windowLoop closes a metrics window every second on a wall-clock axis
// (seconds since start); the final partial window closes at Close.
func (s *Server) windowLoop() {
	defer close(s.winDone)
	t := time.NewTicker(time.Second)
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
