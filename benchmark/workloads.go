package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// op is one request of a workload's op list: a point in the suite's
// (bench, scheme, capacity) space. The program under test only ever
// sees these generated requests.
type op struct {
	Bench    string
	Scheme   experiments.Scheme
	Capacity int
}

func (o op) String() string { return fmt.Sprintf("%s/%s/%d", o.Bench, o.Scheme, o.Capacity) }

type schemeCap struct {
	scheme   experiments.Scheme
	capacity int
}

// scale sizes a workload: full for measurement, miniature in self-tests.
type scale struct {
	Warps     int
	Benches   []string
	Lifetimes int // serve_warm: server restarts per pass
}

func fullScale() scale {
	return scale{Warps: 64, Benches: kernels.Names(), Lifetimes: 20}
}

// maxCycles is experiments.Default()'s runaway bound; every workload
// simulates under it so results equal what the CLI would print.
const maxCycles = 60_000_000

// workloadSpec is the static description of one workload.
type workloadSpec struct {
	name string
	why  string
	// schemes crossed with the scale's benchmarks gives the op list.
	schemes []schemeCap
	sms     int
	build   func(spec workloadSpec, ops []op, sc scale, scratch string, probe bool) workload
}

var comparisonSchemes = []schemeCap{
	{experiments.SchemeBaseline, 0},
	{experiments.SchemeRFV, 0},
	{experiments.SchemeRFH, 0},
	{experiments.SchemeRegLess, experiments.DefaultCapacity},
	{experiments.SchemeRegLessNC, experiments.DefaultCapacity},
}

// specs lists the workloads in BENCHMARK.json order. The why strings are
// the ones BENCHMARK.json and the README carry.
var specs = []workloadSpec{
	{
		name: "suite_1sm",
		why:  "CLI path: the 231 single-SM runs experiments.All needs, then table assembly; sim+exec+providers+flat-L2 mem do the work, gpu/store/serve none",
		schemes: []schemeCap{
			{experiments.SchemeBaseline, 0},
			{experiments.SchemeBaseline2L, 0},
			{experiments.SchemeRFV, 0},
			{experiments.SchemeRFH, 0},
			{experiments.SchemeRegLessNC, experiments.DefaultCapacity},
			{experiments.SchemeRegLess, 128},
			{experiments.SchemeRegLess, 192},
			{experiments.SchemeRegLess, 256},
			{experiments.SchemeRegLess, 384},
			{experiments.SchemeRegLess, 512},
			{experiments.SchemeRegLess, 1024},
		},
		sms:   1,
		build: newSuiteWorkload,
	},
	{
		name: "chip_4sm",
		why:  "42 four-SM chip runs: gpu lockstep, coordinated fast-forward, banked L2 and DRAM budget dominate; the single-SM path and serve are bypassed",
		schemes: []schemeCap{
			{experiments.SchemeBaseline, 0},
			{experiments.SchemeRegLess, experiments.DefaultCapacity},
		},
		sms:   4,
		build: newSuiteWorkload,
	},
	{
		name:    "serve_cold",
		why:     "service write side: 105 cold misses over HTTP into an empty store (queue, simulate, assemble, store put); catches cost added to the miss path",
		schemes: comparisonSchemes,
		sms:     1,
		build:   newServeWorkload,
	},
	{
		name:    "serve_warm",
		why:     "service read side: 20 warm restarts over a populated store, each key one disk hit then three memory hits; nothing is simulated",
		schemes: comparisonSchemes,
		sms:     1,
		build:   newServeWorkload,
	},
}

func specByName(name string) (workloadSpec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// canonicalOps is the workload's op list in definition order (bench
// major). Results are digested in this order whatever order they ran in.
func canonicalOps(spec workloadSpec, sc scale) []op {
	out := make([]op, 0, len(sc.Benches)*len(spec.schemes))
	for _, b := range sc.Benches {
		for _, s := range spec.schemes {
			out = append(out, op{b, s.scheme, s.capacity})
		}
	}
	return out
}

// shuffledOps is the order a pass issues the ops in: the canonical list
// shuffled by seed (math/rand's generator is frozen, so a seed names the
// same order on every Go release).
func shuffledOps(spec workloadSpec, sc scale, seed int64) []op {
	ops := canonicalOps(spec, sc)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// workload is one benchmark workload instantiated for a run.
type workload interface {
	// setup builds what a run needs once (reference payloads, the
	// populated store); its time is bench.fixture_s, not set-up.
	setup() error
	// pass runs the op list once. A nil trace records nothing.
	pass(tr *obs.Trace) passOut
	// finish runs end-of-run checks and returns their failures.
	finish() []string
}

// passOut is what one pass measured and delivered.
type passOut struct {
	meter
	ops, failed int
	// segMS holds how long each segment of the pass took, in an order
	// that is the same on every pass of a run: every op, and the steps
	// between ops that belong to the op list (server start and stop,
	// table assembly). firstTouch indexes the first-touch ops in it.
	segMS      []float64
	firstTouch []int
	simCycles  uint64
	// results[op] digests what the op delivered; tables digests the
	// assembled tables (zero where the workload has none).
	results map[op][32]byte
	tables  [32]byte
	// errs describes the first few failures.
	errs []string
}

// seg records the segment that started at t0 and ends now.
func (p *passOut) seg(t0 time.Time, firstTouch bool) {
	if firstTouch {
		p.firstTouch = append(p.firstTouch, len(p.segMS))
	}
	p.segMS = append(p.segMS, float64(time.Since(t0))/1e6)
}

// firstTouchMS is the latency of each first-touch op of the pass.
func (p *passOut) firstTouchMS() []float64 {
	out := make([]float64, len(p.firstTouch))
	for i, idx := range p.firstTouch {
		out[i] = p.segMS[idx]
	}
	return out
}

func (p *passOut) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// digest folds the pass's deliveries into one fingerprint, in canonical
// op order.
func (p *passOut) digest(canon []op) [32]byte {
	h := sha256.New()
	for _, o := range canon {
		d := p.results[o]
		h.Write(d[:])
	}
	h.Write(p.tables[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// compare counts the ops of p whose delivery differs from ref's (the
// warm-up pass): every timed pass must be byte-identical to it.
func (p *passOut) compare(ref *passOut, canon []op) {
	for _, o := range canon {
		if p.results[o] != ref.results[o] {
			p.fail("%s: result differs from the warm-up pass", o)
		}
	}
	if p.tables != ref.tables {
		p.fail("tables differ from the warm-up pass")
	}
	if p.simCycles != ref.simCycles {
		p.fail("sim_cycles %d differs from the warm-up pass's %d", p.simCycles, ref.simCycles)
	}
}

// meter brackets a timed region with the counts that ride beside time.
type meter struct {
	seconds    float64
	cpuSeconds float64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32

	t0  time.Time
	ms0 runtime.MemStats
	ru0 syscall.Rusage
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru0) // cannot fail for RUSAGE_SELF
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.seconds = time.Since(m.t0).Seconds()
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.cpuSeconds = tvSeconds(ru.Utime) + tvSeconds(ru.Stime) - tvSeconds(m.ru0.Utime) - tvSeconds(m.ru0.Stime)
	m.allocBytes = ms.TotalAlloc - m.ms0.TotalAlloc
	m.mallocs = ms.Mallocs - m.ms0.Mallocs
	m.gcCycles = ms.NumGC - m.ms0.NumGC
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// runDigest fingerprints one run's statistics exactly as a consumer
// would read them.
func runDigest(r *experiments.Run) ([32]byte, error) {
	b, err := json.Marshal(struct {
		Stats any
		Prov  any
		Mem   any
	}{r.Stats, r.Prov, r.Mem})
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// suiteWorkload drives experiments.Suite directly: suite_1sm (with table
// assembly) and chip_4sm (Options.SMs = 4, no tables).
type suiteWorkload struct {
	spec workloadSpec
	ops  []op
	sc   scale
}

func newSuiteWorkload(spec workloadSpec, ops []op, sc scale, _ string, _ bool) workload {
	return &suiteWorkload{spec: spec, ops: ops, sc: sc}
}

func (w *suiteWorkload) setup() error     { return nil }
func (w *suiteWorkload) finish() []string { return nil }

func (w *suiteWorkload) options() experiments.Options {
	return experiments.Options{
		Warps:       w.sc.Warps,
		Benchmarks:  w.sc.Benches,
		MaxCycles:   maxCycles,
		Parallelism: 1,
		SMs:         w.spec.sms,
	}
}

func (w *suiteWorkload) pass(tr *obs.Trace) passOut {
	out := passOut{results: make(map[op][32]byte, len(w.ops))}
	runs := make([]*experiments.Run, len(w.ops))
	out.segMS = make([]float64, 0, len(w.ops)+1)
	out.firstTouch = make([]int, 0, len(w.ops))
	withTables := w.spec.sms == 1
	var tables []*experiments.Table
	var tablesErr error
	// Simulations count toward the ops until table assembly starts;
	// any after that is one the op list failed to cover.
	opSims, lateSims := 0, 0
	sims := &opSims

	out.meter.start()
	s := experiments.NewSuite(w.options())
	s.OnSimulate = func(string, experiments.Scheme, int) { *sims++ }
	for i, o := range w.ops {
		sp, ctx := obs.NoSpan, context.Background()
		if tr != nil {
			sp = tr.Start(obs.Root, "op "+o.String())
			ctx = obs.NewContext(ctx, tr, sp)
		}
		t0 := time.Now()
		r, err := s.GetCtx(ctx, o.Bench, o.Scheme, o.Capacity)
		out.seg(t0, true)
		tr.End(sp)
		if err != nil {
			out.fail("%s: %v", o, err)
			continue
		}
		runs[i] = r
	}
	if withTables {
		sims = &lateSims
		sp := tr.Start(obs.Root, "experiments.All (warm)")
		t0 := time.Now()
		tables, tablesErr = experiments.All(s)
		out.seg(t0, false)
		tr.End(sp)
	}
	out.meter.stop()

	out.ops = len(w.ops)
	for i, o := range w.ops {
		r := runs[i]
		if r == nil {
			continue
		}
		d, err := runDigest(r)
		if err != nil {
			out.fail("%s: %v", o, err)
			continue
		}
		out.results[o] = d
		out.simCycles += r.Stats.Cycles
	}
	if opSims != len(w.ops) {
		out.fail("%d simulations for %d ops: an op was not a first touch", opSims, len(w.ops))
	}
	if withTables {
		out.ops++ // table assembly is the op list's last op
		switch {
		case tablesErr != nil:
			out.fail("experiments.All: %v", tablesErr)
		case lateSims > 0:
			out.fail("experiments.All simulated %d runs the op list does not cover", lateSims)
		default:
			h := sha256.New()
			for _, tb := range tables {
				h.Write([]byte(tb.Render()))
			}
			copy(out.tables[:], h.Sum(nil))
		}
	}
	return out
}
