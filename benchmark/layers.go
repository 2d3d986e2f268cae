package main

// Per-layer probes of a traced run. Every probe stands outside the
// program: it times calls into one layer's public functions, or reads
// outputs the program already publishes (Run.Stats/Prov/Mem, store
// counters, GET /v1/runs/{id}/trace). Times are the fastest of a few
// repetitions of a fixed amount of work unless named p50/p99; counts are
// exact. Nothing here is gated: the numbers say where to look when an
// end-to-end metric moves.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/metadata"
	"repro/internal/obs"
	"repro/internal/regalloc"
	"repro/internal/regions"
	"repro/internal/serve"
	"repro/internal/store"
)

// layerProbe collects the metrics and failures of the layer probes.
type layerProbe struct {
	seed    int64
	sc      scale
	scratch string
	m       map[string]metric
	errs    []string
}

func (lp *layerProbe) set(name string, v float64, unit string) { lp.m[name] = metric{v, unit} }

func (lp *layerProbe) fail(format string, args ...any) {
	lp.errs = append(lp.errs, fmt.Sprintf(format, args...))
}

// layerMetrics runs every layer probe, compile side first and the
// service last (outside in is how the results read; the order they run
// in does not matter, each builds what it needs).
func layerMetrics(seed int64, sc scale, scratch string) (map[string]metric, []string) {
	lp := &layerProbe{seed: seed, sc: sc, scratch: scratch, m: map[string]metric{}}
	lp.compile()
	lp.exec()
	lp.sim()
	lp.mem()
	lp.gpu()
	lp.experiments()
	lp.events()
	lp.service()
	return lp.m, lp.errs
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func ns(d time.Duration) float64 { return float64(d) }

// keepMin lowers *best to v.
func keepMin(best *float64, v float64) {
	if v < *best {
		*best = v
	}
}

// compile times the compile side: kernel construction, register
// allocation, region compilation and metadata encoding, uncached.
func (lp *layerProbe) compile() {
	build, alloc, comp, meta, total := math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
	benches := lp.benchmarks()
	// The capacity configurations suite_1sm compiles for.
	var capacities []int
	spec, _ := specByName("suite_1sm")
	for _, sc := range spec.schemes {
		if sc.scheme == experiments.SchemeRegLess {
			capacities = append(capacities, sc.capacity)
		}
	}
	for rep := 0; rep < 3; rep++ {
		var tb, ta, tc, tm time.Duration
		for _, b := range benches {
			t := time.Now()
			k := b.Build()
			tb += time.Since(t)
			t = time.Now()
			res, err := regalloc.Allocate(k)
			ta += time.Since(t)
			if err != nil {
				lp.fail("regalloc %s: %v", b.Name, err)
				continue
			}
			for _, c := range capacities {
				t = time.Now()
				compiled, err := regions.Compile(res.Kernel, core.ConfigForCapacity(c).Regions)
				tc += time.Since(t)
				if err != nil {
					lp.fail("regions %s@%d: %v", b.Name, c, err)
					continue
				}
				t = time.Now()
				_, err = metadata.Apply(compiled)
				tm += time.Since(t)
				if err != nil {
					lp.fail("metadata %s@%d: %v", b.Name, c, err)
				}
			}
		}
		keepMin(&build, ns(tb))
		keepMin(&alloc, ns(ta))
		keepMin(&comp, ns(tc))
		keepMin(&meta, ns(tm))
		keepMin(&total, ns(tb+ta+tc+tm))
	}
	nk := float64(len(benches))
	nc := nk * float64(len(capacities))
	lp.set("kernels.build_us_per_kernel", build/nk/1e3, "us")
	lp.set("regalloc.allocate_us_per_kernel", alloc/nk/1e3, "us")
	lp.set("regions.compile_us_per_kernel", comp/nc/1e3, "us")
	lp.set("metadata.apply_us_per_kernel", meta/nc/1e3, "us")
	lp.set("compile.total_ms", total/1e6, "ms")
}

func (lp *layerProbe) benchmarks() []kernels.Benchmark {
	var out []kernels.Benchmark
	for _, name := range lp.sc.Benches {
		b, err := kernels.ByName(name)
		if err != nil {
			lp.fail("%v", err)
			continue
		}
		out = append(out, b)
	}
	return out
}

// exec times the functional executor alone: no timing model, no
// provider, no memory hierarchy.
func (lp *layerProbe) exec() {
	best := math.Inf(1)
	var insns, mallocs uint64
	for rep := 0; rep < 3; rep++ {
		var d time.Duration
		insns = 0
		m0 := mallocCount()
		for _, name := range lp.sc.Benches {
			k, err := kernels.Load(name)
			if err != nil {
				lp.fail("%v", err)
				continue
			}
			mm := exec.NewMemory(nil)
			t := time.Now()
			res, err := exec.Run(k, lp.sc.Warps, mm)
			d += time.Since(t)
			if err != nil {
				lp.fail("exec %s: %v", name, err)
				continue
			}
			insns += res.DynInsns
		}
		mallocs = mallocCount() - m0
		keepMin(&best, ns(d))
	}
	lp.set("exec.ns_per_warp_insn", best/float64(insns), "ns")
	lp.set("exec.warp_insns", float64(insns), "count")
	lp.set("exec.allocs_per_kinsn", float64(mallocs)/(float64(insns)/1e3), "count")
}

// simAgg sums one scheme's runs over the benchmarks.
type simAgg struct {
	run, build      time.Duration
	cycles, insns   uint64
	ffSkipped       uint64
	mallocs         uint64
	l1Hits, l1Miss  uint64
	l2Hits, l2Miss  uint64
	dramLines, runs uint64
}

// simScheme builds and runs every benchmark under one scheme on the
// single-SM path, timing SM.Run apart from BuildSM.
func (lp *layerProbe) simScheme(scheme experiments.Scheme, noFF, countAllocs bool) simAgg {
	var a simAgg
	for _, bench := range lp.sc.Benches {
		t := time.Now()
		smv, _, err := experiments.BuildSM(bench, scheme, experiments.SimSetup{
			Capacity: experiments.DefaultCapacity, Warps: lp.sc.Warps,
			MaxCycles: maxCycles, NoFastForward: noFF,
		})
		a.build += time.Since(t)
		if err != nil {
			lp.fail("BuildSM %s/%s: %v", bench, scheme, err)
			continue
		}
		var m0 uint64
		if countAllocs {
			m0 = mallocCount()
		}
		t = time.Now()
		st, err := smv.Run()
		a.run += time.Since(t)
		if countAllocs {
			a.mallocs += mallocCount() - m0
		}
		if err != nil {
			lp.fail("SM.Run %s/%s: %v", bench, scheme, err)
			continue
		}
		a.runs++
		a.cycles += st.Cycles
		a.insns += st.DynInsns
		a.ffSkipped += st.FFSkippedCycles
		ms := smv.Mem.Stats
		a.l1Hits += ms.L1Hits
		a.l1Miss += ms.L1Misses
		a.l2Hits += ms.L2Hits
		a.l2Miss += ms.L2Misses
		a.dramLines += ms.DRAMAccesses
	}
	return a
}

// sim times the SM timing model per scheme, and reads the modelled
// memory hierarchy's hit rates from the same runs.
func (lp *layerProbe) sim() {
	schemes := experiments.Schemes()
	best := make([]float64, len(schemes))
	first := make([]simAgg, len(schemes))
	buildBest := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		var build time.Duration
		for i, sc := range schemes {
			a := lp.simScheme(sc, false, rep == 0)
			if rep == 0 {
				best[i], first[i] = ns(a.run), a
			}
			keepMin(&best[i], ns(a.run))
			build += a.build
		}
		keepMin(&buildBest, ns(build))
	}
	var all simAgg
	for i, sc := range schemes {
		a := first[i]
		lp.set("sim.ns_per_cycle."+string(sc), best[i]/float64(a.cycles), "ns")
		lp.set("sim.ns_per_warp_insn."+string(sc), best[i]/float64(a.insns), "ns")
		if sc == experiments.SchemeBaseline || sc == experiments.SchemeRegLess {
			lp.set("sim.allocs_per_kcycle."+string(sc), float64(a.mallocs)/(float64(a.cycles)/1e3), "count")
		}
		all.cycles += a.cycles
		all.ffSkipped += a.ffSkipped
		all.runs += a.runs
		all.l1Hits += a.l1Hits
		all.l1Miss += a.l1Miss
		all.l2Hits += a.l2Hits
		all.l2Miss += a.l2Miss
		all.dramLines += a.dramLines
	}
	lp.set("sim.ff_skipped_share", float64(all.ffSkipped)/float64(all.cycles), "ratio")
	lp.set("sim.build_us_per_run", buildBest/float64(all.runs)/1e3, "us")
	lp.set("mem.l1_hit_rate", float64(all.l1Hits)/float64(all.l1Hits+all.l1Miss), "ratio")
	lp.set("mem.l2_hit_rate", float64(all.l2Hits)/float64(all.l2Hits+all.l2Miss), "ratio")
	lp.set("mem.dram_lines", float64(all.dramLines), "count")

	stepped := math.Inf(1)
	var cycles uint64
	for rep := 0; rep < 2; rep++ {
		a := lp.simScheme(experiments.SchemeRegLess, true, false)
		keepMin(&stepped, ns(a.run))
		cycles = a.cycles
	}
	lp.set("sim.stepped_ns_per_cycle.regless", stepped/float64(cycles), "ns")
}

// mem drives the memory hierarchy alone with seeded synthetic address
// streams, the way an SM does: submit, and Tick once per cycle.
func (lp *layerProbe) mem() {
	const n = 200_000
	rng := rand.New(rand.NewSource(lp.seed))
	sink := func(mem.Source) {}
	lines := func(footprint int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = uint32(rng.Intn(footprint/mem.LineSize)) * mem.LineSize
		}
		return s
	}
	cfg := mem.DefaultConfig()

	// L1 read hits: 256 resident lines of the 384 the L1 holds.
	h := mem.New(cfg)
	for a := uint32(0); a < 256*mem.LineSize; a += mem.LineSize {
		h.L1Access(a, true, nil)
		h.Tick()
	}
	stream := lines(256 * mem.LineSize)
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		for _, a := range stream {
			h.L1Access(a, false, sink)
			h.Tick()
		}
		keepMin(&best, ns(time.Since(t)))
	}
	if h.Stats.L1Misses != 0 {
		lp.fail("mem L1 probe: %d misses in a resident stream", h.Stats.L1Misses)
	}
	lp.set("mem.l1_hit_ns", best/n, "ns")

	// Flat L2 slice: bypassing data reads over twice the slice, so both
	// the hit and the DRAM path run; rejected submissions retry after a
	// Tick, as the LSU does.
	flat := cfg.L2Sets * cfg.L2Ways * mem.LineSize
	stream = lines(2 * flat)
	best = math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		h = mem.New(cfg)
		t := time.Now()
		for _, a := range stream {
			for !h.DataAccess(a, false, sink) {
				h.Tick()
			}
			h.Tick()
		}
		keepMin(&best, ns(time.Since(t)))
	}
	lp.set("mem.l2_flat_ns_per_access", best/n, "ns")

	// Banked L2 shared by four hierarchies, over twice its capacity.
	bcfg := mem.DefaultBankedL2Config()
	stream = lines(2 * bcfg.Banks * bcfg.SetsPerBank * bcfg.Ways * mem.LineSize)
	best = math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		l2, err := mem.NewBankedL2(bcfg)
		if err != nil {
			lp.fail("banked L2: %v", err)
			break
		}
		hs := make([]*mem.Hierarchy, 4)
		for i := range hs {
			hs[i] = l2.AttachHierarchy(cfg)
		}
		t := time.Now()
		for next := 0; next < n; {
			for _, hh := range hs {
				if next < n && hh.DataAccess(stream[next], false, sink) {
					next++
				}
			}
			for _, hh := range hs {
				hh.Tick()
			}
		}
		keepMin(&best, ns(time.Since(t)))
	}
	lp.set("mem.banked_l2_ns_per_access", best/n, "ns")

	h = mem.New(cfg)
	best = math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		t := time.Now()
		for i := 0; i < 5*n; i++ {
			h.Tick()
		}
		keepMin(&best, ns(time.Since(t)))
	}
	lp.set("mem.tick_idle_ns", best/(5*n), "ns")
}

// gpu times four-SM chip runs: chip_4sm's op list, built and run
// directly so BuildChip and GPU.Run are timed apart.
func (lp *layerProbe) gpu() {
	const sms = 4
	spec, _ := specByName("chip_4sm")
	runBest, buildBest := math.Inf(1), math.Inf(1)
	var chipCycles, smCycles, skipped uint64
	runs := 0
	for rep := 0; rep < 2; rep++ {
		var run, build time.Duration
		chipCycles, smCycles, skipped, runs = 0, 0, 0, 0
		for _, o := range canonicalOps(spec, lp.sc) {
			t := time.Now()
			g, _, err := experiments.BuildChip(o.Bench, o.Scheme, sms, experiments.SimSetup{
				Capacity: o.Capacity, Warps: lp.sc.Warps, MaxCycles: maxCycles,
			})
			build += time.Since(t)
			if err != nil {
				lp.fail("BuildChip %s: %v", o, err)
				continue
			}
			t = time.Now()
			res, err := g.Run()
			run += time.Since(t)
			if err != nil {
				lp.fail("GPU.Run %s: %v", o, err)
				continue
			}
			runs++
			chipCycles += res.Cycles
			skipped += res.FFSkippedCycles
			for _, st := range res.PerSM {
				smCycles += st.Cycles
			}
		}
		keepMin(&runBest, ns(run))
		keepMin(&buildBest, ns(build))
	}
	lp.set("gpu.ns_per_chip_cycle.sms4", runBest/float64(chipCycles), "ns")
	lp.set("gpu.ns_per_sm_cycle.sms4", runBest/float64(chipCycles)/sms, "ns")
	lp.set("gpu.simcycles_per_s.sms4", float64(chipCycles)/(runBest/1e9), "1/s")
	lp.set("gpu.ff_jump_share", float64(skipped)/float64(smCycles), "ratio")
	lp.set("gpu.build_us_per_run", buildBest/float64(runs)/1e3, "us")
}

// experiments times the suite layer around the simulations and reads the
// three fidelity ratios the paper's figures report.
func (lp *layerProbe) experiments() {
	spec, _ := specByName("suite_1sm")
	w := spec.build(spec, shuffledOps(spec, lp.sc, lp.seed), lp.sc, lp.scratch, false)
	pass, assemble := math.Inf(1), math.Inf(1)
	var cycles uint64
	for rep := 0; rep < 2; rep++ {
		p := w.pass(nil)
		for _, e := range p.errs {
			lp.fail("suite pass: %s", e)
		}
		keepMin(&pass, p.seconds)
		keepMin(&assemble, p.segMS[len(p.segMS)-1]) // table assembly is the last segment
		cycles = p.simCycles
	}
	lp.set("experiments.simcycles_per_s", float64(cycles)/pass, "1/s")
	lp.set("experiments.assemble_ms", assemble, "ms")

	// The same work planned across two workers on two threads. The one
	// place the harness leaves GOMAXPROCS=1; informational.
	opts := experiments.Options{Warps: lp.sc.Warps, Benchmarks: lp.sc.Benches, MaxCycles: maxCycles, Parallelism: 2}
	s := experiments.NewSuite(opts)
	runtime.GOMAXPROCS(2)
	t := time.Now()
	_, err := experiments.All(s)
	par2 := time.Since(t).Seconds()
	runtime.GOMAXPROCS(1)
	if err != nil {
		lp.fail("experiments.All at parallelism 2: %v", err)
		return
	}
	lp.set("experiments.par2_speedup", pass/par2, "x")

	canon := canonicalOps(spec, lp.sc)
	const hitRounds = 200
	t = time.Now()
	for i := 0; i < hitRounds; i++ {
		for _, o := range canon {
			if _, err := s.Get(o.Bench, o.Scheme, o.Capacity); err != nil {
				lp.fail("warm Get %s: %v", o, err)
				return
			}
		}
	}
	lp.set("experiments.cache_hit_ns", ns(time.Since(t))/float64(hitRounds*len(canon)), "ns")

	// Fidelity against the paper's figures (the only reference there is:
	// no hardware measurement backs this model). Geometric means over
	// the benchmarks of RegLess@512 against the baseline.
	var runtimeX, rfX, gpuX []float64
	var computes int
	var computeTime time.Duration
	for _, bench := range lp.sc.Benches {
		base, err1 := s.Get(bench, experiments.SchemeBaseline, 0)
		rl, err2 := s.Get(bench, experiments.SchemeRegLess, experiments.DefaultCapacity)
		if err1 != nil || err2 != nil {
			lp.fail("fidelity runs for %s: %v %v", bench, err1, err2)
			return
		}
		ba, ra := base.Activity(), rl.Activity()
		bs, rs := base.EnergyScheme(), rl.EnergyScheme()
		var eb, er energy.Breakdown
		t = time.Now()
		for i := 0; i < 1000; i++ {
			eb = energy.Compute(s.Params, bs, ba)
			er = energy.Compute(s.Params, rs, ra)
		}
		computeTime += time.Since(t)
		computes += 2000
		runtimeX = append(runtimeX, float64(rl.Stats.Cycles)/float64(base.Stats.Cycles))
		rfX = append(rfX, er.RFTotal/eb.RFTotal)
		gpuX = append(gpuX, er.Total/eb.Total)
	}
	lp.set("energy.compute_ns", ns(computeTime)/float64(computes), "ns")
	lp.set("experiments.regless_runtime_x", experiments.GeoMean(runtimeX), "x")
	lp.set("energy.regless_rf_energy_x", experiments.GeoMean(rfX), "x")
	lp.set("energy.regless_gpu_energy_x", experiments.GeoMean(gpuX), "x")
}

// events times the cycle-level event recorder against plain runs, and
// the analyzer over what it recorded.
func (lp *layerProbe) events() {
	benches := lp.sc.Benches
	if len(benches) > 5 {
		benches = experiments.Quick().Benchmarks
	}
	su := experiments.SimSetup{Capacity: experiments.DefaultCapacity, Warps: lp.sc.Warps, MaxCycles: maxCycles}
	plain, inst, analyze := math.Inf(1), math.Inf(1), math.Inf(1)
	for rep := 0; rep < 2; rep++ {
		var tp, ti, ta time.Duration
		for _, bench := range benches {
			t := time.Now()
			smv, _, err := experiments.BuildSM(bench, experiments.SchemeRegLess, su)
			if err == nil {
				_, err = smv.Run()
			}
			tp += time.Since(t)
			if err != nil {
				lp.fail("plain %s: %v", bench, err)
				continue
			}
			t = time.Now()
			in, err := experiments.SimulateInstrumented(context.Background(), bench, experiments.SchemeRegLess, 1, su, events.MaskAll)
			ti += time.Since(t)
			if err != nil {
				lp.fail("instrumented %s: %v", bench, err)
				continue
			}
			t = time.Now()
			rep := events.Analyze(in.Recs[0], in.Cycles[0], in.Schedulers[0])
			ta += time.Since(t)
			if !rep.TilesExactly() {
				lp.fail("events.Analyze %s: stall breakdown does not tile the issue slots", bench)
			}
		}
		keepMin(&plain, ns(tp))
		keepMin(&inst, ns(ti))
		keepMin(&analyze, ns(ta))
	}
	lp.set("events.instrumented_slowdown_x", inst/plain, "x")
	lp.set("events.analyze_ms", analyze/1e6, "ms")
}

// service probes store and serve: the store's operations alone, the
// handler without a socket, the socket without the handler's work, and
// the spans each cold run published.
func (lp *layerProbe) service() {
	spec, _ := specByName("serve_cold")
	w := newServeWorkload(spec, shuffledOps(spec, lp.sc, lp.seed), lp.sc, lp.scratch, false).(*serveWorkload)
	if err := w.setup(); err != nil {
		lp.fail("service probe fixture: %v", err)
		return
	}
	dir := filepath.Join(lp.scratch, "layers-store")

	// One cold lifetime over an empty store; its runs' published traces
	// give the server-side phases of every op.
	out := passOut{results: map[op][32]byte{}}
	w.reset()
	ls := w.coldLifetime(nil, dir, &out)
	w.check(&out, false)
	for _, e := range out.errs {
		lp.fail("service probe cold pass: %s", e)
	}
	if ls == nil {
		return
	}
	spans := map[string][]float64{}
	var overheadMS, respBytes []float64
	handler := ls.srv.Handler()
	latency := out.firstTouchMS()
	for i, rp := range w.replies {
		var st serve.RunStatus
		if rp.err != nil || json.Unmarshal(rp.body, &st) != nil {
			continue
		}
		respBytes = append(respBytes, float64(len(rp.body)))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/runs/"+st.ID+"/trace", nil))
		var doc struct {
			Root *obs.Node `json:"root"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &doc) != nil || doc.Root == nil {
			lp.fail("trace of run %s: HTTP %d", st.ID, rec.Code)
			continue
		}
		for _, c := range doc.Root.Children {
			spans[c.Name] = append(spans[c.Name], float64(c.DurUS))
			if c.Name == "simulate" {
				// The simulate span is the server's Suite.GetCtx of the
				// key; what the client waited beyond it is the service.
				overheadMS = append(overheadMS, latency[i]-float64(c.DurUS)/1e3)
			}
		}
	}
	lp.set("serve.span_queue_us_p50", median(spans["queue"]), "us")
	lp.set("serve.span_store_get_us_p50", median(spans["store-get"]), "us")
	lp.set("serve.span_simulate_ms_p50", median(spans["simulate"])/1e3, "ms")
	lp.set("serve.span_assemble_us_p50", median(spans["assemble"]), "us")
	lp.set("serve.span_store_put_us_p50", median(spans["store-put"]), "us")
	lp.set("serve.overhead_ms_per_op", mean(overheadMS), "ms")
	lp.set("serve.resp_bytes_mean", mean(respBytes), "B")

	lp.store(w)
	lp.handler(w, dir)
	lp.loopback(w, dir)
}

// store times the content-addressed store alone, with the payloads the
// service would store.
func (lp *layerProbe) store(w *serveWorkload) {
	dir := filepath.Join(lp.scratch, "layers-rawstore")
	st, err := store.Open(dir)
	if err != nil {
		lp.fail("store.Open: %v", err)
		return
	}
	keys := make([]store.Key, len(w.canon))
	for i, o := range w.canon {
		sha, err := serve.KernelHash(o.Bench)
		if err != nil {
			lp.fail("kernel hash %s: %v", o.Bench, err)
			return
		}
		keys[i] = store.Key{
			KernelSHA: sha, Bench: o.Bench, Scheme: string(o.Scheme), Capacity: o.Capacity,
			Warps: lp.sc.Warps, SMs: 1, MaxCycles: maxCycles,
		}
	}
	var put, hit, miss []float64
	for i, o := range w.canon {
		t := time.Now()
		err := st.Put(keys[i], w.expected[o])
		put = append(put, ns(time.Since(t))/1e3)
		if err != nil {
			lp.fail("store.Put %s: %v", o, err)
		}
	}
	for rep := 0; rep < 5; rep++ {
		for i, o := range w.canon {
			t := time.Now()
			b, ok, err := st.Get(keys[i])
			hit = append(hit, ns(time.Since(t))/1e3)
			if err != nil || !ok || !bytes.Equal(b, w.expected[o]) {
				lp.fail("store.Get %s: ok=%v err=%v or other bytes than were put", o, ok, err)
			}
			absent := keys[i]
			absent.Warps++
			t = time.Now()
			_, ok, err = st.Get(absent)
			miss = append(miss, ns(time.Since(t))/1e3)
			if err != nil || ok {
				lp.fail("store.Get of an absent key: ok=%v err=%v", ok, err)
			}
		}
	}
	lp.set("store.put_us_p50", median(put), "us")
	lp.set("store.get_hit_us_p50", median(hit), "us")
	lp.set("store.get_miss_us_p50", median(miss), "us")

	open, verify := math.Inf(1), math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		st2, err := store.Open(dir)
		keepMin(&open, ns(time.Since(t)))
		if err != nil {
			lp.fail("store.Open (populated): %v", err)
			return
		}
		t = time.Now()
		n, err := st2.Verify()
		keepMin(&verify, ns(time.Since(t)))
		if err != nil || n != len(keys) {
			lp.fail("store.Verify: %d intact of %d, err %v", n, len(keys), err)
		}
	}
	lp.set("store.open_ms", open/1e6, "ms")
	lp.set("store.verify_ms", verify/1e6, "ms")
	lp.set("store.bytes_total", float64(st.Stats().Bytes), "B")
	lp.set("store.entry_bytes_mean", float64(st.Stats().Bytes)/float64(len(keys)), "B")
}

// handler times Handler().ServeHTTP with no socket over the populated
// store: per lifetime every key once (disk hit) and three times more
// (job-map hit).
func (lp *layerProbe) handler(w *serveWorkload, dir string) {
	var newMS, disk, memHit []float64
	for life := 0; life < 3; life++ {
		t := time.Now()
		srv, err := serve.New(serve.Config{
			Opts:     experiments.Options{Warps: lp.sc.Warps, MaxCycles: maxCycles, Parallelism: 1},
			StoreDir: dir,
		})
		newMS = append(newMS, ns(time.Since(t))/1e6)
		if err != nil {
			lp.fail("serve.New: %v", err)
			return
		}
		h := srv.Handler()
		for round := 0; round < 4; round++ {
			for _, o := range w.ops {
				req := httptest.NewRequest("POST", "/v1/runs?wait=1", bytes.NewReader(w.bodies[o]))
				rec := httptest.NewRecorder()
				t := time.Now()
				h.ServeHTTP(rec, req)
				us := ns(time.Since(t)) / 1e3
				if round == 0 {
					disk = append(disk, us)
				} else {
					memHit = append(memHit, us)
				}
				if rec.Code != http.StatusOK {
					lp.fail("handler %s: HTTP %d", o, rec.Code)
				}
			}
		}
		if err := srv.Close(); err != nil {
			lp.fail("server close: %v", err)
		}
	}
	lp.set("serve.new_ms", median(newMS), "ms")
	lp.set("serve.handler_diskhit_us_p50", median(disk), "us")
	lp.set("serve.handler_memhit_us_p50", median(memHit), "us")
}

// loopback times what only the socket path shows: the transport floor,
// the disk-hit tail, and a whole sweep rendered as a table.
func (lp *layerProbe) loopback(w *serveWorkload, dir string) {
	get := func(ls *liveServer, path string) (int, error) {
		resp, err := ls.client.Get(ls.base + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}

	// /healthz over an empty store does next to nothing in the handler.
	var floor []float64
	lp.withServer(filepath.Join(lp.scratch, "layers-empty"), func(ls *liveServer) {
		for i := 0; i < 300; i++ {
			t := time.Now()
			code, err := get(ls, "/healthz")
			floor = append(floor, ns(time.Since(t))/1e3)
			if err != nil || code != http.StatusOK {
				lp.fail("/healthz: HTTP %d, err %v", code, err)
				break
			}
		}
	})
	lp.set("serve.http_loopback_us_p50", median(floor), "us")

	// Ten warm restarts: 1050 disk hits, so ten samples lie beyond p99.
	var disk []float64
	for life := 0; life < 10; life++ {
		lp.withServer(dir, func(ls *liveServer) {
			out := passOut{results: map[op][32]byte{}}
			w.reset()
			w.touchAll(nil, ls, &out, true)
			w.check(&out, true)
			for _, e := range out.errs {
				lp.fail("loopback disk hit: %s", e)
			}
			for _, ms := range out.firstTouchMS() {
				disk = append(disk, ms*1e3)
			}
		})
	}
	lp.set("serve.diskhit_p99_us", quantile(disk, 0.99), "us")

	// A sweep over the whole grid on a fresh lifetime of the warm store.
	var schemes []string
	for _, sc := range w.spec.schemes {
		schemes = append(schemes, string(sc.scheme))
	}
	body, err := json.Marshal(serve.SweepRequest{Benchmarks: lp.sc.Benches, Schemes: schemes})
	if err != nil {
		lp.fail("sweep request: %v", err)
		return
	}
	var sweep []float64
	for life := 0; life < 3; life++ {
		lp.withServer(dir, func(ls *liveServer) {
			t := time.Now()
			var st serve.SweepStatus
			resp, err := ls.client.Post(ls.base+"/v1/sweeps?wait=1", "application/json", bytes.NewReader(body))
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
			}
			code := 0
			if err == nil {
				code, err = get(ls, "/v1/sweeps/"+st.ID+"/table")
			}
			sweep = append(sweep, ns(time.Since(t))/1e6)
			if err != nil || code != http.StatusOK || st.Status != "done" || st.Total != len(w.canon) {
				lp.fail("sweep: status %q, %d runs, table HTTP %d, err %v", st.Status, st.Total, code, err)
			}
		})
	}
	lp.set("serve.sweep_table_ms", median(sweep), "ms")
}

// withServer runs fn against one server lifetime over dir.
func (lp *layerProbe) withServer(dir string, fn func(*liveServer)) {
	ls, err := startServer(dir, lp.sc)
	if err != nil {
		lp.fail("serve.New: %v", err)
		return
	}
	fn(ls)
	if err := ls.stop(); err != nil {
		lp.fail("server close: %v", err)
	}
}
