// Command benchmark is the repository's performance ruler: four
// workloads, six end-to-end metrics on each, and a traced run that
// attributes host time to layers. README.md in this directory is the
// manual; BENCHMARK.json at the repository root is the contract.
//
//	go run -C benchmark . -workload suite_1sm -seed 1            end-to-end metrics
//	go run -C benchmark . -workload suite_1sm -seed 1 -trace 1   per-layer metrics + traces
//	go run -C benchmark . -aa                                    two sets, disagreement vs bounds
package main

import (
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// processStart is read before main runs, so a cold-start probe's time
// covers everything the process does after the Go runtime is up.
var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds: the wall clock one run
// spends on timed passes and cold-start probes. Slow phases of the host
// last ten seconds and more, and a shorter run can sit inside one.
const defaultSeconds = 25

const (
	minPasses = 7 // timed passes per run, whatever the clock says
	numProbes = 5 // cold-start probes per run
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: suite_1sm, chip_4sm, serve_cold, serve_warm")
	seed := flag.Int64("seed", 1, "shuffles op order and seeds the synthetic address streams")
	seconds := flag.Float64("seconds", defaultSeconds, "wall clock to span with timed passes and probes")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	aa := flag.Bool("aa", false, "run every workload twice and compare the two sets against the bounds")
	probe := flag.String("probe", "", "internal: run one cold-start pass using the parent's scratch directory")
	flag.Parse()

	// One thread: passes repeat within 2% here against 6% at two, and
	// nothing the workloads time runs in parallel.
	runtime.GOMAXPROCS(1)

	if *aa {
		os.Exit(runAA(*seed, *seconds))
	}
	spec, ok := specByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *probe != "" {
		os.Exit(runProbe(spec, *seed, *probe))
	}
	rep, err := runWorkload(spec, *seed, *seconds, *trace == 1, fullScale())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

// outDir is benchmark/out whether the harness was started from its own
// directory (go run -C benchmark) or from the repository root.
func outDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// probeReport is what a cold-start child prints: the time from process
// start to the first op (runtime up, flags parsed, workload objects
// built), the pass's segments, and a digest of what the pass delivered
// for the parent to compare with its own.
type probeReport struct {
	StartupMS float64   `json:"startup_ms"`
	SegMS     []float64 `json:"seg_ms"`
	// Seconds is process start to delivered results, as one reading.
	Seconds   float64  `json:"seconds"`
	Ops       int      `json:"ops"`
	Failed    int      `json:"failed"`
	SimCycles uint64   `json:"sim_cycles"`
	Digest    string   `json:"digest"`
	Errs      []string `json:"errs,omitempty"`
	// PeakRSSMB is the child's resident-set high-water mark when it had
	// delivered its results.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// runProbe is the child side of a cold-start probe: build the workload's
// objects from nothing, complete one pass, report.
func runProbe(spec workloadSpec, seed int64, scratch string) int {
	sc := fullScale()
	w := spec.build(spec, shuffledOps(spec, sc, seed), sc, scratch, true)
	if err := w.setup(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: probe:", err)
		return 1
	}
	startup := time.Since(processStart)
	out := w.pass(nil)
	total := time.Since(processStart)
	d := out.digest(canonicalOps(spec, sc))
	rep := probeReport{
		StartupMS: float64(startup) / 1e6, SegMS: out.segMS, Seconds: total.Seconds(),
		Ops: out.ops, Failed: out.failed, SimCycles: out.simCycles,
		Digest: hex.EncodeToString(d[:]), Errs: out.errs, PeakRSSMB: peakRSSMB(),
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

// coldStart runs one probe as a fresh child process and waits for it.
func coldStart(spec workloadSpec, seed int64, scratch string) (probeReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return probeReport{}, err
	}
	cmd := exec.Command(exe, "-probe", scratch, "-workload", spec.name, "-seed", fmt.Sprint(seed))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return probeReport{}, fmt.Errorf("cold-start probe: %w", err)
	}
	var rep probeReport
	if err := json.Unmarshal(stdout, &rep); err != nil {
		return probeReport{}, fmt.Errorf("cold-start probe output: %w", err)
	}
	return rep, nil
}

// samples is what the passes and probes of one run measured.
type samples struct {
	passes   []passOut
	probes   []probeReport
	ref      passOut // the untimed warm-up pass every other pass must equal
	fixtureS float64
	wallSpan float64
	// rssMB holds the resident-set high-water mark of each timed pass.
	rssMB  []float64
	ops    int
	failed int
	errs   []string
}

func (s *samples) note(errs []string) {
	for _, e := range errs {
		if len(s.errs) < 10 {
			s.errs = append(s.errs, e)
		}
	}
}

// measure is the protocol: fixture, one untimed warm-up pass, then timed
// passes with cold-start probes spaced evenly between them until seconds
// of wall clock are spanned, at least minN passes and k probes. probe
// runs one cold start (coldStart; unused when k is 0).
func measure(w workload, canon []op, seconds float64, minN, k int, probe func() (probeReport, error)) (*samples, error) {
	s := &samples{}
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("fixture: %w", err)
	}
	s.fixtureS = time.Since(t0).Seconds()

	s.ref = w.pass(nil)
	s.ops, s.failed = s.ref.ops, s.ref.failed
	s.note(s.ref.errs)
	refDigest := s.ref.digest(canon)

	start := time.Now()
	for {
		p := w.pass(nil)
		p.compare(&s.ref, canon)
		s.ops += p.ops
		s.failed += p.failed
		s.note(p.errs)
		s.passes = append(s.passes, p)

		elapsed := time.Since(start).Seconds()
		// Probe j of k is due once j/(k+1) of the span has passed.
		if len(s.probes) < k && elapsed >= seconds*float64(len(s.probes)+1)/float64(k+1) {
			pr, err := probe()
			if err != nil {
				return nil, err
			}
			s.ops += pr.Ops
			s.failed += pr.Failed
			s.note(pr.Errs)
			if pr.Digest != hex.EncodeToString(refDigest[:]) || pr.SimCycles != s.ref.simCycles {
				s.failed++
				s.note([]string{"cold-start probe delivered other results than the warm-up pass"})
			}
			s.probes = append(s.probes, pr)
			elapsed = time.Since(start).Seconds()
		}
		if elapsed >= seconds && len(s.passes) >= minN && len(s.probes) >= k {
			s.wallSpan = elapsed
			break
		}
	}
	if errs := w.finish(); len(errs) > 0 {
		s.failed += len(errs)
		s.note(errs)
	}
	return s, nil
}

// passFloor is the run's steady-state pass with interference removed:
// per segment, the fastest of the timed passes.
func (s *samples) passFloor() []float64 {
	var rows [][]float64
	for _, p := range s.passes {
		rows = append(rows, p.segMS)
	}
	return segmentFloor(len(s.ref.segMS), rows)
}

// probeFloor is the same over the cold-start probes, the time to the
// first op counting as a segment.
func (s *samples) probeFloor() []float64 {
	var rows [][]float64
	for _, pr := range s.probes {
		rows = append(rows, append([]float64{pr.StartupMS}, pr.SegMS...))
	}
	return segmentFloor(1+len(s.ref.segMS), rows)
}

// endToEnd computes the six end-to-end metrics from a run's samples.
func (s *samples) endToEnd() map[string]metric {
	floor := s.passFloor()
	firstTouch := make([]float64, len(s.ref.firstTouch))
	for i, idx := range s.ref.firstTouch {
		firstTouch[i] = floor[idx]
	}
	var alloc, rss []float64
	for _, p := range s.passes {
		alloc = append(alloc, float64(p.allocBytes)/1e6)
	}
	for _, pr := range s.probes {
		rss = append(rss, pr.PeakRSSMB)
	}
	return map[string]metric{
		"setup_s":     {sum(s.probeFloor()) / 1e3, "s"},
		"pass_s":      {sum(floor) / 1e3, "s"},
		"op_p50_ms":   {median(firstTouch), "ms"},
		"peak_rss_mb": {median(rss), "MB"},
		"alloc_mb":    {median(alloc), "MB"},
		"sim_cycles":  {float64(s.ref.simCycles), "cycles"},
	}
}

// harnessMetrics are the bench.* per-layer metrics of a traced run.
func (s *samples) harnessMetrics(tracedS float64) map[string]metric {
	var passS, cpu, mallocs, gcs []float64
	for _, p := range s.passes {
		passS = append(passS, p.seconds)
		cpu = append(cpu, p.cpuSeconds)
		mallocs = append(mallocs, float64(p.mallocs))
		gcs = append(gcs, float64(p.gcCycles))
	}
	return map[string]metric{
		"bench.pass_fastest_s":     {fastest(passS), "s"},
		"bench.pass_median_s":      {median(passS), "s"},
		"bench.pass_iqr_s":         {iqr(passS), "s"},
		"bench.cold_excess_s":      {(sum(s.probeFloor()) - sum(s.passFloor())) / 1e3, "s"},
		"bench.cpu_s_per_pass":     {median(cpu), "s"},
		"bench.mallocs_per_pass":   {median(mallocs), "count"},
		"bench.gc_cycles_per_pass": {median(gcs), "count"},
		"bench.fixture_s":          {s.fixtureS, "s"},
		"bench.trace_overhead_x":   {tracedS / fastest(passS), "x"},
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's full record: the driver's result line, and the
// environment and samples a reader needs to judge it.
type report struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Traced       bool              `json:"traced"`
	Env          environment       `json:"env"`
	N            int               `json:"n_passes"`
	K            int               `json:"k_probes"`
	WallSpanS    float64           `json:"wall_span_s"`
	Noisy        bool              `json:"noisy"`
	OpsAttempted int               `json:"ops_attempted"`
	OpsFailed    int               `json:"ops_failed"`
	Errors       []string          `json:"errors,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	PassSeconds  []float64         `json:"pass_seconds"`
	ProbeSeconds []float64         `json:"probe_seconds"`
	ProbeRSSMB   []float64         `json:"probe_rss_mb"`
	FirstTouchN  int               `json:"first_touch_samples_per_pass"`
	Spans        []spanStat        `json:"spans,omitempty"`
}

// runWorkload performs one run of one workload: end-to-end metrics with
// tracing off, or (traced) a shorter run, one traced pass, and the
// per-layer probes.
func runWorkload(spec workloadSpec, seed int64, seconds float64, traced bool, sc scale) (*report, error) {
	env := stampEnvironment()
	out := outDir()
	scratch := filepath.Join(out, "tmp", fmt.Sprintf("%s-%d", spec.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(scratch)
		os.Remove(filepath.Join(out, "tmp")) // succeeds once no other run is using it
	}()

	canon := canonicalOps(spec, sc)
	w := spec.build(spec, shuffledOps(spec, sc, seed), sc, scratch, false)
	minN, k := minPasses, numProbes
	if traced {
		// The layer probes take the rest of a traced run's time.
		seconds, minN, k = seconds/4, 3, 1
	}
	s, err := measure(w, canon, seconds, minN, k, func() (probeReport, error) {
		return coldStart(spec, seed, scratch)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	rep := &report{
		Workload: spec.name, Seed: seed, Traced: traced, Env: env,
		N: len(s.passes), K: len(s.probes), WallSpanS: s.wallSpan,
		FirstTouchN: len(s.ref.firstTouch),
	}
	for _, p := range s.passes {
		rep.PassSeconds = append(rep.PassSeconds, p.seconds)
	}
	for _, pr := range s.probes {
		rep.ProbeSeconds = append(rep.ProbeSeconds, pr.Seconds)
		rep.ProbeRSSMB = append(rep.ProbeRSSMB, pr.PeakRSSMB)
	}
	// A slow phase of the host stretches the typical pass but not the
	// fastest one; a slow program stretches both.
	rep.Noisy = median(rep.PassSeconds) > 1.25*fastest(rep.PassSeconds)

	if !traced {
		rep.Metrics = s.endToEnd()
	} else {
		tr := obs.NewTrace(spec.name + " pass")
		p := w.pass(tr)
		tr.Close()
		p.compare(&s.ref, canon)
		s.ops += p.ops
		s.failed += p.failed
		s.note(p.errs)
		if err := writeTrace(out, spec.name, tr); err != nil {
			return nil, err
		}
		rep.Spans = spanStats(tr)
		rep.Metrics = s.harnessMetrics(p.seconds)
		layers, errs := layerMetrics(seed, sc, scratch)
		if len(errs) > 0 {
			s.failed += len(errs)
			s.note(errs)
		}
		for name, m := range layers {
			rep.Metrics[name] = m
		}
	}
	rep.OpsAttempted, rep.OpsFailed, rep.Errors = s.ops, s.failed, s.errs

	name := spec.name + ".run.json"
	if traced {
		name = "layers.json"
	}
	if err := writeJSON(filepath.Join(out, name), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes every metric by name with its unit, the environment, and
// as the last line the driver's result object.
func (r *report) print(f *os.File) {
	e := r.Env
	fmt.Fprintf(f, "workload %s seed %d traced %v\n", r.Workload, r.Seed, r.Traced)
	fmt.Fprintf(f, "env nproc=%d gomaxprocs=%d go=%s git=%s loadavg=%s\n", e.NProc, e.GOMAXPROCS, e.GoVersion, e.GitSHA, e.LoadAvg)
	fmt.Fprintf(f, "run N=%d passes K=%d probes wall_span_s=%.1f first_touch_samples_per_pass=%d noisy=%v\n",
		r.N, r.K, r.WallSpanS, r.FirstTouchN, r.Noisy)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "%-34s %16.6f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "%-34s %16d ops\n", "ops_attempted", r.OpsAttempted)
	fmt.Fprintf(f, "%-34s %16d ops\n", "ops_failed", r.OpsFailed)
	for _, e := range r.Errors {
		fmt.Fprintf(f, "error: %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.OpsFailed == 0, r.OpsAttempted, r.OpsFailed, r.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Fprintf(f, "%s\n", line)
}
