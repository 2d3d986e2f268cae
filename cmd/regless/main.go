// Command regless runs the RegLess reproduction's experiments: every
// table and figure of the paper's evaluation, a single benchmark under a
// chosen register scheme, or the whole suite.
//
// Usage:
//
//	regless -experiment all                 # every table and figure
//	regless -experiment fig16               # one experiment
//	regless -bench hotspot -scheme regless  # one run with stats
//	regless -experiment all -markdown       # markdown output
//	regless -warps 32                       # scale the SM occupancy
//	regless -metrics-out - -experiment fig17  # stream per-window metrics
//	regless -cpuprofile cpu.pb.gz -experiment all  # profile the run
//	regless serve -store /var/cache/regless   # sweep service (DESIGN.md §14)
//
// With -metrics-out -, the JSONL stream takes stdout and tables move to
// stderr, so piping into a JSON consumer always sees a valid stream.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/compress"
	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sanitizer"
	"repro/internal/trace"
)

func main() {
	// `regless serve` owns its own flag set (serve.go); everything else
	// is the single-invocation CLI below.
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	var (
		experiment = flag.String("experiment", "", "experiment id (table1, fig2..fig19, table2, ablation, gpuscale, coresident, oversub, or 'all')")
		bench      = flag.String("bench", "", "run one benchmark (with -scheme)")
		app        = flag.String("app", "", "run a multi-kernel application (backprop_app, bfs_app, srad_app)")
		scheme     = flag.String("scheme", "regless", fmt.Sprintf("scheme for -bench and -app, one of %v", experiments.Schemes()))
		capacity   = flag.Int("capacity", experiments.DefaultCapacity, "RegLess OSU registers per SM")
		warps      = flag.Int("warps", 64, "warps per SM")
		sms        = flag.Int("sms", 1, "SMs on the chip (must be >= 1); >1 runs lockstep SMs sharing the banked L2 and DRAM")
		benchList  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 21)")
		markdown   = flag.Bool("markdown", false, "emit markdown tables")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations in the run planner (must be >= 1); output is identical at any setting")
		jsonOut    = flag.Bool("json", false, "with -experiment: emit a JSON benchmark snapshot (wall-clock, simcycles/s) instead of tables")
		list       = flag.Bool("list", false, "list benchmarks and exit")
		timeline   = flag.Bool("timeline", false, "with -bench: render a warp-state timeline")
		bucket     = flag.Int("bucket", 100, "timeline bucket size in cycles (must be >= 1)")
		csvOut     = flag.Bool("csv", false, "with -timeline: emit CSV instead of ASCII")
		traceOut   = flag.String("trace", "", "with -bench: write a Chrome trace-event JSON file (open in Perfetto)")
		traceRep   = flag.Bool("trace-report", false, "with -bench: print a stall-attribution and preload-latency report")
		gitSHA     = flag.String("snapshot-sha", "", "git revision to stamp into the -json snapshot (scripts/bench.sh)")
		metricsOut = flag.String("metrics-out", "", "stream per-window metrics as JSONL to this file ('-': stdout, moving tables to stderr)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		maxCycles  = flag.Uint64("max-cycles", 60_000_000, "simulation cycle limit per kernel (must be >= 1)")
		watchdog   = flag.Uint64("watchdog", 1_000_000, "forward-progress watchdog threshold in cycles (0 disables)")
		faultSpec  = flag.String("faults", "", "fault-injection spec, e.g. 'mem-drop@5000; seed=3' (DESIGN.md §11)")
		sanitize   = flag.Bool("sanitize", false, "run the cycle-level invariant sanitizer every cycle")
		noFF       = flag.Bool("no-fastforward", false, "step every cycle instead of skipping provably idle spans (differential validation; results are identical)")
		diagOut    = flag.String("diag-out", "", "write the diagnostic bundle as JSON to this file on abnormal termination")
	)
	flag.Parse()
	diagOutPath = *diagOut

	if *list {
		for _, b := range kernels.Suite() {
			fmt.Printf("%-16s %s\n", b.Name, b.Character)
		}
		return
	}
	if err := validateFlags(*parallel, *bucket, *traceOut, *traceRep, *bench, *maxCycles, *faultSpec, *sms, *timeline, *csvOut, *app, *scheme); err != nil {
		fmt.Fprintln(os.Stderr, "regless:", err)
		flag.Usage()
		os.Exit(2)
	}

	opts := experiments.Default()
	opts.Warps = *warps
	opts.SMs = *sms
	opts.Parallelism = *parallel
	opts.MaxCycles = *maxCycles
	opts.Watchdog = *watchdog
	opts.Sanitize = *sanitize
	opts.NoFastForward = *noFF
	if *faultSpec != "" {
		plan, err := faults.Parse(*faultSpec)
		check(err) // validateFlags already vetted the spec
		opts.Faults = plan
	}
	if *benchList != "" {
		opts.Benchmarks = strings.Split(*benchList, ",")
	}

	// Tables normally print to stdout; a metrics stream sent there takes
	// it over and tables move to stderr.
	var out io.Writer = os.Stdout
	switch *metricsOut {
	case "":
	case "-":
		opts.MetricsWriter = os.Stdout
		out = os.Stderr
	default:
		f, err := os.Create(*metricsOut)
		check(err)
		defer f.Close()
		opts.MetricsWriter = f
	}
	suite := experiments.NewSuite(opts)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		check(suite.FlushMetrics())
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			f.Close()
		}
	}()

	sch := experiments.Scheme(*scheme) // validateFlags vetted the name
	switch {
	case *app != "":
		runApp(*app, sch, opts.Setup(*capacity))
	case *bench != "" && (*timeline || *traceOut != "" || *traceRep):
		runTrace(traceOpts{
			bench: *bench, scheme: sch,
			bucket: *bucket, csv: *csvOut, timeline: *timeline,
			traceFile: *traceOut, report: *traceRep, sms: *sms,
			setup: opts.Setup(*capacity),
		})
	case *bench != "":
		runOne(suite, out, *bench, sch, *capacity)
	case *experiment == "all":
		start := time.Now()
		tables, err := experiments.All(suite)
		check(err)
		if *jsonOut {
			emitSnapshot(suite, out, "all", *gitSHA, len(tables), time.Since(start))
			return
		}
		for _, tb := range tables {
			fmt.Fprintln(out, render(tb, *markdown))
		}
	case *experiment != "":
		fn, ok := experiments.ByID(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
			os.Exit(2)
		}
		start := time.Now()
		tb, err := fn(suite)
		check(err)
		if *jsonOut {
			emitSnapshot(suite, out, *experiment, *gitSHA, 1, time.Since(start))
			return
		}
		fmt.Fprintln(out, render(tb, *markdown))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// validateFlags rejects flag values that would otherwise be silently
// misread: a non-positive planner width used to mean "GOMAXPROCS" but now
// the default carries that value, so anything below 1 is a mistake; the
// timeline divides by the bucket.
func validateFlags(parallel int, bucket int, traceOut string, traceRep bool, bench string, maxCycles uint64, faultSpec string, sms int, timeline, csv bool, app, scheme string) error {
	if parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", parallel)
	}
	if sms < 1 {
		return fmt.Errorf("-sms must be at least 1, got %d", sms)
	}
	if sms > 1 && app != "" {
		return fmt.Errorf("-app runs are single-SM; use -sms 1")
	}
	if bucket < 1 {
		return fmt.Errorf("-bucket must be at least 1, got %d", bucket)
	}
	if (traceOut != "" || traceRep) && bench == "" {
		return fmt.Errorf("-trace and -trace-report require -bench")
	}
	if (timeline || csv) && bench == "" {
		return fmt.Errorf("-timeline and -csv require -bench")
	}
	if maxCycles < 1 {
		return fmt.Errorf("-max-cycles must be at least 1, got %d", maxCycles)
	}
	if faultSpec != "" {
		if _, err := faults.Parse(faultSpec); err != nil {
			return err
		}
	}
	_, err := experiments.ParseScheme(scheme)
	return err
}

// benchSnapshot is the -json performance record: scripts/bench.sh writes
// one per run so the suite's throughput is tracked across PRs.
type benchSnapshot struct {
	Experiment    string  `json:"experiment"`
	GitSHA        string  `json:"git_sha,omitempty"`
	GoVersion     string  `json:"go_version"`
	Parallelism   int     `json:"parallelism"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Warps         int     `json:"warps"`
	SMs           int     `json:"sms"`
	Benchmarks    int     `json:"benchmarks"`
	Tables        int     `json:"tables"`
	Runs          int     `json:"runs"`
	SimCycles     uint64  `json:"sim_cycles"`
	FFSkipped     uint64  `json:"ff_skipped_cycles"`
	FFJumps       uint64  `json:"ff_jumps"`
	WallSeconds   float64 `json:"wall_seconds"`
	SimCyclesPerS float64 `json:"simcycles_per_sec"`
	TablesPerS    float64 `json:"tables_per_sec"`
}

func emitSnapshot(s *experiments.Suite, out io.Writer, experiment, gitSHA string, tables int, wall time.Duration) {
	runs := s.CachedRuns()
	var cycles, ffSkipped, ffJumps uint64
	for _, r := range runs {
		cycles += r.Stats.Cycles
		ffSkipped += r.Stats.FFSkippedCycles
		ffJumps += r.Stats.FFJumps
	}
	snap := benchSnapshot{
		Experiment:    experiment,
		GitSHA:        gitSHA,
		GoVersion:     runtime.Version(),
		Parallelism:   s.Opts.Parallelism,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Warps:         s.Opts.Warps,
		SMs:           s.Opts.SMs,
		Benchmarks:    len(s.Opts.Benchmarks),
		Tables:        tables,
		Runs:          len(runs),
		SimCycles:     cycles,
		FFSkipped:     ffSkipped,
		FFJumps:       ffJumps,
		WallSeconds:   wall.Seconds(),
		SimCyclesPerS: float64(cycles) / wall.Seconds(),
		TablesPerS:    float64(tables) / wall.Seconds(),
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	check(enc.Encode(snap))
}

func render(tb *experiments.Table, md bool) string {
	if md {
		return tb.Markdown()
	}
	return tb.Render()
}

// runApp runs an application's kernels back to back on one SM: one
// functional memory (later kernels read earlier kernels' stores) and one
// memory hierarchy (they hit lines earlier kernels left in its caches).
func runApp(name string, scheme experiments.Scheme, su experiments.SimSetup) {
	application, err := kernels.AppByName(name)
	check(err)
	su.Hier = mem.New(mem.DefaultConfig())
	res, err := experiments.Launch(application.Kernels, scheme, 1, su.Warps, su)
	check(err)
	fmt.Printf("application    %s (%d kernels), scheme %s\n", application.Name, len(application.Kernels), scheme)
	for i, r := range res.PerLaunch {
		st := r.PerSM[0]
		fmt.Printf("  kernel %d (%-18s) %7d cycles, IPC %.2f, SIMT eff %.2f\n",
			i, application.Kernels[i].Name, st.Cycles, st.IPC(), st.SIMTEfficiency())
	}
	fmt.Printf("total          %d cycles; L2 hits across launches: %d\n", res.Cycles, su.Hier.Stats.L2Hits)
}

// traceOpts parameterizes the traced single-benchmark run shared by
// -timeline, -trace, and -trace-report (one simulation feeds all three).
type traceOpts struct {
	bench     string
	scheme    experiments.Scheme
	bucket    int
	csv       bool
	timeline  bool
	traceFile string
	report    bool
	sms       int
	setup     experiments.SimSetup
}

// runTrace is one instrumented run of any chip size, one recorder per
// SM, rendered as asked: a warp-state timeline and a stall report per SM,
// and one Perfetto export grouping each SM's tracks in its own process
// block. The timeline alone needs only its own event families; the
// Perfetto export and the stall report consume every family.
func runTrace(o traceOpts) {
	mask := events.MaskTimeline
	if o.traceFile != "" || o.report {
		mask = events.MaskAll
	}
	inst, err := experiments.SimulateInstrumented(context.Background(), o.bench, o.scheme, o.sms, o.setup, mask)
	check(err)
	// Labels name the SM only on a chip of several, as the Perfetto
	// writer does for its "SM%d " track prefix.
	chip := o.sms > 1
	who := func(i int) string {
		if !chip {
			return fmt.Sprintf("%s under %s", o.bench, o.scheme)
		}
		return fmt.Sprintf("SM %d (warps %d..%d)", i, inst.FirstWarp[i], inst.FirstWarp[i]+inst.Warps[i]-1)
	}
	if chip && (o.report || o.timeline && !o.csv) {
		fmt.Printf("%s under %s on %d SMs: %d chip cycles\n", o.bench, o.scheme, o.sms, inst.Run.Stats.Cycles)
	}
	if o.timeline {
		for i, rec := range inst.Recs {
			tl := trace.Fold(rec, inst.Cycles[i], inst.Warps[i], inst.FirstWarp[i], o.bucket)
			if o.csv {
				if chip {
					fmt.Printf("# %s\n", who(i))
				}
				fmt.Print(tl.CSV())
				continue
			}
			st := inst.Run.Chip.PerSM[i]
			fmt.Printf("%s:\n", who(i))
			fmt.Print(tl.Render(160))
			fmt.Printf("total: %d cycles, IPC %.2f\n", st.Cycles, st.IPC())
		}
	}
	if o.traceFile != "" {
		metas := make([]events.TraceMeta, len(inst.Recs))
		total := 0
		for i, rec := range inst.Recs {
			metas[i] = events.TraceMeta{
				Bench:        o.bench,
				Scheme:       string(o.scheme),
				Warps:        inst.Warps[i],
				Schedulers:   inst.Schedulers[i],
				Cycles:       inst.Cycles[i],
				SM:           i,
				WarpIDBase:   inst.FirstWarp[i],
				PatternNames: patternNames(),
			}
			total += rec.Len()
		}
		f, err := os.Create(o.traceFile)
		check(err)
		check(events.WriteChipPerfetto(f, inst.Recs, metas))
		check(f.Close())
		of := ""
		if chip {
			of = fmt.Sprintf(" (%d SMs)", len(inst.Recs))
		}
		fmt.Fprintf(os.Stderr, "regless: wrote %d events%s to %s (open in ui.perfetto.dev)\n", total, of, o.traceFile)
	}
	if o.report {
		for i, rec := range inst.Recs {
			fmt.Printf("%s: stall attribution over %d cycles\n", who(i), inst.Cycles[i])
			fmt.Print(events.Analyze(rec, inst.Cycles[i], inst.Schedulers[i]).Render(10))
		}
	}
}

// patternNames indexes compressor pattern IDs to names for trace args.
func patternNames() []string {
	names := make([]string, compress.NumPatterns)
	for p := compress.Pattern(0); p < compress.NumPatterns; p++ {
		names[p] = p.String()
	}
	return names
}

func runOne(suite *experiments.Suite, out io.Writer, bench string, scheme experiments.Scheme, capacity int) {
	r, err := suite.Get(bench, scheme, capacity)
	check(err)
	st := r.Stats
	fmt.Fprintf(out, "benchmark      %s\n", bench)
	fmt.Fprintf(out, "scheme         %s", scheme)
	if scheme.HasCapacity() {
		fmt.Fprintf(out, " (%d registers/SM)", capacity)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "cycles         %d\n", st.Cycles)
	fmt.Fprintf(out, "instructions   %d (IPC %.2f, SIMT efficiency %.2f)\n", st.DynInsns, st.IPC(), st.SIMTEfficiency())
	fmt.Fprintf(out, "reg accesses   %d reads, %d writes\n", r.Prov.StructReads, r.Prov.StructWrites)
	fmt.Fprintf(out, "working set    %.1f KB per 100-cycle window\n", st.WorkingSetKB)
	if p := r.Prov.Preloads(); p > 0 {
		fmt.Fprintf(out, "preloads       %d (OSU %.1f%%, compressor %.1f%%, L1 %.2f%%, L2/DRAM %.3f%%)\n",
			p,
			100*float64(r.Prov.PreloadFromOSU)/float64(p),
			100*float64(r.Prov.PreloadFromCompressor)/float64(p),
			100*float64(r.Prov.PreloadFromL1)/float64(p),
			100*float64(r.Prov.PreloadFromL2DRAM)/float64(p))
		fmt.Fprintf(out, "regions        %d activations, %.1f cycles/region, %d metadata insns\n",
			r.Prov.RegionActivations,
			float64(r.Prov.RegionCycles)/float64(max64(r.Prov.RegionActivations, 1)),
			r.Prov.MetaInsns)
		fmt.Fprintf(out, "L1 traffic     %d preload reads, %d stores, %d invalidations\n",
			r.Prov.L1PreloadReads, r.Prov.L1StoreWrites, r.Prov.L1Invalidates)
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// diagOutPath is -diag-out's destination, consulted when check hits a
// structured Diagnostic.
var diagOutPath string

func check(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "error:", err)
	var d *sanitizer.Diagnostic
	if errors.As(err, &d) {
		fmt.Fprint(os.Stderr, d.Render())
		if diagOutPath != "" {
			if f, ferr := os.Create(diagOutPath); ferr != nil {
				fmt.Fprintln(os.Stderr, "regless: diag-out:", ferr)
			} else {
				if werr := d.WriteJSON(f); werr != nil {
					fmt.Fprintln(os.Stderr, "regless: diag-out:", werr)
				}
				f.Close()
				fmt.Fprintf(os.Stderr, "regless: wrote diagnostic bundle to %s\n", diagOutPath)
			}
		}
	}
	os.Exit(1)
}
