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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

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
	c := newCLI(flag.CommandLine)
	flag.Parse()
	diagOutPath = c.diagOut

	if c.list {
		for _, b := range kernels.Suite() {
			fmt.Printf("%-16s %s\n", b.Name, b.Character)
		}
		return
	}
	opts, err := c.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "regless:", err)
		flag.Usage()
		os.Exit(2)
	}

	// Tables normally print to stdout; a metrics stream sent there takes
	// it over and tables move to stderr.
	var out io.Writer = os.Stdout
	switch c.metricsOut {
	case "":
	case "-":
		opts.MetricsWriter = os.Stdout
		out = os.Stderr
	default:
		f, err := os.Create(c.metricsOut)
		check(err)
		defer f.Close()
		opts.MetricsWriter = f
	}
	suite := experiments.NewSuite(opts)

	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer func() {
		check(suite.FlushMetrics())
		if c.memprofile != "" {
			f, err := os.Create(c.memprofile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			f.Close()
		}
	}()

	sch := experiments.Scheme(c.scheme) // options vetted the name
	switch {
	case c.app != "":
		runApp(c.app, sch, opts.Setup(c.capacity))
	case c.bench != "" && (c.timeline || c.traceFile != "" || c.traceReport):
		runTrace(c, opts)
	case c.bench != "":
		runOne(suite, out, c.bench, sch, c.capacity)
	case c.experiment == "all":
		tables, err := experiments.All(suite)
		check(err)
		for _, tb := range tables {
			fmt.Fprintln(out, render(tb, c.markdown))
		}
	case c.experiment != "":
		fn, ok := experiments.ByID(c.experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", c.experiment)
			os.Exit(2)
		}
		tb, err := fn(suite)
		check(err)
		fmt.Fprintln(out, render(tb, c.markdown))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// machineFlags registers on fs the seven flags that fix the machine every
// simulation of the process runs on and how many run at once — one set of
// names, defaults and rules for `regless` and `regless serve` — and
// returns the function that, once fs is parsed, yields the options they
// spell or the first rule one of them breaks.
func machineFlags(fs *flag.FlagSet) func() (experiments.Options, error) {
	opts := experiments.Default()
	fs.IntVar(&opts.Warps, "warps", opts.Warps, "warps per SM (must be >= 1)")
	fs.IntVar(&opts.SMs, "sms", 1, "SMs on the chip (must be >= 1); >1 runs lockstep SMs sharing the banked L2 and DRAM")
	fs.IntVar(&opts.Parallelism, "parallel", runtime.GOMAXPROCS(0), "concurrent simulations, in the run planner or serve's admission pool (must be >= 1); results are identical at any setting")
	fs.Uint64Var(&opts.MaxCycles, "max-cycles", opts.MaxCycles, "simulation cycle limit per kernel (must be >= 1)")
	fs.Uint64Var(&opts.Watchdog, "watchdog", 1_000_000, "forward-progress watchdog threshold in cycles (0 disables)")
	fs.BoolVar(&opts.Sanitize, "sanitize", false, "run the cycle-level invariant sanitizer every cycle")
	faultSpec := fs.String("faults", "", "fault-injection spec armed for every simulation, e.g. 'mem-drop@5000; seed=3' (DESIGN.md §11)")
	return func() (experiments.Options, error) {
		var err error
		switch {
		case opts.Warps < 1:
			err = fmt.Errorf("-warps must be at least 1, got %d", opts.Warps)
		case opts.SMs < 1:
			err = fmt.Errorf("-sms must be at least 1, got %d", opts.SMs)
		case opts.Parallelism < 1:
			err = fmt.Errorf("-parallel must be at least 1, got %d", opts.Parallelism)
		case opts.MaxCycles < 1:
			err = fmt.Errorf("-max-cycles must be at least 1, got %d", opts.MaxCycles)
		case *faultSpec != "":
			opts.Faults, err = faults.Parse(*faultSpec)
		}
		return opts, err
	}
}

// cli is the single-invocation command line: what to run and how to show
// it, beside the machine flags.
type cli struct {
	experiment, bench, app, scheme, benchList string
	capacity, bucket                          int
	markdown, list, noFF                      bool
	timeline, csv, traceReport                bool
	traceFile, metricsOut, diagOut            string
	cpuprofile, memprofile                    string
	machine                                   func() (experiments.Options, error)
}

func newCLI(fs *flag.FlagSet) *cli {
	c := &cli{machine: machineFlags(fs)}
	fs.StringVar(&c.experiment, "experiment", "", "experiment id (table1, fig2..fig19, table2, ablation, gpuscale, coresident, oversub, or 'all')")
	fs.StringVar(&c.bench, "bench", "", "run one benchmark (with -scheme)")
	fs.StringVar(&c.app, "app", "", "run a multi-kernel application (backprop_app, bfs_app, srad_app)")
	fs.StringVar(&c.scheme, "scheme", "regless", fmt.Sprintf("scheme for -bench and -app, one of %v", experiments.Schemes()))
	fs.IntVar(&c.capacity, "capacity", experiments.DefaultCapacity, "RegLess OSU registers per SM (0: the paper's 512; else a positive multiple of 32; other schemes ignore it)")
	fs.StringVar(&c.benchList, "benchmarks", "", "comma-separated benchmark subset (default: all 21)")
	fs.BoolVar(&c.markdown, "markdown", false, "emit markdown tables")
	fs.BoolVar(&c.list, "list", false, "list benchmarks and exit")
	fs.BoolVar(&c.timeline, "timeline", false, "with -bench: render a warp-state timeline")
	fs.IntVar(&c.bucket, "bucket", 100, "timeline bucket size in cycles (must be >= 1)")
	fs.BoolVar(&c.csv, "csv", false, "with -timeline: emit CSV instead of ASCII")
	fs.StringVar(&c.traceFile, "trace", "", "with -bench: write a Chrome trace-event JSON file (open in Perfetto)")
	fs.BoolVar(&c.traceReport, "trace-report", false, "with -bench: print a stall-attribution and preload-latency report")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "stream per-window metrics as JSONL to this file ('-': stdout, moving tables to stderr)")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	fs.BoolVar(&c.noFF, "no-fastforward", false, "step every cycle instead of skipping provably idle spans (differential validation; results are identical)")
	fs.StringVar(&c.diagOut, "diag-out", "", "write the diagnostic bundle as JSON to this file on abnormal termination")
	return c
}

// options is the machine flags' options plus what only this command line
// can say, after the rules only it has: values that would otherwise be
// silently misread (the timeline divides by the bucket) and renderings
// that need a -bench to render.
func (c *cli) options() (experiments.Options, error) {
	opts, err := c.machine()
	if err != nil {
		return opts, err
	}
	opts.NoFastForward = c.noFF
	if c.benchList != "" {
		opts.Benchmarks = strings.Split(c.benchList, ",")
	}
	switch {
	case opts.SMs > 1 && c.app != "":
		return opts, fmt.Errorf("-app runs are single-SM; use -sms 1")
	case c.bucket < 1:
		return opts, fmt.Errorf("-bucket must be at least 1, got %d", c.bucket)
	case (c.traceFile != "" || c.traceReport) && c.bench == "":
		return opts, fmt.Errorf("-trace and -trace-report require -bench")
	case (c.timeline || c.csv) && c.bench == "":
		return opts, fmt.Errorf("-timeline and -csv require -bench")
	}
	scheme, err := experiments.ParseScheme(c.scheme)
	if err != nil {
		return opts, err
	}
	// The capacity rule is the service's (Server.KeyFor): from here on
	// c.capacity is what the run is keyed and labelled with.
	if c.capacity, err = experiments.CanonicalCapacity(scheme, c.capacity); err != nil {
		return opts, fmt.Errorf("-%w", err)
	}
	return opts, nil
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

// runTrace is the one instrumented run -timeline, -trace and
// -trace-report share, of any chip size, one recorder per SM, rendered as
// asked: a warp-state timeline and a stall report per SM, and one Perfetto
// export grouping each SM's tracks in its own process block. The timeline
// alone needs only its own event families; the Perfetto export and the
// stall report consume every family.
func runTrace(c *cli, opts experiments.Options) {
	mask := events.MaskTimeline
	if c.traceFile != "" || c.traceReport {
		mask = events.MaskAll
	}
	inst, err := experiments.SimulateInstrumented(context.Background(), c.bench, experiments.Scheme(c.scheme), opts.SMs, opts.Setup(c.capacity), mask)
	check(err)
	// Labels name the SM only on a chip of several, as the Perfetto
	// writer does for its "SM%d " track prefix.
	chip := opts.SMs > 1
	who := func(i int) string {
		if !chip {
			return fmt.Sprintf("%s under %s", c.bench, c.scheme)
		}
		return fmt.Sprintf("SM %d (warps %d..%d)", i, inst.FirstWarp[i], inst.FirstWarp[i]+inst.Warps[i]-1)
	}
	if chip && (c.traceReport || c.timeline && !c.csv) {
		fmt.Printf("%s under %s on %d SMs: %d chip cycles\n", c.bench, c.scheme, opts.SMs, inst.Run.Stats.Cycles)
	}
	if c.timeline {
		for i, rec := range inst.Recs {
			tl := trace.Fold(rec, inst.Cycles[i], inst.Warps[i], inst.FirstWarp[i], c.bucket)
			if c.csv {
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
	if c.traceFile != "" {
		metas := make([]events.TraceMeta, len(inst.Recs))
		total := 0
		for i, rec := range inst.Recs {
			metas[i] = events.TraceMeta{
				Bench:        c.bench,
				Scheme:       c.scheme,
				Warps:        inst.Warps[i],
				Schedulers:   inst.Schedulers[i],
				Cycles:       inst.Cycles[i],
				SM:           i,
				WarpIDBase:   inst.FirstWarp[i],
				PatternNames: patternNames(),
			}
			total += rec.Len()
		}
		f, err := os.Create(c.traceFile)
		check(err)
		check(events.WriteChipPerfetto(f, inst.Recs, metas))
		check(f.Close())
		of := ""
		if chip {
			of = fmt.Sprintf(" (%d SMs)", len(inst.Recs))
		}
		fmt.Fprintf(os.Stderr, "regless: wrote %d events%s to %s (open in ui.perfetto.dev)\n", total, of, c.traceFile)
	}
	if c.traceReport {
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
			float64(r.Prov.RegionCycles)/float64(max(r.Prov.RegionActivations, 1)),
			r.Prov.MetaInsns)
		fmt.Fprintf(out, "L1 traffic     %d preload reads, %d stores, %d invalidations\n",
			r.Prov.L1PreloadReads, r.Prov.L1StoreWrites, r.Prov.L1Invalidates)
	}
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
