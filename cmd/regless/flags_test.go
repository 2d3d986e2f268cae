package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// TestMain lets tests re-exec this binary as the real CLI: with
// REGLESS_RUN_MAIN=1 the process runs main() (flag parsing, os.Exit
// semantics and all) instead of the test harness.
func TestMain(m *testing.M) {
	if os.Getenv("REGLESS_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// parseCLI is main's flag handling without the process around it: the
// CLI's flags on a fresh set, args parsed, the options they validate to.
func parseCLI(args ...string) (experiments.Options, error) {
	fs := flag.NewFlagSet("regless", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := newCLI(fs)
	if err := fs.Parse(args); err != nil {
		return experiments.Options{}, err
	}
	return c.options()
}

// parseServe is the same of `regless serve`.
func parseServe(args ...string) (experiments.Options, error) {
	fs := flag.NewFlagSet("regless serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := newServeCLI(fs)
	if err := fs.Parse(args); err != nil {
		return experiments.Options{}, err
	}
	return c.options()
}

// wantErr holds err to a substring ("" means nil).
func wantErr(t *testing.T, args []string, err error, want string) {
	t.Helper()
	if want == "" && err != nil {
		t.Errorf("%v: %v, want nil", args, err)
	}
	if want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
		t.Errorf("%v: %v, want error containing %q", args, err, want)
	}
}

// TestMachineFlagsSharedByBothCommands: the seven machine flags are one
// registration, so `regless` and `regless serve` carry them under the same
// names with the same defaults and usage text, turn the same arguments
// into the same options, and reject the same values in the same words.
func TestMachineFlagsSharedByBothCommands(t *testing.T) {
	cliSet, serveSet := flag.NewFlagSet("", flag.ContinueOnError), flag.NewFlagSet("", flag.ContinueOnError)
	newCLI(cliSet)
	newServeCLI(serveSet)
	for _, name := range []string{"warps", "sms", "parallel", "max-cycles", "watchdog", "sanitize", "faults"} {
		a, b := cliSet.Lookup(name), serveSet.Lookup(name)
		if a == nil || b == nil || a.DefValue != b.DefValue || a.Usage != b.Usage {
			t.Errorf("-%s differs between the commands: %+v vs %+v", name, a, b)
		}
	}
	both := 0
	cliSet.VisitAll(func(f *flag.Flag) {
		if serveSet.Lookup(f.Name) != nil && f.Name != "metrics-out" {
			both++
		}
	})
	if both != 7 {
		t.Errorf("%d flags besides -metrics-out are on both commands, want the seven machine flags", both)
	}

	for _, c := range []struct {
		args    []string
		check   func(experiments.Options) bool
		wantErr string
	}{
		{nil, func(o experiments.Options) bool {
			return o.Warps == 64 && o.SMs == 1 && o.MaxCycles == 60_000_000 && o.Watchdog == 1_000_000 &&
				!o.Sanitize && o.Faults == nil && len(o.Benchmarks) == 21
		}, ""},
		{[]string{"-warps", "8", "-sms", "4", "-parallel", "3", "-max-cycles", "5", "-watchdog", "0", "-sanitize"},
			func(o experiments.Options) bool {
				return o.Warps == 8 && o.SMs == 4 && o.Parallelism == 3 && o.MaxCycles == 5 && o.Watchdog == 0 && o.Sanitize
			}, ""},
		{[]string{"-faults", "mem-drop@5000; seed=3"}, func(o experiments.Options) bool { return o.Faults != nil }, ""},
		{[]string{"-warps", "0"}, nil, "-warps must be at least 1, got 0"},
		{[]string{"-sms", "0"}, nil, "-sms must be at least 1, got 0"},
		{[]string{"-sms", "-4"}, nil, "-sms must be at least 1, got -4"},
		{[]string{"-parallel", "0"}, nil, "-parallel must be at least 1, got 0"},
		{[]string{"-parallel", "-3", "-max-cycles", "0"}, nil, "-parallel must be at least 1, got -3"}, // first error wins
		{[]string{"-max-cycles", "0"}, nil, "-max-cycles must be at least 1, got 0"},
		{[]string{"-faults", "warp-eater"}, nil, "unknown class"},
		{[]string{"-faults", "mem-drop:delay=9"}, nil, "delay= applies to mem-delay"},
	} {
		viaCLI, errCLI := parseCLI(c.args...)
		viaServe, errServe := parseServe(append([]string{"-store", "d"}, c.args...)...)
		wantErr(t, c.args, errCLI, c.wantErr)
		if (errCLI == nil) != (errServe == nil) || errCLI != nil && errCLI.Error() != errServe.Error() {
			t.Errorf("%v: regless says %v, regless serve %v", c.args, errCLI, errServe)
		}
		if c.check != nil && !(c.check(viaCLI) && c.check(viaServe)) {
			t.Errorf("%v: options %+v (regless), %+v (serve)", c.args, viaCLI, viaServe)
		}
	}
	if _, err := parseServe("-warps", "8"); err == nil || err.Error() != "-store is required" {
		t.Errorf("serve without -store: %v", err)
	}
}

// TestFrontDoorsAgreeOnCapacity: the command line and the service decide a
// (scheme, capacity) pair by one rule (experiments.CanonicalCapacity), so
// they accept the same pairs, as the same run, and refuse the rest in the
// same words: a scheme without a capacity ignores it, RegLess reads 0 as
// the paper's design point and wants whole lines per bank otherwise.
func TestFrontDoorsAgreeOnCapacity(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Opts:     experiments.Options{Warps: 8, MaxCycles: 2_000_000, Parallelism: 1},
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	regless := map[int]int{-32: -1, 0: experiments.DefaultCapacity, 100: -1, 512: 512, 2048: 2048} // -1: refused
	for _, scheme := range experiments.Schemes() {
		for _, capacity := range []int{-32, 0, 100, 512, 2048} {
			want := 0
			if scheme.HasCapacity() {
				want = regless[capacity]
			}
			fs := flag.NewFlagSet("regless", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			c := newCLI(fs)
			if err := fs.Parse([]string{"-bench", "nw", "-scheme", string(scheme), "-capacity", strconv.Itoa(capacity)}); err != nil {
				t.Fatal(err)
			}
			_, errCLI := c.options()
			key, errServe := srv.KeyFor(serve.RunRequest{Bench: "nw", Scheme: string(scheme), Capacity: capacity})
			switch {
			case want < 0:
				if errCLI == nil || errServe == nil || errCLI.Error() != "-"+errServe.Error() ||
					!strings.Contains(errServe.Error(), "capacity must be a positive multiple of 32") {
					t.Errorf("%s/%d: regless says %v, serve %v; want both refused by the lines-per-bank rule", scheme, capacity, errCLI, errServe)
				}
			case errCLI != nil || errServe != nil:
				t.Errorf("%s/%d: regless says %v, serve %v; want both accepted", scheme, capacity, errCLI, errServe)
			case c.capacity != want || key.Capacity != want:
				t.Errorf("%s/%d: regless runs capacity %d, serve keys %d; want %d", scheme, capacity, c.capacity, key.Capacity, want)
			}
		}
	}
}

// TestValidateFlags: the rules only the single-invocation command line
// has, and what only it can put into the options.
func TestValidateFlags(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-bucket", "1"}, ""},
		{[]string{"-parallel", "0", "-bucket", "0"}, "-parallel must be at least 1"}, // the machine's rules first
		{[]string{"-bucket", "0"}, "-bucket must be at least 1, got 0"},
		{[]string{"-bucket", "-50"}, "-bucket must be at least 1, got -50"},
		{[]string{"-trace", "out.json"}, "-trace and -trace-report require -bench"},
		{[]string{"-trace-report"}, "-trace and -trace-report require -bench"},
		{[]string{"-trace", "out.json", "-trace-report", "-bench", "nw"}, ""},
		{[]string{"-timeline"}, "-timeline and -csv require -bench"},
		{[]string{"-csv"}, "-timeline and -csv require -bench"},
		{[]string{"-timeline", "-csv", "-bench", "nw"}, ""},
		{[]string{"-capacity", "32"}, ""},
		{[]string{"-capacity", "2048"}, ""},
		{[]string{"-capacity", "100"}, "-capacity must be a positive multiple of 32 registers (shards x banks), got 100"},
		{[]string{"-capacity", "0"}, ""}, // the paper's design point, as in a request
		{[]string{"-scheme", "baseline", "-capacity", "100"}, ""},
		{[]string{"-capacity", "-5"}, "-capacity must be a positive multiple of 32"},
		{[]string{"-json"}, "flag provided but not defined: -json"},
		{[]string{"-snapshot-sha", "x"}, "flag provided but not defined: -snapshot-sha"},
	} {
		_, err := parseCLI(c.args...)
		wantErr(t, c.args, err, c.wantErr)
	}
	opts, err := parseCLI("-no-fastforward", "-benchmarks", "nw,bfs")
	if err != nil || !opts.NoFastForward || len(opts.Benchmarks) != 2 || !opts.Setup(512).NoFastForward {
		t.Errorf("-no-fastforward -benchmarks nw,bfs: %+v, %v", opts, err)
	}
	if opts, err := parseCLI(); err != nil || opts.NoFastForward {
		t.Errorf("no flags: NoFastForward %v, %v", opts.NoFastForward, err)
	}
}

// TestValidateSchemeFlag: -scheme is admitted by experiments.ParseScheme,
// the check serve makes of a request's scheme.
func TestValidateSchemeFlag(t *testing.T) {
	for _, sc := range experiments.Schemes() {
		if _, err := parseCLI("-bench", "nw", "-scheme", string(sc)); err != nil {
			t.Errorf("-scheme %s: %v", sc, err)
		}
	}
	for _, machine := range [][]string{{"-bench", "nw"}, {"-app", "backprop_app"}} {
		args := append(machine, "-scheme", "foo")
		_, err := parseCLI(args...)
		wantErr(t, args, err, `unknown scheme "foo"`)
	}
}

// TestValidateSMsFlag covers the multi-SM flag combinations: the timeline
// renders chips, and -app (single-SM) rejects them.
func TestValidateSMsFlag(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-sms", "16", "-bench", "nw"}, ""},
		{[]string{"-sms", "4", "-bench", "nw", "-timeline"}, ""},
		{[]string{"-sms", "4", "-app", "srad_app"}, "-app runs are single-SM"},
		{[]string{"-sms", "1", "-bench", "nw", "-timeline"}, ""},
		{[]string{"-sms", "1", "-app", "srad_app"}, ""},
	} {
		_, err := parseCLI(c.args...)
		wantErr(t, c.args, err, c.wantErr)
	}
}

// runMain re-executes the test binary as the CLI with the given args.
func runMain(t *testing.T, args ...string) (stdout, stderr string, exitCode int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REGLESS_RUN_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("re-exec failed to run: %v", err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestBadFlagsExitWithUsage drives the real binary: invalid flag values,
// and the -metrics spelling -metrics-out replaced, must exit 2 with a
// usage message on stderr, leaving stdout clean.
func TestBadFlagsExitWithUsage(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-parallel", "0", "-experiment", "fig2"}, "-parallel must be at least 1, got 0"},
		{[]string{"-parallel", "-2", "-list"}, "-parallel must be at least 1, got -2"},
		{[]string{"-metrics", "jsonl", "-experiment", "fig2"}, "flag provided but not defined: -metrics"},
		{[]string{"-bucket", "0", "-bench", "nw", "-timeline"}, "-bucket must be at least 1, got 0"},
		{[]string{"-trace-report", "-experiment", "fig2"}, "-trace and -trace-report require -bench"},
		{[]string{"-experiment", "fig14", "-timeline", "-csv"}, "-timeline and -csv require -bench"},
		{[]string{"-bench", "nw", "-scheme", "foo"}, `unknown scheme "foo"`},
		{[]string{"-app", "backprop_app", "-scheme", "foo"}, `unknown scheme "foo"`},
		// The old bench ruler's options went with it (benchmark/ is the ruler).
		{[]string{"-experiment", "fig2", "-json"}, "flag provided but not defined: -json"},
		{[]string{"-experiment", "fig2", "-snapshot-sha", "x"}, "flag provided but not defined: -snapshot-sha"},
		// One validator for both commands: serve always refused these two.
		{[]string{"-bench", "nw", "-warps", "0"}, "-warps must be at least 1, got 0"},
		{[]string{"serve", "-store", "d", "-warps", "0"}, "-warps must be at least 1, got 0"},
		{[]string{"-bench", "nw", "-capacity", "100"}, "-capacity must be a positive multiple of 32"},
		{[]string{"-bench", "nw", "-capacity", "-5"}, "-capacity must be a positive multiple of 32"},
	}
	for _, c := range cases {
		stdout, stderr, code := runMain(t, c.args...)
		if strings.Contains(strings.Join(c.args, " "), "-list") {
			// -list short-circuits before validation; it must still work.
			if code != 0 {
				t.Fatalf("%v: exit %d, stderr %q", c.args, code, stderr)
			}
			continue
		}
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr %q)", c.args, code, stderr)
		}
		if !strings.Contains(stderr, c.want) {
			t.Fatalf("%v: stderr %q missing %q", c.args, stderr, c.want)
		}
		if !strings.Contains(stderr, "Usage") {
			t.Fatalf("%v: stderr lacks usage text:\n%s", c.args, stderr)
		}
		if stdout != "" {
			t.Fatalf("%v: unexpected stdout %q", c.args, stdout)
		}
	}
}

// TestMetricsStreamIsValidJSONL runs one small benchmark with
// -metrics-out - through the real binary and checks stdout is pure JSONL
// (tables moved to stderr) with the run's labels on every record; sent to
// a file, the same stream leaves the tables on stdout.
func TestMetricsStreamIsValidJSONL(t *testing.T) {
	stdout, stderr, code := runMain(t,
		"-metrics-out", "-", "-bench", "nw", "-scheme", "baseline", "-warps", "8")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "benchmark      nw") {
		t.Fatalf("tables did not move to stderr:\n%s", stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no JSONL records on stdout")
	}
	for i, ln := range lines {
		var rec struct {
			Bench  string `json:"bench"`
			Scheme string `json:"scheme"`
			End    uint64 `json:"end"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i+1, err, ln)
		}
		if rec.Bench != "nw" || rec.Scheme != "baseline" {
			t.Fatalf("line %d mislabeled: %s", i+1, ln)
		}
	}
	file := filepath.Join(t.TempDir(), "w.jsonl")
	tables, _, code := runMain(t,
		"-metrics-out", file, "-bench", "nw", "-scheme", "baseline", "-warps", "8")
	if raw, err := os.ReadFile(file); code != 0 || err != nil || string(raw) != stdout || tables != stderr {
		t.Fatalf("-metrics-out FILE: exit %d, %v; the file holds the stdout stream: %v, stdout the tables: %v",
			code, err, string(raw) == stdout, tables == stderr)
	}
}

// TestRobustnessFlagsExitWithUsage: the validated -max-cycles and -faults
// flags reject bad values through the real binary with exit 2.
func TestRobustnessFlagsExitWithUsage(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-max-cycles", "0", "-bench", "nw"}, "-max-cycles must be at least 1, got 0"},
		{[]string{"-faults", "warp-eater", "-bench", "nw"}, `unknown class "warp-eater"`},
		{[]string{"-faults", "mem-drop@oops", "-bench", "nw"}, "bad cycle"},
	}
	for _, c := range cases {
		stdout, stderr, code := runMain(t, c.args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want 2 (stderr %q)", c.args, code, stderr)
		}
		if !strings.Contains(stderr, c.want) {
			t.Fatalf("%v: stderr %q missing %q", c.args, stderr, c.want)
		}
		if !strings.Contains(stderr, "Usage") {
			t.Fatalf("%v: stderr lacks usage text:\n%s", c.args, stderr)
		}
		if stdout != "" {
			t.Fatalf("%v: unexpected stdout %q", c.args, stdout)
		}
	}
}

// TestDiagnosticBundleEndToEnd drives the full crash path through the
// real binary: a detected fault exits 1, renders the bundle on stderr,
// and serializes it as JSON to -diag-out.
func TestDiagnosticBundleEndToEnd(t *testing.T) {
	diagFile := t.TempDir() + "/diag.json"
	stdout, stderr, code := runMain(t,
		"-bench", "nw", "-scheme", "regless", "-warps", "8",
		"-faults", "osu-tag@200; seed=3", "-sanitize",
		"-watchdog", "20000", "-diag-out", diagFile)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, want := range []string{"component  osu/", "violation", "fault      osu-tag", "wrote diagnostic bundle to"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("stderr missing %q:\n%s", want, stderr)
		}
	}
	raw, err := os.ReadFile(diagFile)
	if err != nil {
		t.Fatalf("bundle file: %v", err)
	}
	var bundle struct {
		Component     string   `json:"component"`
		Violation     string   `json:"violation"`
		Cycle         uint64   `json:"cycle"`
		Kernel        string   `json:"kernel"`
		FaultsApplied []string `json:"faults_applied"`
		Warps         []any    `json:"warps"`
		Metrics       []any    `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("bundle is not valid JSON: %v\n%s", err, raw)
	}
	if !strings.HasPrefix(bundle.Component, "osu/") || bundle.Violation == "" || bundle.Kernel != "nw" {
		t.Fatalf("bundle content: %+v", bundle)
	}
	if len(bundle.FaultsApplied) == 0 || len(bundle.Warps) == 0 || len(bundle.Metrics) == 0 {
		t.Fatalf("bundle missing context: %+v", bundle)
	}
}

// TestToleratedFaultRunSucceeds: a sanitized run with a timing-only fault
// completes normally with the usual stats output.
func TestToleratedFaultRunSucceeds(t *testing.T) {
	stdout, stderr, code := runMain(t,
		"-bench", "nw", "-scheme", "regless", "-warps", "8",
		"-faults", "mem-delay@200:delay=500; seed=3", "-sanitize", "-watchdog", "20000")
	if code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "benchmark      nw") {
		t.Fatalf("missing stats output:\n%s", stdout)
	}
}

// TestTimelineRunsEndInDiagnostics: a -timeline run is the ordinary
// cycle loop with a recorder attached, so each abnormal termination is
// the same Diagnostic bundle as without the flag — exit 1, the bundle on
// stderr, -diag-out honoured — not a bare error from a tracer's own loop.
func TestTimelineRunsEndInDiagnostics(t *testing.T) {
	for _, c := range []struct {
		component string
		args      []string
	}{
		{"sim/maxcycles", []string{"-max-cycles", "100"}},
		{"sim/watchdog", []string{"-faults", "mem-drop@0; seed=3", "-watchdog", "2000"}},
		{"osu/", []string{"-faults", "osu-tag@200; seed=3", "-sanitize", "-watchdog", "20000"}},
	} {
		diagFile := t.TempDir() + "/diag.json"
		args := append([]string{"-bench", "nw", "-scheme", "regless", "-warps", "8", "-timeline", "-diag-out", diagFile}, c.args...)
		stdout, stderr, code := runMain(t, args...)
		if code != 1 || stdout != "" {
			t.Fatalf("%v: exit %d, want 1 with nothing on stdout\nstdout:\n%s\nstderr:\n%s", c.args, code, stdout, stderr)
		}
		for _, want := range []string{"component  " + c.component, "violation", "wrote diagnostic bundle to"} {
			if !strings.Contains(stderr, want) {
				t.Fatalf("%v: stderr missing %q:\n%s", c.args, want, stderr)
			}
		}
		raw, err := os.ReadFile(diagFile)
		if err != nil {
			t.Fatalf("%v: bundle file: %v", c.args, err)
		}
		var bundle struct {
			Component string `json:"component"`
			Kernel    string `json:"kernel"`
		}
		if err := json.Unmarshal(raw, &bundle); err != nil {
			t.Fatalf("%v: bundle is not valid JSON: %v\n%s", c.args, err, raw)
		}
		if !strings.HasPrefix(bundle.Component, c.component) || bundle.Kernel != "nw" {
			t.Fatalf("%v: bundle content: %+v", c.args, bundle)
		}
	}
}

// everyMachine is one invocation per way the CLI builds a machine outside
// the suite cache: the four extension tables and an application.
var everyMachine = [][]string{
	{"-experiment", "ablation", "-benchmarks", "nw"},
	{"-experiment", "gpuscale"},
	{"-experiment", "coresident"},
	{"-experiment", "oversub"},
	{"-app", "backprop_app", "-scheme", "regless"},
}

// TestRobustnessFlagsReachEveryMachine: every machine the CLI can build
// is assembled from the same options, so the sanitizer, the injector and
// the cycle bounds reach the extension tables and -app as they reach
// -bench — each abnormal end is exit 1 with the Diagnostic bundle on
// stderr and in -diag-out — and a sanitized or stepped healthy run prints
// what the plain one does.
func TestRobustnessFlagsReachEveryMachine(t *testing.T) {
	for _, machine := range everyMachine {
		run := func(extra ...string) (string, string, int) {
			return runMain(t, append(append([]string{"-warps", "8"}, machine...), extra...)...)
		}
		for _, c := range []struct {
			component string
			args      []string
		}{
			{"osu/", []string{"-faults", "osu-tag@200; seed=3", "-sanitize", "-watchdog", "20000"}},
			{"sim/maxcycles", []string{"-max-cycles", "100"}},
			{"sim/watchdog", []string{"-faults", "mem-drop@0; seed=3", "-watchdog", "2000"}},
		} {
			diagFile := t.TempDir() + "/diag.json"
			_, stderr, code := run(append(c.args, "-diag-out", diagFile)...)
			if code != 1 || !strings.Contains(stderr, "component  "+c.component) {
				t.Fatalf("%v %v: exit %d, want 1 naming %s\n%s", machine, c.args, code, c.component, stderr)
			}
			var bundle struct {
				Component string `json:"component"`
			}
			if raw, err := os.ReadFile(diagFile); err != nil || json.Unmarshal(raw, &bundle) != nil ||
				!strings.HasPrefix(bundle.Component, c.component) {
				t.Fatalf("%v %v: -diag-out bundle %q (%v)", machine, c.args, raw, err)
			}
		}
		sameAsPlain(t, machine, "-sanitize", "-no-fastforward")
	}
	// Stepped equals fast-forwarded over a standing hierarchy on the other
	// applications too (whose fault sites the rows above do not pin;
	// srad_app is a row of TestExtensionGoldens).
	sameAsPlain(t, []string{"-app", "bfs_app", "-scheme", "regless"}, "-no-fastforward")
}

// sameAsPlain runs machine at 8 warps plain and once under each flag, and
// requires every output to be the plain one.
func sameAsPlain(t *testing.T, machine []string, flags ...string) {
	t.Helper()
	args := append([]string{"-warps", "8"}, machine...)
	plain, stderr, code := runMain(t, args...)
	if code != 0 {
		t.Fatalf("%v: exit %d\n%s", machine, code, stderr)
	}
	for _, flag := range flags {
		if got, stderr, code := runMain(t, append(args[:len(args):len(args)], flag)...); code != 0 || got != plain {
			t.Errorf("%v %s: exit %d, output differs from the plain run\n%s%s", machine, flag, code, got, stderr)
		}
	}
}

// TestOversubscriptionFaultClasses is check.sh's fault smoke on a launch
// sequence: every class is tolerated (exit 0) or detected with a named
// component (exit 1), never a panic.
func TestOversubscriptionFaultClasses(t *testing.T) {
	for _, class := range []string{"mem-delay", "mem-drop", "osu-tag", "osu-state", "compress-pattern", "meta-bank", "meta-erase"} {
		_, stderr, code := runMain(t, "-experiment", "oversub", "-warps", "8",
			"-faults", class+"@200; seed=3", "-sanitize", "-watchdog", "20000")
		if strings.Contains(stderr, "panic:") || code != 0 && (code != 1 || !strings.Contains(stderr, "\ncomponent  ")) {
			t.Errorf("%s: exit %d\n%s", class, code, stderr)
		}
	}
}
