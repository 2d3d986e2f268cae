package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestParallelOutputIdentical is the -parallel seed-stability smoke test:
// the full experiment suite rendered with a serial planner must be
// byte-identical to the same suite rendered with a parallel planner.
func TestParallelOutputIdentical(t *testing.T) {
	render := func(par int) string {
		opts := experiments.Quick()
		opts.Parallelism = par
		s := experiments.NewSuite(opts)
		tables, err := experiments.All(s)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tb := range tables {
			b.WriteString(tb.Render())
			b.WriteByte('\n')
		}
		return b.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("-parallel 1 and -parallel 8 disagree:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestExtensionGoldens is the one table of what the command line prints,
// byte for byte: a row holds an invocation's stdout to a golden file
// (scripts/golden/), to a second invocation's stdout, or — for the
// -markdown invocations EXPERIMENTS.md reports — to that document, in
// which each of its table blocks must appear verbatim.
//
// The goldens pin what experiments.All at Quick scale (hence
// TestSuiteGolden) leaves out, each captured from the binary before the
// refactor that last touched what it shows and not regenerated for one:
// the four extension tables and an application run (the ablation table at
// 16 warps: at 8 every variant reads 1.000); `-experiment all` itself,
// every paper table at 16 warps, in which the planner may not show at any
// width (serial and parallel planners both); Figure 14 on a 4-SM chip (lockstep determinism and the banked-L2
// path); the timeline as the tracer that stepped the SM itself printed it;
// and the metrics_*.jsonl window streams on stdout — cell names, their
// order, window boundaries and values.
//
// The equalities are the flags that must be invisible in the output, on a
// suite run and on an application's standing hierarchy: -no-fastforward
// (stepping every cycle), and -sanitize on a healthy machine — one row per
// scheduler kind (GTO under baseline, two-level under rfh), one under
// regless, the provider that gates issue and brings the CM/OSU invariants
// along, and the co-resident split chip the suite cache does not build.
// (TestRobustnessFlagsReachEveryMachine holds the same two flags over the
// remaining machines.)
func TestExtensionGoldens(t *testing.T) {
	nw := func(scheme string, extra ...string) []string {
		return append([]string{"-bench", "nw", "-scheme", scheme, "-warps", "8"}, extra...)
	}
	srad, cores := []string{"-app", "srad_app", "-warps", "8"}, []string{"-experiment", "coresident", "-warps", "8"}
	with := func(args []string, flag string) []string { return append(args[:len(args):len(args)], flag) }
	doc := func(experiment string, extra ...string) []string {
		return append([]string{"-experiment", experiment, "-markdown"}, extra...)
	}
	subset := []string{"-benchmarks", "bfs,dwt2d,hotspot,hybridsort,lud,streamcluster"}
	experimentsMD, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden string   // a file under scripts/golden, or
		same   []string // the invocation that must print the same, or
		inDoc  bool     // every table block must appear in EXPERIMENTS.md
		args   []string
	}{
		{golden: "ablation_warps16.txt", args: []string{"-experiment", "ablation", "-warps", "16"}},
		{golden: "gpuscale_warps8.txt", args: []string{"-experiment", "gpuscale", "-warps", "8"}},
		{golden: "coresident_warps8.txt", args: cores},
		{golden: "oversub_warps8.txt", args: []string{"-experiment", "oversub", "-warps", "8"}},
		{golden: "app_backprop_warps8.txt", args: []string{"-app", "backprop_app", "-warps", "8"}},
		{golden: "all_warps16.txt", args: []string{"-experiment", "all", "-warps", "16", "-parallel", "1"}},
		{golden: "all_warps16.txt", args: []string{"-experiment", "all", "-warps", "16", "-parallel", "8"}},
		{golden: "sms4_fig14_warps16.txt", args: []string{"-sms", "4", "-experiment", "fig14", "-warps", "16"}},
		{golden: "timeline_nw_warps8.txt", args: nw("regless", "-timeline")},

		{golden: "metrics_nw_regless_warps8.jsonl", args: nw("regless", "-metrics-out", "-")},
		{golden: "metrics_nw_regless_warps8_sms4.jsonl", args: nw("regless", "-sms", "4", "-metrics-out", "-")},
		{golden: "metrics_nw_rfv_warps8.jsonl", args: nw("rfv", "-metrics-out", "-")},

		{same: nw("regless"), args: nw("regless", "-no-fastforward")},
		{same: srad, args: with(srad, "-no-fastforward")},
		{same: nw("baseline"), args: nw("baseline", "-sanitize")},
		{same: nw("rfh"), args: nw("rfh", "-sanitize")},
		{same: nw("regless"), args: nw("regless", "-sanitize")},
		{same: cores, args: with(cores, "-sanitize")},
		{same: srad, args: with(srad, "-sanitize")},

		{inDoc: true, args: doc("all")},
		{inDoc: true, args: doc("claims")},
		{inDoc: true, args: doc("gpuscale")},
		{inDoc: true, args: doc("coresident")},
		{inDoc: true, args: doc("oversub")},
		{inDoc: true, args: doc("ablation", subset...)},
		{inDoc: true, args: doc("breakdown", subset...)},
		{inDoc: true, args: doc("sensitivity", subset...)},
	} {
		if c.inDoc {
			stdout, stderr, code := runMain(t, c.args...)
			if code != 0 {
				t.Errorf("%v: exit %d\n%s", c.args, code, stderr)
			}
			for _, block := range strings.Split(stdout, "### ")[1:] {
				if block = "### " + strings.TrimRight(block, "\n") + "\n"; !strings.Contains(string(experimentsMD), block) {
					t.Errorf("%v: EXPERIMENTS.md lacks this block:\n%s", c.args, block)
				}
			}
			continue
		}
		var want, what string
		if c.golden != "" {
			raw, err := os.ReadFile(filepath.Join("..", "..", "scripts", "golden", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			want, what = string(raw), c.golden
		} else {
			ref, stderr, code := runMain(t, c.same...)
			if code != 0 {
				t.Errorf("%v: exit %d\n%s", c.same, code, stderr)
				continue
			}
			want, what = ref, fmt.Sprint(c.same)
		}
		if stdout, stderr, code := runMain(t, c.args...); code != 0 || stdout != want {
			t.Errorf("%v: exit %d, output differs from %s\n%s%s", c.args, code, what, stdout, stderr)
		}
	}
}
