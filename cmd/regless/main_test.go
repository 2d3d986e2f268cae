package main

import (
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

// TestExtensionGoldens pins what experiments.All (hence TestSuiteGolden)
// leaves out — the four extension tables and an application run — byte
// for byte against output captured from the binary before the refactor
// that last touched how they build their machines (scripts/golden/). The
// ablation table runs at 16 warps: at 8 every variant reads 1.000. The
// metrics_*.jsonl goldens are the window stream on stdout — cell names,
// their order, window boundaries and values — captured the same way.
// all_warps16.txt is `-experiment all` itself, every paper table at 16
// warps, captured before an experiment came to declare its runs once; the
// planner may not show in it at any width.
func TestExtensionGoldens(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"ablation_warps16.txt", []string{"-experiment", "ablation", "-warps", "16"}},
		{"gpuscale_warps8.txt", []string{"-experiment", "gpuscale", "-warps", "8"}},
		{"coresident_warps8.txt", []string{"-experiment", "coresident", "-warps", "8"}},
		{"oversub_warps8.txt", []string{"-experiment", "oversub", "-warps", "8"}},
		{"app_backprop_warps8.txt", []string{"-app", "backprop_app", "-warps", "8"}},
		{"all_warps16.txt", []string{"-experiment", "all", "-warps", "16", "-parallel", "1"}},
		{"all_warps16.txt", []string{"-experiment", "all", "-warps", "16", "-parallel", "8"}},

		{"metrics_nw_regless_warps8.jsonl", []string{"-bench", "nw", "-scheme", "regless", "-warps", "8", "-metrics-out", "-"}},
		{"metrics_nw_regless_warps8_sms4.jsonl", []string{"-bench", "nw", "-scheme", "regless", "-warps", "8", "-sms", "4", "-metrics-out", "-"}},
		{"metrics_nw_rfv_warps8.jsonl", []string{"-bench", "nw", "-scheme", "rfv", "-warps", "8", "-metrics-out", "-"}},
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", "scripts", "golden", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		stdout, stderr, code := runMain(t, c.args...)
		if code != 0 || stdout != string(want) {
			t.Errorf("%v: exit %d, output differs from %s\n%s%s", c.args, code, c.golden, stdout, stderr)
		}
	}
}
