package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
)

// endToEndBounds is each end-to-end metric's bound: the share of the
// parent's value by which a change may worsen it, and so also the most
// two runs of the same code may disagree. BENCHMARK.json carries the
// same numbers (a self-test compares them).
var endToEndBounds = []struct {
	name  string
	bound float64
}{
	{"setup_s", 0.25},
	{"pass_s", 0.25},
	{"op_p50_ms", 0.25},
	{"peak_rss_mb", 0.25},
	{"alloc_mb", 0.02},
	{"sim_cycles", 0.001},
}

// runAA runs every workload twice on the same build, one complete set
// after the other, and prints for each workload and end-to-end metric how
// far the two sets disagree beside the bound. Each run is its own
// process, so peak RSS and the heap start fresh. Exit status 1 when a
// bound is exceeded or an op failed.
func runAA(seed int64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	type result struct {
		Correct bool              `json:"correct"`
		Failed  int               `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	}
	sets := [2]map[string]result{{}, {}}
	for i := range sets {
		for _, spec := range specs {
			fmt.Fprintf(os.Stderr, "aa: set %c %s\n", 'A'+i, spec.name)
			cmd := exec.Command(exe, "-workload", spec.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", spec.name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var r result
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: result line: %v\n", spec.name, err)
				return 1
			}
			sets[i][spec.name] = r
		}
	}
	status := 0
	fmt.Printf("%-11s %-12s %14s %14s %9s %7s\n", "workload", "metric", "set A", "set B", "disagree", "bound")
	for _, spec := range specs {
		a, b := sets[0][spec.name], sets[1][spec.name]
		if !a.Correct || !b.Correct {
			fmt.Printf("%-11s ops failed: %d in set A, %d in set B\n", spec.name, a.Failed, b.Failed)
			status = 1
		}
		for _, e := range endToEndBounds {
			va, vb := a.Metrics[e.name].Value, b.Metrics[e.name].Value
			d := relDiff(va, vb)
			verdict := ""
			if d > e.bound {
				verdict = "  EXCEEDED"
				status = 1
			}
			fmt.Printf("%-11s %-12s %14.4f %14.4f %8.2f%% %6.1f%%%s\n", spec.name, e.name, va, vb, 100*d, 100*e.bound, verdict)
		}
	}
	return status
}
