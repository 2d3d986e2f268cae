package main

import (
	"bufio"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestMain lets tests re-exec this binary as the real command: with
// KERNELINFO_RUN_MAIN=1 the process runs main() instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("KERNELINFO_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// kernelinfo runs the command with args and returns its stdout.
func kernelinfo(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "KERNELINFO_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("kernelinfo %v: %v", args, err)
	}
	return string(out)
}

var annotation = regexp.MustCompile(`^  (erase|evict) @(\d+) `)

// TestDumpIsDeterministic: a benchmark's dump is the same bytes on every
// run, with each region's erase and evict annotations in ascending
// instruction order. They are kept in maps, and the dump used to range
// over those, so one run in a few printed them in a different order.
func TestDumpIsDeterministic(t *testing.T) {
	first := kernelinfo(t, "-bench", "lud")
	if second := kernelinfo(t, "-bench", "lud"); second != first {
		t.Fatal("two dumps of lud differ")
	}
	seen := map[string]int{}
	last := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(first))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "region ") {
			clear(last)
			continue
		}
		m := annotation.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		gi, _ := strconv.Atoi(m[2])
		if prev, ok := last[m[1]]; ok && gi <= prev {
			t.Fatalf("%s @%d follows @%d in one region: %q", m[1], gi, prev, line)
		}
		last[m[1]] = gi
		seen[m[1]]++
	}
	if seen["erase"] < 2 || seen["evict"] < 2 {
		t.Fatalf("dump has %d erase and %d evict lines; the order check needs several", seen["erase"], seen["evict"])
	}
}
