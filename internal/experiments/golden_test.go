package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/allocs"
)

// renderAll produces the canonical text of every table at Quick scale —
// the exact bytes `regless -experiment all` prints for these options.
func renderAll(t *testing.T) []byte {
	t.Helper()
	suite := NewSuite(Quick())
	tables, err := All(suite)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tb := range tables {
		buf.WriteString(tb.Render())
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestSuiteGolden locks the full rendered experiment suite against a
// checked-in transcript: any drift in simulation results, statistics
// plumbing, or table formatting fails with the first differing line. The
// metrics-registry refactor (and anything after it) must keep this output
// byte-identical; intentional changes re-bless with -update (the ledger's
// flag, allocs.Update):
//
//	go test ./internal/experiments -run TestSuiteGolden -update
func TestSuiteGolden(t *testing.T) {
	matchGolden(t, "suite_golden.txt", renderAll(t))
}

// matchGolden holds got to testdata/name, failing at the first differing
// line; -update rewrites the file instead.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *allocs.Update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("output diverges from %s at line %d:\n got: %q\nwant: %q\n(re-bless intentional changes with -update)",
				golden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output length changed: %d lines vs %d in %s (re-bless with -update)",
		len(gl), len(wl), golden)
}
