package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
// flag, allocs.Update), after bumping ModelEpoch (see matchGolden):
//
//	go test ./internal/experiments -run 'TestSuiteGolden|TestClaimsOverGeneratedKernels' -update
func TestSuiteGolden(t *testing.T) {
	matchGolden(t, "suite_golden.txt", renderAll(t))
}

// blessedEpoch is testdata/model_epoch as this test binary found it,
// before any -update rewrote it.
var blessedEpoch = sync.OnceValue(func() string {
	b, _ := os.ReadFile(filepath.Join("testdata", "model_epoch"))
	return string(b)
})

// matchGolden holds got to testdata/name, failing at the first differing
// line; -update rewrites the file instead. Every golden it holds is a
// result, and moved results are a new model, which serve's store must not
// answer from the old one's entries. So testdata/model_epoch must read
// ModelEpoch, and -update refuses a moved golden until ModelEpoch is
// bumped past the epoch the goldens were blessed at, then rewrites the
// golden and the epoch. Re-bless every moved golden in one -update run:
// a later run reads the rewritten epoch and wants another bump.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	epoch := fmt.Sprintln(ModelEpoch)
	want, err := os.ReadFile(golden)
	if *allocs.Update {
		if err == nil && !bytes.Equal(got, want) && blessedEpoch() == epoch {
			t.Fatalf("results moved: bump experiments.ModelEpoch (%s differs)", golden)
		}
		if err := os.WriteFile(filepath.Join("testdata", "model_epoch"), []byte(epoch), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	if blessedEpoch() != epoch {
		t.Fatalf("testdata/model_epoch reads %q but ModelEpoch is %d: re-bless the goldens with -update", blessedEpoch(), ModelEpoch)
	}
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
