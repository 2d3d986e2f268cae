// Package allocs is the allocation ledger: what each named heap path of a
// package allocates per operation, read by the package's TestAllocations
// and held to the rows of its testdata/allocs.txt — objects exactly, bytes
// to within Slack. A path without a row fails, and so does a row no path
// measures. -update rewrites the file from what was read, so a number
// that moves is a diff:
//
//	go test ./internal/serve -run '^TestAllocations$' -update
//
// Only tests import it.
package allocs

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// Update rewrites the package's ledger from the readings; golden tests
// that share a test binary with a ledger read it too.
var Update = flag.Bool("update", false, "rewrite testdata/allocs.txt (and golden files) from what the tests read")

// Slack is how far a byte reading may stray from its row. Objects repeat
// exactly, and bytes to the byte on every path but a whole serve miss,
// which moves by a few dozen.
const Slack = 64

const file = "testdata/allocs.txt"

const header = `# Heap objects and bytes per operation of each path TestAllocations
# measures (repro/internal/allocs): objects must match exactly, bytes to
# within %d. Rewrite: go test <package> -run '^TestAllocations$' -update
`

// A Reading is what the heap gave: objects and bytes.
type Reading struct{ Objects, Bytes uint64 }

func (r Reading) matches(row Reading) bool {
	return r.Objects == row.Objects && max(r.Bytes, row.Bytes)-min(r.Bytes, row.Bytes) <= Slack
}

// An Op is what Measure calls.
type Op struct {
	Calls   int    // measured calls, after one warm-up call
	Per     int    // operations one call performs; 0 is 1
	Prepare func() // runs before every call, outside the reading; may be nil
	Do      func()
}

// A Ledger is one package's rows and what its test has read.
type Ledger struct {
	t    *testing.T
	only map[string]bool    // the paths a partial ledger measures; nil is all
	rows map[string]Reading // the file's rows no path has measured yet
	out  []string           // the rows -update writes, in the order measured
}

// Open skips t where readings are not the program's — under the race
// detector, whose instrumentation changes what allocates, and off
// linux/amd64 and linux/arm64, whose size classes and system calls the
// rows were read with — and otherwise reads the package's ledger.
// Whatever a path needs is built after Open returns.
//
// Opened with paths, the ledger is partial: it holds only their rows, each
// of which must be measured, and Measure passes over every other path.
// Only the whole ledger checks that each row has a path, and only it
// rewrites the file.
func Open(t *testing.T, paths ...string) *Ledger {
	t.Helper()
	if raceBuild {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	if runtime.GOOS != "linux" || (runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64") {
		t.Skipf("the ledger holds linux/amd64 and linux/arm64 readings, not %s/%s's", runtime.GOOS, runtime.GOARCH)
	}
	l := &Ledger{t: t, rows: map[string]Reading{}}
	raw, err := os.ReadFile(file)
	if err != nil && !(*Update && errors.Is(err, fs.ErrNotExist)) {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var r Reading
		if _, err := fmt.Sscan(line, &name, &r.Objects, &r.Bytes); err != nil || len(strings.Fields(line)) != 3 {
			t.Fatalf("%s:%d: %q is not `path objects bytes`", file, i+1, line)
		}
		if _, dup := l.rows[name]; dup {
			t.Fatalf("%s:%d: a second row for %s", file, i+1, name)
		}
		l.rows[name] = r
	}
	if len(paths) > 0 {
		l.only = map[string]bool{}
		for _, name := range paths {
			l.only[name] = true
			if _, ok := l.rows[name]; !ok && !*Update {
				t.Errorf("%s has no row for %s", file, name)
			}
		}
		for name := range l.rows {
			if !l.only[name] {
				delete(l.rows, name)
			}
		}
	}
	t.Cleanup(l.close)
	return l
}

// Measure reads op on one P: one warm-up call, then op.Calls measured
// ones, each after op.Prepare. It holds the mean per operation to the
// path's row and returns it, with each measured call's totals. A partial
// ledger that does not hold the path calls nothing and returns no totals.
func (l *Ledger) Measure(name string, op Op) (Reading, []Reading) {
	t := l.t
	t.Helper()
	if l.only != nil && !l.only[name] {
		return Reading{}, nil
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	calls := make([]Reading, op.Calls)
	var sum Reading
	var m0, m1 runtime.MemStats
	for i := -1; i < op.Calls; i++ {
		if op.Prepare != nil {
			op.Prepare()
		}
		runtime.ReadMemStats(&m0)
		op.Do()
		runtime.ReadMemStats(&m1)
		if i >= 0 {
			calls[i] = Reading{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}
			sum.Objects += calls[i].Objects
			sum.Bytes += calls[i].Bytes
		}
	}
	n := uint64(op.Calls * max(op.Per, 1))
	got := Reading{sum.Objects / n, sum.Bytes / n}
	row, ok := l.rows[name]
	delete(l.rows, name)
	keep := got
	switch {
	case ok && got.matches(row):
		keep = row // so that noise is no diff
	case *Update:
		t.Logf("%s: %+v, row was %+v", name, got, row)
	case !ok:
		t.Errorf("%s reads %d objects, %d B and has no row in %s (-update writes it)", name, got.Objects, got.Bytes, file)
	default:
		t.Errorf("%s reads %d objects, %d B; its row says %d objects, %d B (objects exactly, bytes to within %d)",
			name, got.Objects, got.Bytes, row.Objects, row.Bytes, Slack)
	}
	l.out = append(l.out, fmt.Sprintf("%-36s %4d %6d\n", name, keep.Objects, keep.Bytes))
	return got, calls
}

// close fails every row no path measured or, under -update, rewrites the
// file from a whole ledger.
func (l *Ledger) close() {
	t := l.t
	if t.Failed() || t.Skipped() || (*Update && l.only != nil) {
		return
	}
	if !*Update {
		for name := range l.rows {
			t.Errorf("%s has a row for %s, which no path measures", file, name)
		}
		return
	}
	text := fmt.Sprintf(header, Slack) + strings.Join(l.out, "")
	err := os.MkdirAll(filepath.Dir(file), 0o755)
	if err == nil {
		err = os.WriteFile(file, []byte(text), 0o644)
	}
	if err != nil {
		t.Error(err)
	}
}

// LiveHeap is the heap in use once everything unreachable is collected.
func LiveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
