package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/allocs"
)

// TestAllocations holds the store's heap paths to testdata/allocs.txt:
//   - a fresh Put into a made shard: its paths are built on the stack, its
//     file is a descriptor, its entry laid out in a recycled buffer;
//   - a Get hit: the payload copy Get keeps, and nothing for the path or
//     the descriptor that serves the read and the mtime stamp;
//   - a warm Open over 105 entries and over 420, which must read the same:
//     the walk holds no value per entry;
//   - the payload check a hit and a Put make, on a served payload: nothing.
func TestAllocations(t *testing.T) { measurePaths(t, allocs.Open(t)) }

// The tests below each hold one of the paths to its rows.

func TestPutAllocations(t *testing.T) { measurePaths(t, allocs.Open(t, "put/fresh")) }

func TestGetHitAllocations(t *testing.T) { measurePaths(t, allocs.Open(t, "get/hit")) }

func TestJSONValueAllocations(t *testing.T) { measurePaths(t, allocs.Open(t, "json/payload")) }

func TestOpenAllocationsIndependentOfEntries(t *testing.T) {
	measurePaths(t, allocs.Open(t, "open/105", "open/420"))
}

// measurePaths measures every path l holds.
func measurePaths(t *testing.T, l *allocs.Ledger) {
	s := mustOpen(t, t.TempDir())
	fillShards(t, s)
	keys := freshKeys(201)
	next := 0
	l.Measure("put/fresh", allocs.Op{Calls: 200, Do: func() {
		if err := s.Put(keys[next], benchPayload); err != nil {
			t.Fatal(err)
		}
		next++
	}})

	k := testKey("nw")
	if err := s.Put(k, benchPayload); err != nil {
		t.Fatal(err)
	}
	l.Measure("get/hit", allocs.Op{Calls: 200, Do: func() {
		if _, ok, err := s.Get(k); !ok || err != nil {
			t.Fatalf("Get = ok=%v err=%v", ok, err)
		}
	}})

	payload := servedPayload(t)
	l.Measure("json/payload", allocs.Op{Calls: 200, Do: func() {
		if !isJSONValue(payload) {
			t.Fatal("the served payload is not one JSON value")
		}
	}})

	var open [2]allocs.Reading
	for i, n := range []int{105, 420} {
		dir := fixedLengthDir(t, 160)
		s := mustOpen(t, dir)
		for _, k := range freshKeys(n) {
			if err := s.Put(k, benchPayload); err != nil {
				t.Fatal(err)
			}
		}
		open[i], _ = l.Measure(fmt.Sprintf("open/%d", n), allocs.Op{Calls: 20, Do: func() {
			if _, err := OpenWith(dir, Options{}); err != nil {
				t.Fatal(err)
			}
		}})
	}
	if open[0] != open[1] {
		t.Errorf("Open reads %+v over 105 entries, %+v over 420", open[0], open[1])
	}
}

// fixedLengthDir makes a directory whose path is n bytes long. The strings
// Open keeps are built from its directory, so its byte reading would
// otherwise move with the test's name and the temporary directory's
// random suffix.
func fixedLengthDir(t *testing.T, n int) string {
	base := t.TempDir()
	pad := n - len(base) - 1
	if pad < 1 {
		t.Fatalf("%s is too long for a %d-byte path", base, n)
	}
	dir := filepath.Join(base, strings.Repeat("d", pad))
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}
