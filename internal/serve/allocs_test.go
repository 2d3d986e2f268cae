package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/allocs"
	"repro/internal/obs"
)

// TestAllocations holds the service's heap paths to testdata/allocs.txt,
// each through the whole handler stack on one server:
//   - a job-map hit: the request-id header value;
//   - a disk hit: the job with its context and trace, the pool hand-off,
//     and the reply built around the payload in the store's recycled
//     buffer;
//   - the first admission of a compact body: the id, and the memo entry
//     that remembers it;
//   - a whole miss, the simulation included: a disk hit's objects, the
//     trace grown once for the run's spans and the context the run is
//     traced under;
//   - one span more on the trace a finished miss or disk hit leaves,
//     which must allocate: each kind's trace is sized to exactly its
//     spans (TestTraceSizedPerJobKind counts them).
func TestAllocations(t *testing.T) { measurePaths(t, allocs.Open(t)) }

// The tests below each hold one of the paths to its row.

func TestMemHitAllocations(t *testing.T) { measurePaths(t, allocs.Open(t, "hit/job-map")) }

func TestDiskHitAllocations(t *testing.T) { measurePaths(t, allocs.Open(t, "hit/disk")) }

func TestFirstAdmissionAllocations(t *testing.T) { measurePaths(t, allocs.Open(t, "admit/first")) }

func TestMissAllocations(t *testing.T) { measurePaths(t, allocs.Open(t, "miss")) }

// measurePaths measures every path l holds.
func measurePaths(t *testing.T, l *allocs.Ledger) {
	dir := t.TempDir()
	s := newTestServer(t, dir, testOpts())
	defer s.Close()
	fire := hitLoop(t, s)
	l.Measure("hit/job-map", allocs.Op{Calls: 200, Do: fire})

	diskHit := diskHitLoop(fire, s)
	hits := s.Store().Stats().Hits
	_, calls := l.Measure("hit/disk", allocs.Op{Calls: 200, Do: diskHit})
	if n := s.Store().Stats().Hits - hits; calls != nil && n < 200 {
		t.Fatalf("store served %d hits: the loop is not reading the disk", n)
	}

	body := []byte(`{"bench":"b+tree","scheme":"regless","capacity":256}`)
	l.Measure("admit/first", allocs.Op{
		Calls: 200,
		Prepare: func() {
			s.memoMu.Lock()
			clear(s.memo)
			s.memoMu.Unlock()
		},
		Do: func() {
			if _, err := s.admitRun(body); err != nil {
				t.Fatal(err)
			}
		},
	})

	// Before each miss the job map forgets the job and the store its entry.
	unstore := func() {
		s.mu.Lock()
		clear(s.jobs)
		s.mu.Unlock()
		entries, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
		if err != nil || len(entries) != 1 {
			t.Fatalf("store holds %d entries (%v), want the one the miss wrote", len(entries), err)
		}
		if err := os.Remove(entries[0]); err != nil {
			t.Fatal(err)
		}
	}
	misses := s.Store().Stats().Misses
	_, calls = l.Measure("miss", allocs.Op{Calls: 20, Prepare: unstore, Do: fire})
	if n := s.Store().Stats().Misses - misses; calls != nil && n < 20 {
		t.Fatalf("store saw %d misses: the loop is not simulating", n)
	}

	var tr *obs.Trace
	oneMore := func() { tr.Start(obs.Root, "one more") }
	l.Measure("trace/after-miss", allocs.Op{
		Calls:   5,
		Prepare: func() { unstore(); fire(); tr = theJob(t, s).trace },
		Do:      oneMore,
	})
	l.Measure("trace/after-disk-hit", allocs.Op{
		Calls:   5,
		Prepare: func() { diskHit(); tr = theJob(t, s).trace },
		Do:      oneMore,
	})
}
