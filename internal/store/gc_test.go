package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// fakeClock is a settable Options.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mustOpenWith(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatalf("OpenWith(%s): %v", dir, err)
	}
	return s
}

func putN(t *testing.T, s *Store, n int, payload []byte) []Key {
	t.Helper()
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("bench%02d", i))
		if err := s.Put(keys[i], payload); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	return keys
}

func TestGCEnforcesBudgetLRU(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	payload := []byte(`{"cycles":1120,"ipc":0.96}`)

	// Learn the per-entry file size, then budget for exactly three.
	probe := mustOpenWith(t, t.TempDir(), Options{Now: clk.Now})
	if err := probe.Put(testKey("bench99"), payload); err != nil {
		t.Fatal(err)
	}
	entrySize := probe.Bytes()
	if entrySize <= 0 {
		t.Fatalf("probe entry size = %d", entrySize)
	}

	s := mustOpenWith(t, dir, Options{MaxBytes: 3 * entrySize, Now: clk.Now})
	var keys []Key
	for i := 0; i < 3; i++ {
		k := testKey(fmt.Sprintf("bench%02d", i))
		keys = append(keys, k)
		clk.Advance(time.Second)
		if err := s.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if s.Bytes() != 3*entrySize {
		t.Fatalf("Bytes() = %d, want %d", s.Bytes(), 3*entrySize)
	}
	// Refresh bench00 so bench01 becomes the least recently used.
	clk.Advance(time.Second)
	if _, ok, _ := s.Get(keys[0]); !ok {
		t.Fatal("Get bench00 missed")
	}
	clk.Advance(time.Second)
	k3 := testKey("bench03")
	if err := s.Put(k3, payload); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() > 3*entrySize {
		t.Fatalf("Bytes() = %d over budget %d after GC", s.Bytes(), 3*entrySize)
	}
	if _, ok, _ := s.Get(keys[1]); ok {
		t.Error("LRU entry bench01 survived eviction")
	}
	for _, k := range []Key{keys[0], keys[2], k3} {
		if _, ok, _ := s.Get(k); !ok {
			t.Errorf("recently used entry %s evicted", k.Bench)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 || st.GCRuns == 0 {
		t.Errorf("stats = %+v, want 1 eviction and >0 gc runs", st)
	}
	// The consistency sweep still passes over the trimmed store.
	if n, err := s.Verify(); err != nil || n != 3 {
		t.Errorf("Verify = %d, %v", n, err)
	}
}

// TestGCOrdersByEntryMtime pins the LRU key: the entry's own mtime. A
// back-dated entry (a restore from backup keeps old mtimes) is the first
// evicted; entries with equal stamps go in hash order.
func TestGCOrdersByEntryMtime(t *testing.T) {
	clk := newFakeClock()
	payload := []byte(`{"cycles":7}`)
	s := mustOpenWith(t, t.TempDir(), Options{Now: clk.Now})
	keys := putN(t, s, 4, payload) // one fake-clock instant: four equal stamps
	entrySize := s.Bytes() / 4

	old := clk.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(entryPath(t, s, keys[2]), old, old); err != nil {
		t.Fatal(err)
	}
	s.opts.MaxBytes = s.Bytes() - 1 // force exactly one eviction
	if n, err := s.GC(); err != nil || n != 1 {
		t.Fatalf("GC = %d, %v, want 1 eviction", n, err)
	}
	if _, ok, _ := s.Get(keys[2]); ok {
		t.Error("back-dated entry survived; GC does not order by entry mtime")
	}

	// The three left carry equal stamps (the Get above missed, so it
	// stamped nothing): the smallest hash goes next.
	rest := []Key{keys[0], keys[1], keys[3]}
	first := rest[0]
	for _, k := range rest[1:] {
		if filepath.Base(entryPath(t, s, k)) < filepath.Base(entryPath(t, s, first)) {
			first = k
		}
	}
	s.opts.MaxBytes = 2 * entrySize
	if n, err := s.GC(); err != nil || n != 1 {
		t.Fatalf("second GC = %d, %v, want 1 eviction", n, err)
	}
	if _, err := os.Stat(entryPath(t, s, first)); !os.IsNotExist(err) {
		t.Errorf("equal stamps: entry %s with the smallest hash survived (stat err %v)", first.Bench, err)
	}
	if n, err := s.Len(); err != nil || n != 2 {
		t.Errorf("Len = %d, %v, want 2", n, err)
	}
}

// listing maps every file under root to its size.
func listing(t *testing.T, root string) map[string]int64 {
	t.Helper()
	files := map[string]int64{}
	err := filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			files[p] = fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestGetHitChangesNoDirectory pins the read side's contract: a hit
// creates, renames, resizes and removes nothing — its only trace on disk
// is the entry's own mtime, set to Options.Now.
func TestGetHitChangesNoDirectory(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s := mustOpenWith(t, dir, Options{Now: clk.Now})
	keys := putN(t, s, 6, []byte(`{"cycles":1120,"ipc":0.96}`))
	before := listing(t, dir)
	if len(before) != len(keys) {
		t.Fatalf("store of %d entries holds %d files: %v", len(keys), len(before), before)
	}

	clk.Advance(time.Hour)
	for rep := 0; rep < 3; rep++ {
		for _, k := range keys {
			if _, ok, err := s.Get(k); !ok || err != nil {
				t.Fatalf("Get %s = ok=%v err=%v", k.Bench, ok, err)
			}
		}
	}
	if after := listing(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("hits changed the store's files:\nbefore %v\nafter  %v", before, after)
	}
	for _, k := range keys {
		fi, err := os.Stat(entryPath(t, s, k))
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().Equal(clk.Now()) {
			t.Errorf("%s: mtime %v after a hit, want Options.Now() = %v", k.Bench, fi.ModTime(), clk.Now())
		}
	}
}

// TestOpenSweepsLegacySidecars: a store written by a binary that kept
// access times in <hash>.atime sidecars loses them at the first open;
// entries, their bytes and everything else stay.
func TestOpenSweepsLegacySidecars(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keys := putN(t, s, 3, []byte(`{"cycles":7}`))
	want := listing(t, dir)
	for _, k := range keys {
		side := strings.TrimSuffix(entryPath(t, s, k), ".json") + ".atime"
		if err := os.WriteFile(side, []byte("1767225600000000000"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Not a sidecar, not an entry: the sweep leaves it alone.
	note := filepath.Join(filepath.Dir(entryPath(t, s, keys[0])), "README")
	if err := os.WriteFile(note, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	want[note] = 1

	s2 := mustOpen(t, dir)
	if got := listing(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("after reopen:\ngot  %v\nwant %v", got, want)
	}
	if n, err := s2.Verify(); err != nil || n != len(keys) {
		t.Errorf("Verify = %d, %v", n, err)
	}
}

// TestSyncSkipsWhenClean: Sync has work only after a namespace change.
// Hits (mtime stamps) and misses leave the mark clear; a Put, a
// quarantine and an eviction each set it, and a Sync clears it.
func TestSyncSkipsWhenClean(t *testing.T) {
	s := mustOpenWith(t, t.TempDir(), Options{})
	if s.dirty.Load() {
		t.Error("fresh store is dirty")
	}
	payload := []byte(`{"cycles":7}`)
	settles := func(what string) {
		t.Helper()
		if !s.dirty.Load() {
			t.Errorf("%s left the store clean", what)
		}
		if err := s.Sync(); err != nil {
			t.Fatalf("Sync after %s: %v", what, err)
		}
		if s.dirty.Load() {
			t.Errorf("Sync after %s left the store dirty", what)
		}
	}

	keys := putN(t, s, 3, payload)
	settles("Put")

	for rep := 0; rep < 3; rep++ {
		for _, k := range keys {
			if _, ok, err := s.Get(k); !ok || err != nil {
				t.Fatalf("Get = ok=%v err=%v", ok, err)
			}
		}
	}
	if _, ok, _ := s.Get(testKey("absent")); ok {
		t.Fatal("Get of an absent key hit")
	}
	if s.dirty.Load() {
		t.Error("hits and a miss dirtied the store")
	}
	// A clean Sync must not touch the disk: it succeeds with the root gone.
	gone := s.dir
	s.dir = filepath.Join(gone, "no-such-dir")
	if err := s.Sync(); err != nil {
		t.Errorf("clean Sync did work: %v", err)
	}
	s.dir = gone

	if err := os.WriteFile(entryPath(t, s, keys[0]), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(keys[0]); ok || err != nil {
		t.Fatalf("Get corrupt = ok=%v err=%v", ok, err)
	}
	settles("quarantine")

	s.opts.MaxBytes = 1 // under any entry's size: GC evicts the two left
	if n, err := s.GC(); err != nil || n != 2 {
		t.Fatalf("GC = %d, %v, want 2 evictions", n, err)
	}
	settles("eviction")
}

func TestWarmRestartTrimsToSmallerBudget(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	payload := []byte(`{"cycles":7}`)
	s := mustOpenWith(t, dir, Options{Now: clk.Now})
	putN(t, s, 4, payload)
	total := s.Bytes()

	s2 := mustOpenWith(t, dir, Options{MaxBytes: total / 2, Now: clk.Now})
	if s2.Bytes() > total/2 {
		t.Fatalf("reopened store holds %d bytes, budget %d", s2.Bytes(), total/2)
	}
	if n, err := s2.Verify(); err != nil || n == 0 {
		t.Fatalf("Verify after trim = %d, %v", n, err)
	}
}

func TestQuarantineAging(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	s := mustOpenWith(t, dir, Options{Now: clk.Now})
	k := testKey("rot")
	if err := s.Put(k, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	// The entry sits untouched for two days — twice the day of retention —
	// and only then rots; the next Get quarantines it.
	clk.Advance(48 * time.Hour)
	p := entryPath(t, s, k)
	if err := os.WriteFile(p, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := clk.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(p, stale, stale); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("Get corrupt = ok=%v err=%v", ok, err)
	}
	qdir := filepath.Join(dir, "quarantine")
	corpses := func() int {
		ents, _ := os.ReadDir(qdir)
		return len(ents)
	}
	if corpses() != 1 {
		t.Fatalf("quarantine holds %d files, want 1", corpses())
	}
	// Retention counts from the quarantine, not from the entry's last
	// stamp: the corpse outlives a GC now and one just inside the window.
	for _, wait := range []time.Duration{0, 23*time.Hour + 59*time.Minute} {
		clk.Advance(wait)
		if _, err := s.GC(); err != nil {
			t.Fatal(err)
		}
		if corpses() != 1 {
			t.Fatalf("corpse of an old entry removed %v into its day of retention", wait)
		}
	}
	clk.Advance(2 * time.Minute)
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if corpses() != 0 {
		t.Fatalf("aged corpse not removed: %d files remain", corpses())
	}
}

// TestEvictionRacesGet drives GC (writer) against concurrent Gets and
// Puts (readers) on overlapping keys under -race. The invariant: every
// Get either hits with the exact original payload or misses cleanly —
// never an error, never torn bytes.
func TestEvictionRacesGet(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"cycles":1120,"ipc":0.96,"pad":"xxxxxxxxxxxxxxxx"}`)
	s := mustOpenWith(t, dir, Options{MaxBytes: 2048})
	keys := putN(t, s, 8, payload)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(g+i)%len(keys)]
				got, ok, err := s.Get(k)
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if ok && !bytes.Equal(got, payload) {
					t.Errorf("Get returned torn payload: %q", got)
					return
				}
				if !ok {
					if err := s.Put(k, payload); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.GC(); err != nil {
			t.Errorf("GC: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if s.Bytes() > 2048 {
		t.Errorf("store ended at %d bytes, budget 2048", s.Bytes())
	}
	if _, err := s.Verify(); err != nil {
		t.Errorf("Verify after race: %v", err)
	}
}

func TestChaosDiskFullAndCorrupt(t *testing.T) {
	plan, err := faults.Parse("disk-full@1; store-corrupt@3")
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpenWith(t, t.TempDir(), Options{Chaos: faults.NewInjector(plan)})
	k := testKey("chaos")
	payload := []byte(`{"x":1}`)
	// Op 1: injected disk-full — Put fails, nothing lands on disk.
	if err := s.Put(k, payload); err == nil {
		t.Fatal("Put under disk-full succeeded")
	}
	if n, err := s.Len(); err != nil || n != 0 {
		t.Fatalf("Len after failed Put = %d, %v", n, err)
	}
	// Op 2: clean retry.
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	// Op 3: injected read corruption — detected, quarantined, miss.
	if _, ok, err := s.Get(k); ok || err != nil {
		t.Fatalf("Get under store-corrupt = ok=%v err=%v, want clean miss", ok, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", st)
	}
	// The fault is one-shot: recompute, re-put, and the store is whole.
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok || !bytes.Equal(got, payload) {
		t.Fatalf("recovery Get = %q ok=%v err=%v", got, ok, err)
	}
}

func TestChaosClockSkewAgesEntry(t *testing.T) {
	clk := newFakeClock()
	plan, err := faults.Parse("clock-skew:skew=3600")
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpenWith(t, t.TempDir(), Options{Now: clk.Now, Chaos: faults.NewInjector(plan)})
	payload := []byte(`{"x":1}`)
	kSkew, kFresh := testKey("skewed"), testKey("fresh")
	if err := s.Put(kSkew, payload); err != nil { // op 1: atime skewed 1h back
		t.Fatal(err)
	}
	if err := s.Put(kFresh, payload); err != nil { // op 2: skew arm already spent
		t.Fatal(err)
	}
	s.opts.MaxBytes = s.Bytes() - 1
	if n, err := s.GC(); err != nil || n != 1 {
		t.Fatalf("GC = %d, %v", n, err)
	}
	if _, ok, _ := s.Get(kSkew); ok {
		t.Error("skewed entry survived; clock-skew did not age it")
	}
	if _, ok, _ := s.Get(kFresh); !ok {
		t.Error("fresh entry evicted instead of the skewed one")
	}
}

func TestSyncSucceeds(t *testing.T) {
	s := mustOpenWith(t, t.TempDir(), Options{})
	if err := s.Put(testKey("sync"), []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}
