package store

import (
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// assertBytesMatchDisk holds the store's running byte total to the one a
// fresh Open derives by walking the directory.
func assertBytesMatchDisk(t *testing.T, s *Store, dir, after string) {
	t.Helper()
	if got, want := s.Bytes(), mustOpen(t, dir).Bytes(); got != want {
		t.Fatalf("after %s: Bytes() = %d, a fresh Open walks %d", after, got, want)
	}
}

// TestPutAfterShardRemoved: a shard directory removed under a live store
// (entries and all) is made again by the next Put into it, which succeeds
// and leaves a readable entry and a byte total that is the disk's.
func TestPutAfterShardRemoved(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k := testKey("nw")
	if err := s.Put(k, benchPayload); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Dir(entryPath(t, s, k))); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, benchPayload); err != nil {
		t.Fatalf("Put after its shard was removed: %v", err)
	}
	if got, ok, err := s.Get(k); !ok || err != nil || string(got) != string(benchPayload) {
		t.Fatalf("Get = ok=%v err=%v, want the payload put", ok, err)
	}
	assertBytesMatchDisk(t, s, dir, "a Put into a removed shard")
}

// TestBytesMatchDiskAfterEveryPut: the running byte total equals a fresh
// Open's walk after a fresh Put, an identical re-Put, a Put after its
// shard was removed, and eight goroutines putting one fresh key at once —
// each round of them must count the one entry that lands, once.
func TestBytesMatchDiskAfterEveryPut(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k := testKey("nw")
	if err := s.Put(k, benchPayload); err != nil {
		t.Fatal(err)
	}
	assertBytesMatchDisk(t, s, dir, "a fresh Put")
	if err := s.Put(k, benchPayload); err != nil {
		t.Fatal(err)
	}
	assertBytesMatchDisk(t, s, dir, "an identical re-Put")
	other := testKey("bfs")
	if err := s.Put(other, benchPayload); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Dir(entryPath(t, s, other))); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k, benchPayload); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(other, benchPayload); err != nil {
		t.Fatal(err)
	}
	assertBytesMatchDisk(t, s, dir, "a Put after its shard was removed")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, fresh := range freshKeys(32) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, 8)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[g] = s.Put(fresh, benchPayload)
			}()
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		assertBytesMatchDisk(t, s, dir, "8 concurrent Puts of one key")
	}
}
