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

// putAllocCeiling is what a Put of a fresh key into a shard the store has
// made allocates, plus one: the entry's path, the tmp file's path and its
// two-object handle, and a NUL-terminated copy of a path for each of the
// open, the size read, the two ends of the rename and the mtime stamp (9
// objects; 13 with os.CreateTemp naming the tmp file, 20 when every Put
// also made its directory and read a FileInfo for the old size and another
// in the rename). It may only go down.
const putAllocCeiling = 10

// Those objects' bytes are seven copies of a path under the store's
// directory, putPathBytes per byte of its name, and up to putBytesCeiling
// beside them: the handle, the paths' fixed parts and what size classes
// round them up by came to 670–770 bytes over directories of 38 to 167
// bytes (936 bytes in all at 36; 2 072 with os.CreateTemp, the FileInfos
// and a directory made per Put). The bound keeps the entry buffer the pool
// recycles from coming back as an allocation.
const (
	putBytesCeiling = 800
	putPathBytes    = 7
)

func TestPutAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	s := mustOpen(t, t.TempDir())
	fillShards(t, s)
	keys := freshKeys(402)
	next := 0
	put := func() {
		if err := s.Put(keys[next], benchPayload); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if got := testing.AllocsPerRun(200, put); got > putAllocCeiling {
		t.Errorf("a fresh Put allocates %.0f objects, ceiling %d", got, putAllocCeiling)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	put()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for next < len(keys) {
		put()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / 200
	if ceiling := putBytesCeiling + putPathBytes*len(s.dir); got > float64(ceiling) {
		t.Errorf("a fresh Put allocates %.0f bytes, ceiling %d for a %d-byte directory", got, ceiling, len(s.dir))
	}
}
