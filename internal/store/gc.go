package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/faults"
)

// Options configure resource limits and test hooks for a store. The zero
// value means: unbounded growth, quarantine kept a day, wall clock, no
// chaos.
type Options struct {
	// MaxBytes is the size budget for entry files. When a Put pushes the
	// store past it, a GC pass evicts least-recently-used entries until
	// the store fits again. Zero or negative disables eviction.
	MaxBytes int64
	// QuarantineMaxAge bounds how long quarantined corpses are kept for
	// inspection; GC passes (and Open) remove older ones. Zero means
	// DefaultQuarantineMaxAge; negative keeps them forever.
	QuarantineMaxAge time.Duration
	// Now substitutes the clock used for access-time stamps and
	// quarantine aging. Nil means time.Now.
	Now func() time.Time
	// Chaos, when non-nil, injects serve-level faults (disk-full,
	// slow-disk, store-corrupt, clock-skew) into store operations. Each
	// Get or Put consumes one operation number, so a spec like
	// "disk-full@2" arms against the second store operation.
	Chaos *faults.Injector
}

// DefaultQuarantineMaxAge is how long quarantined entries survive when
// Options does not say otherwise.
const DefaultQuarantineMaxAge = 24 * time.Hour

func (s *Store) now() time.Time {
	if s.opts.Now != nil {
		return s.opts.Now()
	}
	return time.Now()
}

// touch stamps an access on the entry's own mtime (one atomic inode
// update, best effort), moved into the past by any armed clock-skew fault
// so the entry ages early.
func (s *Store) touch(path string, op uint64) {
	now := s.now().Add(-time.Duration(s.opts.Chaos.ClockSkewSeconds(op)) * time.Second)
	_ = os.Chtimes(path, now, now)
}

// Bytes returns the current entry-file byte total (tmp and quarantine excluded).
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// maybeGC runs a GC pass if the byte budget is exceeded. Called after
// Put releases its read lock, never while holding it.
func (s *Store) maybeGC() {
	if s.opts.MaxBytes <= 0 || s.bytes.Load() <= s.opts.MaxBytes {
		return
	}
	s.GC()
}

// gcCandidate is one entry considered for eviction.
type gcCandidate struct {
	path  string
	size  int64
	atime int64
}

// GC takes the writer lock (so it never races an in-flight Get or Put),
// re-derives the authoritative byte total from disk, evicts least-
// recently-used entries until the store fits its budget, and ages out
// old quarantine corpses. Returns the number of entries evicted.
func (s *Store) GC() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	defer func() {
		s.gcRuns.Add(1)
		s.gcMicros.Add(uint64(time.Since(start).Microseconds()))
	}()

	var cands []gcCandidate
	var total int64
	err := s.walkEntriesLocked(func(_, path string) error {
		fi, err := os.Stat(path)
		if err != nil {
			return nil // raced with nothing (we hold the lock); vanished entries just drop out
		}
		total += fi.Size()
		cands = append(cands, gcCandidate{path: path, size: fi.Size(), atime: fi.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return 0, err
	}

	evicted := 0
	if s.opts.MaxBytes > 0 && total > s.opts.MaxBytes {
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].atime != cands[j].atime {
				return cands[i].atime < cands[j].atime
			}
			return cands[i].path < cands[j].path // one dir, hash-named: hash order
		})
		for _, c := range cands {
			if total <= s.opts.MaxBytes {
				break
			}
			if rmErr := os.Remove(c.path); rmErr != nil && !os.IsNotExist(rmErr) {
				continue
			}
			s.dirty.Store(true)
			total -= c.size
			evicted++
			s.evictions.Add(1)
		}
	}
	s.bytes.Store(total)
	s.ageQuarantineLocked()
	return evicted, nil
}

// ageQuarantineLocked removes quarantine corpses older than the
// configured retention. Caller holds mu.
func (s *Store) ageQuarantineLocked() {
	maxAge := s.opts.QuarantineMaxAge
	if maxAge == 0 {
		maxAge = DefaultQuarantineMaxAge
	}
	if maxAge < 0 {
		return
	}
	cutoff := s.now().Add(-maxAge)
	files, err := os.ReadDir(s.quarantineDir())
	if err != nil {
		return
	}
	for _, f := range files {
		fi, err := f.Info()
		if err != nil {
			continue
		}
		if fi.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(s.quarantineDir(), f.Name()))
		}
	}
}

// Sync fsyncs the store's directories so every completed rename is
// durable. Called at drain; entry file contents were written before their
// rename, so syncing the directories pins the namespace. With no rename,
// quarantine or eviction since the last Sync (access stamps are inode
// metadata, best effort by contract) there is nothing to pin; otherwise
// the writer lock makes the cleared mark cover every change before it.
func (s *Store) Sync() error {
	if !s.dirty.Load() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dirs := []string{s.dir, s.tmpDir(), s.quarantineDir()}
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, sh := range shards {
		if sh.IsDir() && sh.Name() != "tmp" && sh.Name() != "quarantine" {
			dirs = append(dirs, filepath.Join(s.dir, sh.Name()))
		}
	}
	for _, d := range dirs {
		f, err := os.Open(d)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		serr := f.Sync()
		f.Close()
		if serr != nil {
			return fmt.Errorf("store: sync %s: %w", d, serr)
		}
	}
	s.dirty.Store(false)
	return nil
}

// chaosDelay sleeps out an armed slow-disk fault for this operation.
func (s *Store) chaosDelay(op uint64) {
	if ms := s.opts.Chaos.StoreDelayMillis(op); ms > 0 {
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}
}
