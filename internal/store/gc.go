package store

import (
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"time"

	"repro/internal/faults"
)

// Options configure resource limits and test hooks for a store. The zero
// value means: unbounded growth, wall clock, no chaos.
type Options struct {
	// MaxBytes is the size budget for entry files. When a Put pushes the
	// store past it, a GC pass evicts least-recently-used entries until
	// the store fits again. Zero or negative disables eviction.
	MaxBytes int64
	// Now substitutes the clock used for access-time stamps and
	// quarantine aging. Nil means time.Now.
	Now func() time.Time
	// Chaos, when non-nil, injects serve-level faults (disk-full,
	// slow-disk, store-corrupt, clock-skew) into store operations. Each
	// Get or Put consumes one operation number, so a spec like
	// "disk-full@2" arms against the second store operation.
	Chaos *faults.Injector
}

func (s *Store) now() time.Time {
	if s.opts.Now != nil {
		return s.opts.Now()
	}
	return time.Now()
}

// touch stamps an access on the entry open as f, its own mtime (one atomic
// inode update, best effort), moved into the past by any armed clock-skew
// fault so the entry ages early.
func (s *Store) touch(f handle, op uint64) {
	now := s.now().Add(-time.Duration(s.opts.Chaos.ClockSkewSeconds(op)) * time.Second)
	_ = f.stamp(now.UnixNano())
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

// gcCandidate is one entry considered for eviction: its shard's name and
// its own, its size and its mtime.
type gcCandidate struct {
	shard, name string
	size, mtime int64
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

	var total int64
	err := s.walkLocked(func(sh handle, _, name []byte) error {
		if size, _, err := sh.stat(name); err == nil { // a vanished entry just drops out
			total += size
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	evicted := 0
	if s.opts.MaxBytes > 0 && total > s.opts.MaxBytes {
		if evicted, total, err = s.evictLocked(); err != nil {
			return 0, err
		}
	}
	s.bytes.Store(total)
	s.ageQuarantineLocked()
	return evicted, nil
}

// evictLocked is GC over budget: a second walk collects every entry, and
// the least recently used (oldest mtime; equal stamps in shard, then hash,
// order) are removed until the rest fit. It returns how many it removed and
// the bytes left. An entry already gone leaves the total but is not counted
// as an eviction. Caller holds mu as a writer.
func (s *Store) evictLocked() (evicted int, total int64, err error) {
	var cands []gcCandidate
	err = s.walkLocked(func(sh handle, shard, name []byte) error {
		if size, mtime, err := sh.stat(name); err == nil {
			total += size
			cands = append(cands, gcCandidate{shard: cstr(shard), name: cstr(name), size: size, mtime: mtime})
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.mtime != b.mtime {
			return a.mtime < b.mtime
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.name < b.name
	})
	for _, c := range cands {
		if total <= s.opts.MaxBytes {
			break
		}
		var pb [pathBuf]byte
		switch err := cwd.unlink(s.appendPath(pb[:0], []byte(c.shard), []byte(c.name))); {
		case err == nil:
			s.dirty.Store(true)
			total -= c.size
			evicted++
			s.evictions.Add(1)
		case errors.Is(err, fs.ErrNotExist):
			total -= c.size
		}
	}
	return evicted, total, nil
}

// ageQuarantineLocked removes quarantine corpses kept for inspection
// longer than a day. Caller holds mu.
func (s *Store) ageQuarantineLocked() {
	cutoff := s.now().Add(-24 * time.Hour).UnixNano()
	_ = s.eachIn(quarantineName, func(q handle, name []byte) error {
		if _, mtime, err := q.stat(name); err == nil && mtime < cutoff {
			_ = q.unlink(name) // a corpse left behind is aged at the next GC
		}
		return nil
	}) // best effort: quarantine/ holds nothing served
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
	for _, sub := range [][]byte{nil, tmpName, quarantineName} {
		var pb [pathBuf]byte
		path := s.appendPath(pb[:0], sub)
		d, err := openAt(cwd, path, dirFlags, 0)
		if err != nil {
			return fmt.Errorf("store: open %s: %w", cstr(path), err)
		}
		err = d.sync()
		d.close()
		if err != nil {
			return fmt.Errorf("store: sync %s: %w", cstr(path), err)
		}
	}
	err := s.eachShard(func(sh handle, shard []byte) error {
		if err := sh.sync(); err != nil {
			return fmt.Errorf("store: sync %s/%s: %w", s.dir, cstr(shard), err)
		}
		return nil
	})
	if err != nil {
		return err
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
