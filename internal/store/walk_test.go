package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// walked is what a walk knows of one entry file.
type walked struct {
	size, mtime int64
}

// referenceWalk is what the store's walk must visit, found with the os
// package: every <name>.json file in a directory of the store's directory
// other than tmp/ and quarantine/, keyed by <shard>/<name>.
func referenceWalk(t *testing.T, dir string) map[string]walked {
	t.Helper()
	want := map[string]walked{}
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		parts := strings.Split(rel, string(filepath.Separator))
		if d.IsDir() && (rel == "tmp" || rel == "quarantine") {
			return filepath.SkipDir
		}
		if len(parts) != 2 || d.IsDir() || !strings.HasSuffix(parts[1], ".json") {
			return nil
		}
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		want[rel] = walked{fi.Size(), fi.ModTime().UnixNano()}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// storeWalk is what the store's walk visits, statted through the shard it
// hands over.
func storeWalk(t *testing.T, s *Store) map[string]walked {
	t.Helper()
	got := map[string]walked{}
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.walkLocked(func(sh handle, shard, name []byte) error {
		size, mtime, err := sh.stat(name)
		if err != nil {
			return err
		}
		key := cstr(shard) + "/" + cstr(name)
		if _, dup := got[key]; dup {
			return fmt.Errorf("%s visited twice", key)
		}
		got[key] = walked{size, mtime}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func writeFile(t *testing.T, path, body string, mtime time.Time) {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

// TestWalkMatchesReference: on a store salted with everything a walk must
// step over, the walk visits exactly the entry files, with the size and
// mtime an os.Stat of each reads, and sweeps the access-time sidecars. One
// shard holds more entries than one directory-read buffer, so names are
// parsed across refills of it.
func TestWalkMatchesReference(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keys := putN(t, s, 24, padPayload(100))
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, k := range keys {
		at := base.Add(time.Duration(i) * time.Second)
		if err := os.Chtimes(entryPath(t, s, k), at, at); err != nil {
			t.Fatal(err)
		}
		side := strings.TrimSuffix(entryPath(t, s, k), ".json") + ".atime"
		writeFile(t, side, "1767225600000000000", at)
	}

	// A crowded shard: more names than one buffer of nameBufs holds.
	crowd := filepath.Dir(entryPath(t, s, keys[0]))
	const crowded = 300
	for i := 0; i < crowded; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprint("crowd", i)))
		name := filepath.Base(crowd) + hex.EncodeToString(sum[1:]) + ".json"
		writeFile(t, filepath.Join(crowd, name), strings.Repeat("c", i), base.Add(time.Duration(i)*time.Minute))
	}
	b := nameBufs.Get().(*[]byte)
	if room := cap(*b); crowded*sha256.Size*2 <= room {
		t.Fatalf("%d names fit one %d-byte buffer", crowded, room)
	}
	nameBufs.Put(b)

	// What the walk steps over: partial tmp files, quarantine corpses, a
	// file in a shard that is not an entry, and a file at the top that is
	// named like a shard (and like an entry).
	writeFile(t, filepath.Join(dir, "tmp", "ab.json.123"), "partial", base)
	writeFile(t, filepath.Join(dir, "tmp", "ab.json"), "named like an entry", base)
	writeFile(t, filepath.Join(dir, "quarantine", "cd.json"), "corpse", time.Now()) // inside its day
	writeFile(t, filepath.Join(crowd, "README"), "x", base)
	for i := 0; i < 256; i++ {
		shard := fmt.Sprintf("%02x", i)
		if _, err := os.Stat(filepath.Join(dir, shard)); os.IsNotExist(err) {
			writeFile(t, filepath.Join(dir, shard), "not a shard", base)
			writeFile(t, filepath.Join(dir, shard+".json"), "not in a shard", base)
			break
		}
	}

	want := referenceWalk(t, dir)
	if len(want) != len(keys)+crowded {
		t.Fatalf("the reference finds %d entries, want %d", len(want), len(keys)+crowded)
	}
	if got := storeWalk(t, s); !reflect.DeepEqual(got, want) {
		t.Errorf("the walk visits %d entries, the reference %d", len(got), len(want))
		for k, w := range want {
			if g, ok := got[k]; !ok || g != w {
				t.Errorf("%s: walk %+v (visited %v), reference %+v", k, g, ok, w)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok {
				t.Errorf("%s: visited, not in the reference", k)
			}
		}
	}
	var sidecars []string
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(p, ".atime") {
			sidecars = append(sidecars, p)
		}
		return err
	})
	if len(sidecars) > 0 {
		t.Errorf("the walk left %d sidecars: %v", len(sidecars), sidecars)
	}

	// GC's byte total is the reference's, and what it stepped over stays.
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, w := range want {
		total += w.size
	}
	if s.Bytes() != total {
		t.Errorf("GC counts %d bytes, the reference %d", s.Bytes(), total)
	}
	if got := referenceWalk(t, dir); !reflect.DeepEqual(got, want) {
		t.Errorf("GC under no budget changed the entries: %d now, %d before", len(got), len(want))
	}
	for _, p := range []string{filepath.Join(dir, "tmp", "ab.json"), filepath.Join(dir, "quarantine", "cd.json"), filepath.Join(crowd, "README")} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("the walk removed %s: %v", p, err)
		}
	}
}
