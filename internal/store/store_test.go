package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testKey builds a valid key whose kernel hash is derived from the bench
// name, so distinct benches get distinct addresses.
func testKey(bench string) Key {
	sum := sha256.Sum256([]byte("kernel:" + bench))
	return Key{
		KernelSHA: hex.EncodeToString(sum[:]),
		Bench:     bench,
		Scheme:    "regless",
		Capacity:  512,
		Warps:     8,
		SMs:       1,
		MaxCycles: 1000,
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func entryPath(t *testing.T, s *Store, k Key) string {
	t.Helper()
	canon, err := k.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return s.pathOf(canon)
}

func TestRoundTripAndWarmReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k := testKey("nw")
	payload := []byte(`{"cycles":1120,"ipc":0.96}`)

	if _, ok, err := s.Get(k); err != nil || ok {
		t.Fatalf("Get on empty store = ok=%v err=%v, want miss", ok, err)
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %s, want %s", got, payload)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 put", st)
	}

	// A fresh process over the same directory serves the same bytes: the
	// store is warm across restarts.
	s2 := mustOpen(t, dir)
	got2, ok, err := s2.Get(k)
	if err != nil || !ok {
		t.Fatalf("reopened Get = ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got2, payload) {
		t.Fatal("reopened store served different bytes")
	}
	if n, err := s2.Verify(); err != nil || n != 1 {
		t.Fatalf("Verify = %d, %v", n, err)
	}
}

func TestKeyNormalizationAliases(t *testing.T) {
	// Capacity folds to 0 for non-RegLess schemes, so two baseline keys
	// differing only in capacity share one address.
	a, b := testKey("nw"), testKey("nw")
	a.Scheme, b.Scheme = "baseline", "baseline"
	a.Capacity, b.Capacity = 256, 512
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Error("baseline keys with different capacities did not alias")
	}

	// For RegLess the capacity is load-bearing.
	c, d := testKey("nw"), testKey("nw")
	c.Capacity, d.Capacity = 256, 512
	hc, _ := c.Hash()
	hd, _ := d.Hash()
	if hc == hd {
		t.Error("regless keys with different capacities collided")
	}

	// SMs 0 and 1 both mean a chip of one SM.
	e, f := testKey("nw"), testKey("nw")
	e.SMs, f.SMs = 0, 1
	he, _ := e.Hash()
	hf, _ := f.Hash()
	if he != hf {
		t.Error("SMs 0 and 1 did not alias")
	}

	// A fault plan is load-bearing: instrumented runs never alias clean
	// entries.
	g := testKey("nw")
	g.Faults = "osu-tag@200; seed=3"
	hg, _ := g.Hash()
	if hg == ha || hg == hc {
		t.Error("fault-armed key aliased a clean key")
	}
}

func TestKeyValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Key)
	}{
		{"short sha", func(k *Key) { k.KernelSHA = "abc" }},
		{"uppercase sha", func(k *Key) { k.KernelSHA = strings.ToUpper(k.KernelSHA) }},
		{"empty bench", func(k *Key) { k.Bench = "" }},
		{"bench with slash", func(k *Key) { k.Bench = "../escape" }},
		{"empty scheme", func(k *Key) { k.Scheme = "" }},
		{"scheme with backslash", func(k *Key) { k.Scheme = `a\b` }},
		{"negative capacity", func(k *Key) { k.Capacity = -1 }},
		{"zero warps", func(k *Key) { k.Warps = 0 }},
		{"negative sms", func(k *Key) { k.SMs = -1 }},
		{"zero max cycles", func(k *Key) { k.MaxCycles = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := testKey("nw")
			c.mutate(&k)
			if err := k.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", k)
			}
			if _, err := k.Hash(); err == nil {
				t.Error("Hash minted an address for an invalid key")
			}
		})
	}
}

// TestCrashRecoverySweepsTemps simulates a process killed mid-write: the
// temp-file + rename discipline means the partial write only ever exists
// under tmp/, so Get never sees it, and reopening sweeps it.
func TestCrashRecoverySweepsTemps(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	k := testKey("nw")
	if err := s.Put(k, []byte(`{"good":true}`)); err != nil {
		t.Fatal(err)
	}

	// The "crash": a partial entry body stranded in tmp/, exactly what
	// Put leaves behind if the process dies between write and rename.
	k2 := testKey("bfs")
	h2, _ := k2.Hash()
	partial := []byte(`{"key":{"kernel_sha":"tru`) // torn mid-field
	if err := os.WriteFile(filepath.Join(dir, "tmp", h2+".123456"), partial, 0o644); err != nil {
		t.Fatal(err)
	}

	// The torn write is invisible to readers of the dying process...
	if _, ok, _ := s.Get(k2); ok {
		t.Fatal("partial tmp write was served")
	}
	// ...and Verify refuses to certify a store with partial files.
	if _, err := s.Verify(); err == nil {
		t.Fatal("Verify ignored a partial tmp file")
	}

	// Reopen (the restart): the partial file is swept and counted.
	s2 := mustOpen(t, dir)
	if st := s2.Stats(); st.RecoveredTemps != 1 {
		t.Fatalf("RecoveredTemps = %d, want 1", st.RecoveredTemps)
	}
	temps, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(temps) != 0 {
		t.Fatalf("%d tmp files survived reopen", len(temps))
	}

	// The intact entry still serves; the torn key misses and can be
	// recomputed.
	if _, ok, err := s2.Get(k); err != nil || !ok {
		t.Fatalf("intact entry lost after recovery: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := s2.Get(k2); ok {
		t.Fatal("torn key served after recovery")
	}
	if err := s2.Put(k2, []byte(`{"recomputed":true}`)); err != nil {
		t.Fatal(err)
	}
	if n, err := s2.Verify(); err != nil || n != 2 {
		t.Fatalf("Verify after recompute = %d, %v", n, err)
	}
}

// TestCorruptEntriesQuarantined covers the three corruption shapes Get
// must detect: truncation, payload bit-flips, and an entry sitting at an
// address its key does not hash to. Each is quarantined, reported as a
// miss, and recomputable.
func TestCorruptEntriesQuarantined(t *testing.T) {
	payload := []byte(`{"cycles":1120,"value":12345}`)

	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, s *Store, k Key)
	}{
		{"truncated", func(t *testing.T, s *Store, k Key) {
			p := entryPath(t, s, k)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"payload flip", func(t *testing.T, s *Store, k Key) {
			p := entryPath(t, s, k)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			// Flip one payload digit; the file stays valid JSON but the
			// checksum no longer matches.
			flipped := bytes.Replace(raw, []byte("12345"), []byte("12346"), 1)
			if bytes.Equal(flipped, raw) {
				t.Fatal("corruption did not apply")
			}
			if err := os.WriteFile(p, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"wrong address", func(t *testing.T, s *Store, k Key) {
			// Copy a valid entry for a *different* key to this key's
			// address: internally consistent, but the embedded key does
			// not hash to the file name.
			other := testKey("other-bench")
			if err := s.Put(other, []byte(`{"other":true}`)); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(entryPath(t, s, other))
			if err != nil {
				t.Fatal(err)
			}
			dst := entryPath(t, s, k)
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dst, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir)
			k := testKey("nw")
			if c.name != "wrong address" {
				if err := s.Put(k, payload); err != nil {
					t.Fatal(err)
				}
			}
			c.corrupt(t, s, k)

			before := s.Stats().Quarantined
			if _, ok, err := s.Get(k); err != nil || ok {
				t.Fatalf("corrupt entry served: ok=%v err=%v", ok, err)
			}
			if q := s.Stats().Quarantined; q != before+1 {
				t.Fatalf("Quarantined = %d, want %d", q, before+1)
			}
			// The entry left the serving tree for quarantine/.
			if _, err := os.Stat(entryPath(t, s, k)); !os.IsNotExist(err) {
				t.Fatal("corrupt entry still at its serving path")
			}
			qfiles, err := os.ReadDir(filepath.Join(dir, "quarantine"))
			if err != nil {
				t.Fatal(err)
			}
			if len(qfiles) == 0 {
				t.Fatal("nothing in quarantine/")
			}

			// Recompute path: a fresh Put serves again.
			if err := s.Put(k, payload); err != nil {
				t.Fatalf("recompute Put: %v", err)
			}
			got, ok, err := s.Get(k)
			if err != nil || !ok || !bytes.Equal(got, payload) {
				t.Fatalf("recomputed entry not served: ok=%v err=%v", ok, err)
			}
			if _, err := s.Verify(); err != nil {
				t.Fatalf("Verify after recompute: %v", err)
			}
		})
	}
}

func TestVerifyQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	var keys []Key
	for i := 0; i < 3; i++ {
		k := testKey(fmt.Sprintf("bench-%d", i))
		keys = append(keys, k)
		if err := s.Put(k, []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	// Tear one entry on disk.
	p := entryPath(t, s, keys[1])
	if err := os.WriteFile(p, []byte(`{"key":`), 0o644); err != nil {
		t.Fatal(err)
	}

	intact, err := s.Verify()
	if err == nil {
		t.Fatal("Verify certified a corrupt store")
	}
	if intact != 2 {
		t.Fatalf("intact = %d, want 2", intact)
	}
	// The sweep moved the bad entry aside; a second pass is clean.
	intact, err = s.Verify()
	if err != nil || intact != 2 {
		t.Fatalf("second Verify = %d, %v, want clean 2", intact, err)
	}
}

func TestPutRejectsEmptyPayload(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Put(testKey("nw"), nil); err == nil {
		t.Fatal("Put accepted an empty payload")
	}
	if err := s.Put(testKey("nw"), []byte{}); err == nil {
		t.Fatal("Put accepted a zero-length payload")
	}
}

func TestLenCountsEntries(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for i := 0; i < 4; i++ {
		if err := s.Put(testKey(fmt.Sprintf("b%d", i)), []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Len(); err != nil || n != 4 {
		t.Fatalf("Len = %d, %v, want 4", n, err)
	}
}
