package store

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/faults"
)

// Tests of the read path's recycled buffer: View, and Get on top of it.

// padPayload is a JSON payload of n+10 bytes.
func padPayload(n int) []byte {
	return append(append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), n)...), `"}`...)
}

// viewOnce reads k through View and returns a copy of what fn was shown,
// failing the test if fn ran on a miss or more than once on a hit.
func viewOnce(t *testing.T, s *Store, k Key) ([]byte, bool) {
	t.Helper()
	var got []byte
	calls := 0
	ok, err := s.View(k, func(p []byte) { calls++; got = bytes.Clone(p) })
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if want := map[bool]int{true: 1, false: 0}[ok]; calls != want {
		t.Fatalf("View = ok %v with fn called %d times", ok, calls)
	}
	return got, ok
}

// TestViewReadsEntriesOfAnySize: entries from a few bytes to past the
// pool's 64 KB rule, one exactly the buffer's starting capacity, read back
// whole through View and Get, in an order that hands each read a buffer a
// larger or smaller one left behind.
func TestViewReadsEntriesOfAnySize(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	canon, err := testKey("size0").Canonical()
	if err != nil {
		t.Fatal(err)
	}
	exact := 4<<10 - len(appendEntry(nil, canon, padPayload(0)))
	sizes := []int{0, exact, 9 << 10, 70 << 10, 100, exact + 1}
	for round := 0; round < 2; round++ {
		for i, n := range sizes {
			k := testKey(fmt.Sprint("size", i))
			want := padPayload(n)
			if round == 0 {
				if err := s.Put(k, want); err != nil {
					t.Fatal(err)
				}
			}
			if got, ok := viewOnce(t, s, k); !ok || !bytes.Equal(got, want) {
				t.Fatalf("View of a %d-byte payload: ok=%v, %d bytes back", len(want), ok, len(got))
			}
			if got, ok, err := s.Get(k); !ok || err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get of a %d-byte payload: ok=%v err=%v, %d bytes back", len(want), ok, err, len(got))
			}
		}
	}
	if entry := len(appendEntry(nil, canon, padPayload(exact))); entry != 4<<10 {
		t.Fatalf("the exact case is a %d-byte entry, want the buffer's 4096", entry)
	}
	if n, err := s.Verify(); err != nil || n != len(sizes) {
		t.Fatalf("Verify = %d, %v", n, err)
	}
}

// TestGetPayloadIsACopy: what Get returns is the caller's own. Changing it
// changes no later read, and no later read (into the buffer it was read
// through) changes it.
func TestGetPayloadIsACopy(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	a, b := testKey("a"), testKey("b")
	pa, pb := padPayload(1600), []byte(`{"b":true}`)
	for k, p := range map[Key][]byte{a: pa, b: pb} {
		if err := s.Put(k, p); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := s.Get(a)
	if !ok || err != nil {
		t.Fatalf("Get = ok=%v err=%v", ok, err)
	}
	if _, ok, _ := s.Get(b); !ok {
		t.Fatal("Get of the second key missed")
	}
	if !bytes.Equal(got, pa) {
		t.Fatal("a later read changed an earlier Get's payload")
	}
	for i := range got {
		got[i] = '!'
	}
	if again, ok, err := s.Get(a); !ok || err != nil || !bytes.Equal(again, pa) {
		t.Fatalf("after the caller wrote over its payload, Get = ok=%v err=%v, payload changed: %v", ok, err, !bytes.Equal(again, pa))
	}
}

// TestOversizeBufferLeavesThePool: a buffer one large entry grew past 64 KB
// is dropped, not kept for the 2 KB reads that follow (putBody's rule for
// request bodies). On one P the pool hands back what was last put first,
// so a kept buffer would be the next one drawn.
func TestOversizeBufferLeavesThePool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := mustOpen(t, t.TempDir())
	k := testKey("big")
	if err := s.Put(k, padPayload(100<<10)); err != nil {
		t.Fatal(err)
	}
	if _, ok := viewOnce(t, s, k); !ok {
		t.Fatal("View of the large entry missed")
	}
	for i := 0; i < 4; i++ {
		if b := entryBufs.Get().(*[]byte); cap(*b) > 64<<10 {
			t.Fatalf("the pool kept a %d-byte buffer", cap(*b))
		}
	}
}

// TestDamagedEntriesQuarantinedThroughView: truncated, zero-length,
// bit-flipped and chaos-corrupted files, each larger than the buffer's
// starting capacity, are misses that never reach fn, leave the serving
// tree for quarantine/, and leave nothing in the buffer that the next read
// (of an intact entry) would see.
func TestDamagedEntriesQuarantinedThroughView(t *testing.T) {
	damage := map[string]func(raw []byte) []byte{
		"truncated":   func(raw []byte) []byte { return raw[:len(raw)-1] },
		"half":        func(raw []byte) []byte { return raw[:len(raw)/2] },
		"empty":       func(raw []byte) []byte { return nil },
		"flipped":     func(raw []byte) []byte { raw[len(raw)-100] ^= 0x01; return raw },
		"chaos":       nil, // store-corrupt flips a byte of what the read returned
		"extra bytes": func(raw []byte) []byte { return append(raw, '\n') },
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			var opts Options
			if corrupt == nil {
				plan, err := faults.Parse("store-corrupt@3") // ops: Put, Put, View
				if err != nil {
					t.Fatal(err)
				}
				opts.Chaos = faults.NewInjector(plan)
			}
			s := mustOpenWith(t, t.TempDir(), opts)
			k, good := testKey("damaged"), testKey("intact")
			payload := padPayload(6 << 10)
			for _, k := range []Key{k, good} {
				if err := s.Put(k, payload); err != nil {
					t.Fatal(err)
				}
			}
			path := entryPath(t, s, k)
			if corrupt != nil {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok := viewOnce(t, s, k); ok {
				t.Fatal("a damaged entry was served")
			}
			if st := s.Stats(); st.Quarantined != 1 || st.Misses != 1 {
				t.Fatalf("stats = %+v, want 1 quarantined miss", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("the damaged entry is still at its serving path (%v)", err)
			}
			if got, ok := viewOnce(t, s, good); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("the intact entry read after it: ok=%v, equal=%v", ok, bytes.Equal(got, payload))
			}
		})
	}
}
