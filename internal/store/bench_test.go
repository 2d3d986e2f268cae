package store

import (
	"bytes"
	"fmt"
	"testing"
)

// benchStore is the shape serve_warm reads: Figure 16's 105 keys, about
// 1.6 KB of payload each.
func benchStore(b *testing.B) (string, []Key) {
	b.Helper()
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	payload := append(append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), 1600)...), `"}`...)
	keys := make([]Key, 105)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("bench%03d", i))
		if err := s.Put(keys[i], payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	return dir, keys
}

// BenchmarkGetHit is one warm Get: read, verify, stamp.
func BenchmarkGetHit(b *testing.B) {
	dir, keys := benchStore(b)
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.Get(keys[i%len(keys)]); !ok || err != nil {
			b.Fatalf("Get = ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkOpen105 is a warm boot: the tmp sweep and the open-time GC
// walk over 105 entries.
func BenchmarkOpen105(b *testing.B) {
	dir, _ := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Open(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncClean is the Sync at the end of a lifetime that only read.
func BenchmarkSyncClean(b *testing.B) {
	dir, keys := benchStore(b)
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, ok, err := s.Get(keys[0]); !ok || err != nil {
		b.Fatalf("Get = ok=%v err=%v", ok, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
