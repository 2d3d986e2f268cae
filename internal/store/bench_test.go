package store

import (
	"bytes"
	"crypto/sha256"
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
	keys := make([]Key, 105)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("bench%03d", i))
		if err := s.Put(keys[i], benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	return dir, keys
}

// benchPayload is about what a suite run stores.
var benchPayload = append(append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), 1600)...), `"}`...)

// fillShards puts one entry into each of the 256 shards, so that every
// later Put lands in a directory the store has already made.
func fillShards(tb testing.TB, s *Store) {
	tb.Helper()
	var seen [256]bool
	for i, n := 0, 0; n < len(seen); i++ {
		k := testKey(fmt.Sprintf("shard%d", i))
		canon, err := k.Canonical()
		if err != nil {
			tb.Fatal(err)
		}
		if sh := sha256.Sum256(canon); !seen[sh[0]] {
			seen[sh[0]] = true
			n++
			if err := s.Put(k, benchPayload); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// freshKeys are n keys no store of these tests has seen.
func freshKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("fresh%d", i))
	}
	return keys
}

// BenchmarkPutFresh is one Put of a key never stored before into a shard
// the store has made: what each serve_cold miss writes.
func BenchmarkPutFresh(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	fillShards(b, s)
	keys := freshKeys(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for _, k := range keys {
		if err := s.Put(k, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkJSONValue is the payload check every Get hit and every Put make,
// on a served payload: the store's one pass, and the encoding/json
// predicate it stands for.
func BenchmarkJSONValue(b *testing.B) {
	p := servedPayload(b)
	for _, check := range []struct {
		name  string
		valid func([]byte) bool
	}{{"scan", isJSONValue}, {"encoding-json", validJSONValue}} {
		b.Run(check.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(p)))
			for i := 0; i < b.N; i++ {
				if !check.valid(p) {
					b.Fatal("the served payload is not one JSON value")
				}
			}
		})
	}
}
