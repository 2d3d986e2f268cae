package main

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// TestQuantilesAreExact holds the summary's quantiles to the sorted
// samples themselves: rank q*n of n, the last sample at most — no
// buckets, no interpolation, whatever the sample count.
func TestQuantilesAreExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for _, n := range []int{1, 2, 3, 20, 100, 101, 2000} {
		lat := make([]time.Duration, n)
		for i := range lat {
			lat[i] = time.Duration(rng.IntN(5_000_000)) * time.Microsecond
		}
		sorted := slices.Clone(lat)
		slices.Sort(sorted)
		var out bytes.Buffer
		printLatency(&out, lat) // sorts lat in place
		if !slices.Equal(lat, sorted) {
			t.Fatalf("n=%d: printLatency left the samples unsorted", n)
		}
		for _, c := range []struct {
			q    float64
			rank int
		}{{0.50, n / 2}, {0.95, n * 95 / 100}, {0.99, n * 99 / 100}, {1, n - 1}} {
			if got, want := quantile(lat, c.q), sorted[min(c.rank, n-1)]; got != want {
				t.Errorf("n=%d q=%.2f: %v, want sorted[%d] = %v", n, c.q, got, c.rank, want)
			}
			if !bytes.Contains(out.Bytes(), []byte(fmtMS(sorted[min(c.rank, n-1)]))) {
				t.Errorf("n=%d q=%.2f: summary lacks %s:\n%s", n, c.q, fmtMS(sorted[min(c.rank, n-1)]), &out)
			}
		}
	}
	var one bytes.Buffer
	printLatency(&one, []time.Duration{1500 * time.Microsecond})
	want := "  request latency (1 samples, mean 1.5ms):\n" +
		"    p50       1.5ms\n    p95       1.5ms\n    p99       1.5ms\n    max       1.5ms\n"
	if one.String() != want {
		t.Errorf("one sample:\n%q\nwant\n%q", one.String(), want)
	}
}
