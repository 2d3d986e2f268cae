package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.AtomicCounter("serve/hits")
	c.Add(7)
	g := uint64(3)
	r.Gauges(sampleFunc(func() uint64 { return g }), "serve/queue_depth")
	h := r.AtomicHistogram("serve/span_us", 10, 100)
	h.Observe(5)   // le_10
	h.Observe(50)  // le_100
	h.Observe(500) // inf

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r, "regless"); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := strings.Join([]string{
		"# TYPE regless_serve_hits_total counter",
		"regless_serve_hits_total 7",
		"# TYPE regless_serve_queue_depth gauge",
		"regless_serve_queue_depth 3",
		"# TYPE regless_serve_span_us histogram",
		`regless_serve_span_us_bucket{le="10"} 1`,
		`regless_serve_span_us_bucket{le="100"} 2`,
		`regless_serve_span_us_bucket{le="+Inf"} 3`,
		"regless_serve_span_us_sum 555",
		"regless_serve_span_us_count 3",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", got, want)
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil, "x"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry wrote %q", buf.String())
	}
}

func TestHistogramSumCell(t *testing.T) {
	r := NewRegistry()
	h := r.AtomicHistogram("lat", 1, 8)
	h.Observe(0)
	h.Observe(9)
	if v, ok := r.Value("lat/sum"); !ok || v != 9 {
		t.Fatalf("lat/sum = %d,%v want 9", v, ok)
	}
}

func TestAtomicHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.AtomicHistogram("load/latency_us", 10, 100)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(uint64(j % 200))
			}
		}()
	}
	wg.Wait()
	var total uint64
	for _, name := range []string{"load/latency_us/le_10", "load/latency_us/le_100", "load/latency_us/inf"} {
		v, ok := r.Value(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		total += v
	}
	if total != 8000 {
		t.Fatalf("observations = %d, want 8000", total)
	}
}

func TestAppendWindowMatchesJSONL(t *testing.T) {
	r := NewRegistry()
	c := r.AtomicCounter("a")
	var got Window
	r.SetSink(sinkFunc(func(w Window) {
		got = Window{Index: w.Index, Start: w.Start, End: w.End}
		got.Names = append([]string(nil), w.Names...)
		got.Kinds = append([]Kind(nil), w.Kinds...)
		got.Values = append([]uint64(nil), w.Values...)
	}))
	c.Add(4)
	r.CloseWindow(100)
	line := AppendWindow(nil, []Label{String("component", "serve")}, got)
	want := `{"component":"serve","window":0,"start":0,"end":100,"counters":{"a":4},"gauges":{}}` + "\n"
	if string(line) != want {
		t.Fatalf("AppendWindow = %q, want %q", line, want)
	}
}
