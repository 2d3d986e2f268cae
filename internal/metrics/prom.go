package metrics

import (
	"bufio"
	"io"
	"strconv"
)

// WritePrometheus renders a snapshot of the registry in the Prometheus
// text exposition format (version 0.0.4), the /metricsz?format=prom
// payload. The mapping is frozen — scrapers may depend on it:
//
//   - Metric name: namespace + "_" + registry name with every byte
//     outside [a-zA-Z0-9_] rewritten to "_" (so "serve/http_requests"
//     under namespace "regless" is "regless_serve_http_requests").
//   - Counters render with a "_total" suffix, gauges under the mapped
//     name unchanged.
//   - Histograms render as one family: cumulative "_bucket" samples with
//     le labels (the registry's per-bucket cells are disjoint counts, so
//     this writer accumulates them), a "_sum" sample, and a "_count"
//     sample equal to the +Inf bucket.
//
// Cells belonging to a histogram are emitted only through their family,
// never as scalar counters. Output order is registration order.
func WritePrometheus(w io.Writer, r *Registry, namespace string) error {
	bw := bufio.NewWriter(w)
	if r == nil {
		return bw.Flush()
	}
	// Map each histogram's first cell index to its meta; mark every cell
	// a histogram owns (buckets + inf + sum) as covered.
	starts := make(map[int]*histMeta, len(r.hists))
	covered := make(map[int]bool)
	for i := range r.hists {
		m := &r.hists[i]
		starts[m.first] = m
		for c := m.first; c < m.first+len(m.bounds)+2; c++ {
			covered[c] = true
		}
	}
	var scratch []byte
	for i := range r.cells {
		if m, ok := starts[i]; ok {
			writePromHistogram(bw, r, m, namespace, &scratch)
			continue
		}
		if covered[i] {
			continue
		}
		c := &r.cells[i]
		name := promName(namespace, c.name)
		if c.kind == KindGauge {
			bw.WriteString("# TYPE " + name + " gauge\n")
			bw.WriteString(name)
			bw.WriteByte(' ')
			scratch = strconv.AppendUint(scratch[:0], r.read(i), 10)
			bw.Write(scratch)
			bw.WriteByte('\n')
			continue
		}
		bw.WriteString("# TYPE " + name + "_total counter\n")
		bw.WriteString(name + "_total ")
		scratch = strconv.AppendUint(scratch[:0], c.load(), 10)
		bw.Write(scratch)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

func writePromHistogram(bw *bufio.Writer, r *Registry, m *histMeta, namespace string, scratch *[]byte) {
	name := promName(namespace, m.name)
	bw.WriteString("# TYPE " + name + " histogram\n")
	load := func(i int) uint64 { return r.cells[i].load() }
	var cum uint64
	for bi, b := range m.bounds {
		cum += load(m.first + bi)
		bw.WriteString(name + "_bucket{le=\"")
		*scratch = strconv.AppendUint((*scratch)[:0], b, 10)
		bw.Write(*scratch)
		bw.WriteString("\"} ")
		*scratch = strconv.AppendUint((*scratch)[:0], cum, 10)
		bw.Write(*scratch)
		bw.WriteByte('\n')
	}
	cum += load(m.first + len(m.bounds))
	bw.WriteString(name + "_bucket{le=\"+Inf\"} ")
	*scratch = strconv.AppendUint((*scratch)[:0], cum, 10)
	bw.Write(*scratch)
	bw.WriteByte('\n')
	bw.WriteString(name + "_sum ")
	*scratch = strconv.AppendUint((*scratch)[:0], load(m.first+len(m.bounds)+1), 10)
	bw.Write(*scratch)
	bw.WriteByte('\n')
	bw.WriteString(name + "_count ")
	*scratch = strconv.AppendUint((*scratch)[:0], cum, 10)
	bw.Write(*scratch)
	bw.WriteByte('\n')
}

// promName maps a registry cell name into the Prometheus grammar.
func promName(namespace, name string) string {
	b := make([]byte, 0, len(namespace)+1+len(name))
	b = append(b, namespace...)
	b = append(b, '_')
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b = append(b, c)
		default:
			b = append(b, '_')
		}
	}
	return string(b)
}
