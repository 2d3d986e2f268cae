package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// writeTrace writes a traced pass as Chrome trace-event JSON (loads in
// Perfetto and chrome://tracing). Spans are kept in memory during the
// pass and written only here, after it ended.
func writeTrace(dir, workload string, tr *obs.Trace) error {
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.WriteChrome(bw, workload+" traced pass"); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStat aggregates the spans of one kind in a traced pass.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the spans' time minus the part their children cover.
	SelfMS float64 `json:"self_ms"`
}

// spanStats folds a trace by span kind (the name up to its first space,
// so "op bfs/rfv/0" counts under "op"), largest self time first.
func spanStats(tr *obs.Trace) []spanStat {
	spans := tr.Spans()
	children := make([][]obs.Span, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 && int(sp.Parent) < len(spans) {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	byKind := map[string]*spanStat{}
	for i, sp := range spans {
		if sp.End < 0 {
			continue
		}
		kind, _, _ := strings.Cut(sp.Name, " ")
		st := byKind[kind]
		if st == nil {
			st = &spanStat{Name: kind}
			byKind[kind] = st
		}
		st.Count++
		st.TotalMS += float64(sp.End-sp.Start) / 1e3
		st.SelfMS += float64(sp.End-sp.Start-covered(sp, children[i])) / 1e3
	}
	out := make([]spanStat, 0, len(byKind))
	for _, st := range byKind {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the part of parent's interval that its
// children cover (their union, clipped to the parent), in microseconds.
func covered(parent obs.Span, kids []obs.Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		start, end := k.Start, k.End
		if end < 0 || end > parent.End {
			end = parent.End
		}
		if start < edge {
			start = edge
		}
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}
