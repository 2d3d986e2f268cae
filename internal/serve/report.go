package serve

// Deep-dive reports: a run request may opt into analysis sections
// ("report": ["stalls", "preload"]) computed from an event-instrumented
// execution. Reported runs are keyed distinctly in the store — the
// analysis rides the cached payload, so a repeat request is a disk hit
// like any other. The event layer is passive, so the statistics of a
// reported run match the plain run of the same point exactly.

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/store"
)

// RunReport is the deep-dive payload attached to a RunResult.
type RunReport struct {
	// Kinds echoes the canonical section list ("preload", "stalls").
	Kinds []string   `json:"kinds"`
	SMs   []SMReport `json:"sms"`
}

// SMReport carries one SM's requested sections.
type SMReport struct {
	SM      int            `json:"sm"`
	Stalls  *StallsReport  `json:"stalls,omitempty"`
	Preload *PreloadReport `json:"preload,omitempty"`
}

// StallsReport is the issue-slot attribution: Issued plus the Stalls
// values tile Cycles*Schedulers exactly (Tiles).
type StallsReport struct {
	Cycles     uint64            `json:"cycles"`
	Schedulers int               `json:"schedulers"`
	IssueSlots uint64            `json:"issue_slots"`
	Issued     uint64            `json:"issued"`
	Stalls     map[string]uint64 `json:"stalls"`
	Tiles      bool              `json:"tiles"`
	// TopRegions ranks regions by attributed capacity-stall cycles.
	TopRegions []RegionStallReport `json:"top_regions,omitempty"`
}

// RegionStallReport is one region's capacity-stall attribution.
type RegionStallReport struct {
	Region      int    `json:"region"`
	StallCycles uint64 `json:"stall_cycles"`
	Activations uint64 `json:"activations"`
}

// PreloadReport is the preload latency/hiding section.
type PreloadReport struct {
	Preloads        uint64            `json:"preloads"`
	Fills           map[string]uint64 `json:"fills"`
	LatencyMean     float64           `json:"latency_mean"`
	LatencyMax      uint64            `json:"latency_max"`
	RegionInstances int               `json:"region_instances"`
	Spans           int               `json:"spans"`
	PreloadCycles   uint64            `json:"preload_cycles"`
	HiddenCycles    uint64            `json:"hidden_cycles"`
	FullyHidden     int               `json:"fully_hidden"`
	HidingRate      float64           `json:"hiding_rate"`
}

// reportKinds are the recognized deep-dive sections.
var reportKinds = map[string]bool{"stalls": true, "preload": true}

// canonicalizeReport validates and canonicalizes a request's report list
// to the store.Key form: deduped, sorted, comma-joined ("" when empty).
func canonicalizeReport(kinds []string) (string, error) {
	for _, k := range kinds {
		if !reportKinds[k] {
			return "", fmt.Errorf("unknown report section %q (have: preload, stalls)", k)
		}
	}
	out := slices.Clone(kinds)
	slices.Sort(out)
	return strings.Join(slices.Compact(out), ","), nil
}

// simulate runs the key's point: the one place the server simulates. A
// key that asks for report sections runs with event recorders attached
// (passive: the statistics are the plain run's) and gets the analysis per
// SM. ctx carries the job's budget, which the cycle loop polls, and its
// obs trace, under which the run records "kernel-load"/"build"/"run".
// Nothing below caches or dedupes: that is the jobs map's and the store's.
func (s *Server) simulate(ctx context.Context, key store.Key) (*experiments.Run, *RunReport, error) {
	var mask events.Mask
	if key.Report != "" {
		mask = events.MaskSched | events.MaskStates | events.MaskPreloads
	}
	inst, err := experiments.SimulateInstrumented(ctx, key.Bench,
		experiments.Scheme(key.Scheme), s.cfg.Opts.SMs, s.cfg.Opts.Setup(key.Capacity), mask)
	if err != nil {
		return nil, nil, fmt.Errorf("%s/%s/%d: %w", key.Bench, key.Scheme, key.Capacity, err)
	}
	if mask == 0 {
		return inst.Run, nil, nil
	}
	kinds := strings.Split(key.Report, ",")
	rep := &RunReport{Kinds: kinds}
	for i, rec := range inst.Recs {
		an := events.Analyze(rec, inst.Cycles[i], inst.Schedulers[i])
		smr := SMReport{SM: i}
		for _, k := range kinds {
			switch k {
			case "stalls":
				smr.Stalls = stallsReport(an)
			case "preload":
				smr.Preload = preloadReport(an)
			}
		}
		rep.SMs = append(rep.SMs, smr)
	}
	return inst.Run, rep, nil
}

func stallsReport(an *events.Report) *StallsReport {
	out := &StallsReport{
		Cycles:     an.Cycles,
		Schedulers: an.Schedulers,
		IssueSlots: an.IssueSlots,
		Issued:     an.Issued,
		Stalls:     map[string]uint64{},
		Tiles:      an.TilesExactly(),
	}
	for reason := events.StallReason(0); reason < events.NumStallReasons; reason++ {
		if n := an.Stalls[reason]; n > 0 {
			out.Stalls[reason.String()] = n
		}
	}
	for i, reg := range an.TopRegions {
		if i >= 5 {
			break
		}
		out.TopRegions = append(out.TopRegions,
			RegionStallReport{Region: reg.Region, StallCycles: reg.StallCycles, Activations: reg.Activations})
	}
	return out
}

func preloadReport(an *events.Report) *PreloadReport {
	out := &PreloadReport{
		Preloads:        an.Preloads,
		Fills:           map[string]uint64{},
		LatencyMax:      an.LatencyMax,
		RegionInstances: an.RegionInstances,
		Spans:           an.PreloadSpans,
		PreloadCycles:   an.PreloadCycles,
		HiddenCycles:    an.HiddenCycles,
		FullyHidden:     an.FullyHidden,
		HidingRate:      an.HidingRate(),
	}
	if an.Preloads > 0 {
		out.LatencyMean = float64(an.LatencySum) / float64(an.Preloads)
	}
	for src := events.PreloadSrc(0); src < events.NumPreloadSrcs; src++ {
		if n := an.FillsBySrc[src]; n > 0 {
			out.Fills[src.String()] = n
		}
	}
	return out
}
