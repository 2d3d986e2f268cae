package events

import (
	"fmt"
	"sort"
	"strings"
)

// Report is the in-process analysis of a recorded run: a stall breakdown
// that tiles the run's issue slots exactly, preload latency and hiding
// statistics (the paper's §4.2/§6 claim that preloads issued early
// enough cost no issue slots), and the regions whose staging the machine
// waited on most.
type Report struct {
	Cycles     uint64
	Schedulers int

	// IssueSlots = Cycles * Schedulers; Issued + sum(Stalls) must equal
	// it exactly (TilesExactly) — every slot is either an issue or one
	// attributed stall.
	IssueSlots uint64
	Issued     uint64
	Stalls     [NumStallReasons]uint64

	// Preload spans (issue -> fill).
	Preloads   uint64
	FillsBySrc [NumPreloadSrcs]uint64
	LatencySum uint64
	LatencyMax uint64

	// Region instances and preload hiding. A preloading span is hidden
	// to the extent the warp's scheduler group kept issuing (from other
	// warps) while the inputs streamed in: HiddenCycles counts span
	// cycles with an issue, FullyHidden the spans whose group never
	// stalled during staging.
	RegionInstances int
	PreloadSpans    int
	PreloadCycles   uint64
	HiddenCycles    uint64
	FullyHidden     int

	// TopRegions ranks regions by the capacity-stall cycles attributed
	// to them (the stalled warp's next activation), descending.
	TopRegions []RegionStall
}

// RegionStall is one region's contribution to capacity stalls.
type RegionStall struct {
	Region      int
	StallCycles uint64
	Activations uint64
}

// TilesExactly reports whether the stall breakdown accounts for every
// issue slot of the run — the analyzer's core invariant.
func (r *Report) TilesExactly() bool {
	total := r.Issued
	for _, s := range r.Stalls {
		total += s
	}
	return total == r.IssueSlots
}

// HidingRate returns the fraction of preloading-span cycles overlapped
// by useful issue (0 when no preloading occurred).
func (r *Report) HidingRate() float64 {
	if r.PreloadCycles == 0 {
		return 0
	}
	return float64(r.HiddenCycles) / float64(r.PreloadCycles)
}

// span is one region instance's preloading interval (start exclusive,
// end inclusive: the transition events' cycles).
type span struct {
	start, end uint64
	region     int
}

// activation marks a region instance beginning (for capacity-stall
// attribution: a stalled warp waits for its *next* activation).
type activation struct {
	cycle  uint64
	region int
}

// Analyze computes a Report from a recorded run. cycles and schedulers
// come from the finished simulation (sim.Stats.Cycles, Cfg.Schedulers);
// the recorder must have kept MaskSched for the breakdown to tile and
// MaskStates/MaskPreloads for the region and hiding sections.
func Analyze(rec *Recorder, cycles uint64, schedulers int) *Report {
	rep := &Report{
		Cycles:     cycles,
		Schedulers: schedulers,
		IssueSlots: cycles * uint64(schedulers),
	}
	if rec == nil {
		return rep
	}

	// Per-group cycles with no issue (in cycle order, for binary search),
	// per-warp capacity stalls and activation/preloading span tracking.
	groupStalls := make([][]uint64, schedulers)
	type warpTrack struct {
		phase        Phase
		preloadStart uint64
		preloading   bool
		region       int
		activations  []activation
		spans        []span
	}
	warps := map[int]*warpTrack{}
	track := func(w int) *warpTrack {
		t := warps[w]
		if t == nil {
			t = &warpTrack{region: -1}
			warps[w] = t
		}
		return t
	}
	type capStall struct {
		cycle uint64
		warp  int
	}
	var capStalls []capStall
	pendingFill := map[uint64]uint64{} // (warp,reg) -> issue cycle
	regionActs := map[int]uint64{}

	rec.ForEach(func(e Event) {
		switch e.Kind {
		case KindIssue:
			rep.Issued++
		case KindStall:
			reason := StallReason(e.A)
			rep.Stalls[reason]++
			g := int(e.B)
			if g < schedulers {
				groupStalls[g] = append(groupStalls[g], e.Cycle)
			}
			if reason == StallCapacity && e.Warp >= 0 {
				capStalls = append(capStalls, capStall{e.Cycle, int(e.Warp)})
			}
		case KindWarpState:
			t := track(int(e.Warp))
			ph := Phase(e.A)
			switch ph {
			case PhasePreloading:
				t.preloadStart, t.preloading = e.Cycle, true
				t.activations = append(t.activations, activation{e.Cycle, e.Region()})
				regionActs[e.Region()]++
				rep.RegionInstances++
			case PhaseActive:
				if t.preloading {
					t.spans = append(t.spans, span{t.preloadStart, e.Cycle, t.region})
					t.preloading = false
				} else if t.phase == PhaseInactive {
					// Immediate activation: zero preloads needed.
					t.activations = append(t.activations, activation{e.Cycle, e.Region()})
					regionActs[e.Region()]++
					rep.RegionInstances++
				}
			default:
				t.preloading = false
			}
			t.phase, t.region = ph, e.Region()
		case KindPreloadIssue:
			pendingFill[uint64(e.Warp)<<32|uint64(e.Arg)] = e.Cycle
		case KindPreloadFill:
			rep.Preloads++
			rep.FillsBySrc[PreloadSrc(e.A)]++
			key := uint64(e.Warp)<<32 | uint64(e.Arg)
			if issued, ok := pendingFill[key]; ok {
				delete(pendingFill, key)
				lat := e.Cycle - issued
				rep.LatencySum += lat
				if lat > rep.LatencyMax {
					rep.LatencyMax = lat
				}
			}
		}
	})

	// Hiding: for each preloading span, cycles where the warp's group
	// still issued = span length minus the group's stalls inside it.
	for w, t := range warps {
		g := w % schedulers
		if g < 0 || g >= schedulers {
			continue
		}
		stalls := groupStalls[g]
		for _, sp := range t.spans {
			length := sp.end - sp.start
			if length == 0 {
				rep.PreloadSpans++
				rep.FullyHidden++
				continue
			}
			lo := sort.Search(len(stalls), func(i int) bool { return stalls[i] > sp.start })
			hi := sort.Search(len(stalls), func(i int) bool { return stalls[i] > sp.end })
			stalled := uint64(hi - lo)
			if stalled > length {
				stalled = length
			}
			rep.PreloadSpans++
			rep.PreloadCycles += length
			rep.HiddenCycles += length - stalled
			if stalled == 0 {
				rep.FullyHidden++
			}
		}
	}

	// Attribute each capacity stall to the region the warp stages next.
	regionStalls := map[int]uint64{}
	for _, cs := range capStalls {
		t := warps[cs.warp]
		if t == nil || len(t.activations) == 0 {
			continue
		}
		acts := t.activations
		i := sort.Search(len(acts), func(i int) bool { return acts[i].cycle >= cs.cycle })
		if i == len(acts) {
			i-- // warp never re-activated: charge its last region
		}
		regionStalls[acts[i].region]++
	}
	for id, n := range regionStalls {
		rep.TopRegions = append(rep.TopRegions, RegionStall{id, n, regionActs[id]})
	}
	sort.Slice(rep.TopRegions, func(i, j int) bool {
		a, b := rep.TopRegions[i], rep.TopRegions[j]
		if a.StallCycles != b.StallCycles {
			return a.StallCycles > b.StallCycles
		}
		return a.Region < b.Region
	})
	return rep
}

// Render formats the report; topN clips the region ranking (0 = 5).
func (r *Report) Render(topN int) string {
	if topN <= 0 {
		topN = 5
	}
	var b strings.Builder
	pct := func(n uint64) float64 {
		if r.IssueSlots == 0 {
			return 0
		}
		return 100 * float64(n) / float64(r.IssueSlots)
	}
	fmt.Fprintf(&b, "stall attribution   %d schedulers x %d cycles = %d issue slots\n",
		r.Schedulers, r.Cycles, r.IssueSlots)
	fmt.Fprintf(&b, "  issued            %10d  %5.1f%%\n", r.Issued, pct(r.Issued))
	for reason := NumStallReasons - 1; ; reason-- {
		if n := r.Stalls[reason]; n > 0 {
			fmt.Fprintf(&b, "  %-17s %10d  %5.1f%%\n", reason.String(), n, pct(n))
		}
		if reason == 0 {
			break
		}
	}
	if !r.TilesExactly() {
		total := r.Issued
		for _, s := range r.Stalls {
			total += s
		}
		fmt.Fprintf(&b, "  WARNING: breakdown covers %d of %d slots\n", total, r.IssueSlots)
	}
	if r.Preloads > 0 {
		fmt.Fprintf(&b, "preloads            %d fills:", r.Preloads)
		for src := PreloadSrc(0); src < NumPreloadSrcs; src++ {
			fmt.Fprintf(&b, " %s %.1f%%", src, 100*float64(r.FillsBySrc[src])/float64(r.Preloads))
			if src != NumPreloadSrcs-1 {
				b.WriteByte(',')
			}
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "preload latency     mean %.1f cycles, max %d\n",
			float64(r.LatencySum)/float64(r.Preloads), r.LatencyMax)
	}
	if r.RegionInstances > 0 {
		fmt.Fprintf(&b, "preload hiding      %.1f%% of %d preloading cycles overlapped an issue; %d/%d spans fully hidden (%d region instances)\n",
			100*r.HidingRate(), r.PreloadCycles, r.FullyHidden, r.PreloadSpans, r.RegionInstances)
	}
	if len(r.TopRegions) > 0 {
		fmt.Fprintf(&b, "top regions by capacity stalls\n")
		for i, reg := range r.TopRegions {
			if i >= topN {
				break
			}
			fmt.Fprintf(&b, "  region %-4d %10d stall cycles  %6d activations\n",
				reg.Region, reg.StallCycles, reg.Activations)
		}
	}
	return b.String()
}
