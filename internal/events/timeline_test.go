package events_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/kernels"
	"repro/internal/rf"
	"repro/internal/sim"
)

// traced is a finished run with everything a view of it needs.
type traced struct {
	*events.Timeline
	Stats  *sim.Stats
	Events *events.Recorder
}

// foldRun runs smv to completion through the ordinary cycle loop with a
// recorder keeping mask attached, and folds the recording.
func foldRun(t *testing.T, smv *sim.SM, bucket int, mask events.Mask) traced {
	t.Helper()
	rec := events.NewRecorder(smv.Cfg.Schedulers, mask)
	smv.AttachRecorder(rec)
	st, err := smv.Run()
	if err != nil {
		t.Fatal(err)
	}
	return traced{events.FoldTimeline(rec, st.Cycles, smv.Cfg.Warps, smv.Cfg.WarpIDBase, bucket), st, rec}
}

func traceRun(t *testing.T, regless bool) traced {
	t.Helper()
	k := kernels.MustLoad("hotspot")
	cfg := sim.DefaultConfig()
	cfg.Warps = 8
	cfg.MaxCycles = 5_000_000
	var p sim.Provider
	if regless {
		rp, err := core.New(nil, core.DefaultConfig(), k)
		if err != nil {
			t.Fatal(err)
		}
		p = rp
	} else {
		p = rf.NewBaseline(nil)
	}
	smv, err := sim.New(nil, cfg, k, p, exec.NewMemory(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	return foldRun(t, smv, 50, events.MaskTimeline)
}

func TestTimelineRegLess(t *testing.T) {
	res := traceRun(t, true)
	if len(res.Samples) == 0 || res.Stats.Cycles == 0 {
		t.Fatal("empty trace")
	}
	// Every RegLess state must appear somewhere in a staged run.
	seen := map[events.Glyph]bool{}
	for _, s := range res.Samples {
		for _, st := range s.Warp {
			seen[st] = true
		}
	}
	if !seen[events.GlyphActive] {
		t.Fatalf("active state never sampled; saw %v", seen)
	}
	if !seen[events.GlyphInactive] && !seen[events.GlyphPreloading] && !seen[events.GlyphDraining] && !seen[events.GlyphBarrier] {
		t.Fatalf("no staging states sampled; saw %v", seen)
	}
	if seen[events.GlyphIdle] {
		t.Fatalf("RegLess trace contains the baseline idle state; saw %v", seen)
	}
	out := res.Render(0)
	if !strings.Contains(out, "w00 |") || !strings.Contains(out, "ipc |") {
		t.Fatalf("render:\n%s", out)
	}
	// Rows are rectangular.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	width := len(lines[1])
	for _, l := range lines[1:] {
		if len(l) != width {
			t.Fatalf("ragged timeline row %q", l)
		}
	}
}

func TestTimelineBaselineUsesIdle(t *testing.T) {
	res := traceRun(t, false)
	for _, s := range res.Samples {
		for _, st := range s.Warp {
			if st != events.GlyphIdle && st != events.GlyphFinished && st != events.GlyphBarrier {
				t.Fatalf("baseline trace contains RegLess state %c", st)
			}
		}
	}
}

func TestCSVShape(t *testing.T) {
	res := traceRun(t, true)
	csv := res.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(res.Samples)+1 {
		t.Fatalf("csv rows = %d, want %d", len(lines), len(res.Samples)+1)
	}
	head := strings.Split(lines[0], ",")
	if head[0] != "cycle" || head[1] != "insns" || len(head) != 2+8 {
		t.Fatalf("csv header %v", head)
	}
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != len(head) {
			t.Fatalf("csv row has %d fields, want %d", got, len(head))
		}
	}
}

func TestRenderClipsColumns(t *testing.T) {
	res := traceRun(t, true)
	if len(res.Samples) < 3 {
		t.Skip("run too short to clip")
	}
	out := res.Render(2)
	lines := strings.Split(out, "\n")
	if len(lines[1]) != len("w00 |")+2 {
		t.Fatalf("clip failed: %q", lines[1])
	}
}
