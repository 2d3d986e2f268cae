package events_test

import (
	"os"
	"path/filepath"
	"testing"
)

// TestTimelineGolden pins the ASCII and CSV renderings of a fixed hotspot
// run byte-for-byte. The goldens were captured from the pre-event-stream
// sampler (which read Provider.WarpState every cycle); the event-driven
// reconstruction must reproduce them exactly. Regenerate with
// TRACE_UPDATE_GOLDEN=1 go test ./internal/events -run TestTimelineGolden
func TestTimelineGolden(t *testing.T) {
	for _, c := range []struct {
		name    string
		regless bool
	}{{"regless", true}, {"baseline", false}} {
		t.Run(c.name, func(t *testing.T) {
			res := traceRun(t, c.regless)
			for suffix, got := range map[string]string{
				"timeline_" + c.name + ".golden": res.Render(0),
				"csv_" + c.name + ".golden":      res.CSV(),
			} {
				path := filepath.Join("testdata", suffix)
				if os.Getenv("TRACE_UPDATE_GOLDEN") == "1" {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Fatalf("%s drifted from golden (len %d vs %d); regenerate only if the change is intended",
						suffix, len(got), len(want))
				}
			}
		})
	}
}
