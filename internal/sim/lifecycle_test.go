package sim_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// TestRegistryRoomFitsRegLessSM holds metrics.Room to what it stands
// for: the cells the largest simulation registers. Grow a layer's
// counters and this says to grow the constant with them — too small and
// every run regrows its cell table and rehashes its index again, too
// large and every run carries the slack.
func TestRegistryRoomFitsRegLessSM(t *testing.T) {
	cells := map[experiments.Scheme]int{}
	for _, scheme := range experiments.Schemes() {
		smv, _, err := experiments.BuildSM("nw", scheme, experiments.SimSetup{Capacity: experiments.DefaultCapacity, Warps: 64})
		if err != nil {
			t.Fatal(err)
		}
		cells[scheme] = smv.Metrics.Len()
	}
	if got := cells[experiments.SchemeRegLess]; got != metrics.Room {
		t.Errorf("a RegLess SM registers %d cells, metrics.Room is %d", got, metrics.Room)
	}
	for scheme, n := range cells {
		if n > metrics.Room {
			t.Errorf("%s registers %d cells, more than metrics.Room (%d)", scheme, n, metrics.Room)
		}
	}
}
