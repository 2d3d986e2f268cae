package experiments

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen/machine"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sanitizer"
	"repro/internal/sim"
)

// setup is m's SimSetup on fresh memories, its range the first wave's
// when that is the only one (Launch sets each wave's).
func setup(m machine.Machine) SimSetup {
	su := SimSetup{Capacity: m.Capacity, Warps: m.Warps, MaxCycles: 20_000_000, Memory: exec.NewMemory(nil), EndWarp: m.Grid}
	if m.Standing == "L2" {
		su.L2, _ = mem.NewBankedL2(mem.DefaultBankedL2Config())
	} else if m.Standing == "Hier" {
		su.Hier = mem.New(mem.DefaultConfig())
	}
	if m.Co != nil {
		su.CoResident = []gpu.KernelSlot{{K: m.Co, SMs: m.SMs, Mem: exec.NewMemory(nil), AddrBias: coResidentBias}}
	}
	return su
}

// ran is what a run of a machine leaves: the sequence's result, each
// slot's stored words, the standing memory's counters and, for a single
// launch, its provider and memory counters and its JSONL window stream.
type ran struct {
	Res    *LaunchResult
	Stores []map[uint32]uint32
	L2     mem.BankedL2Stats
	Hier   mem.Stats
	Prov   sim.ProviderStats
	Mem    mem.Stats
	Stream []string
}

// run launches m's sequence on setup(m) as tune (nil: none) leaves it: a
// single launch through runPoint, with its window stream attached, any
// other through Launch. A slot's stores are kept when it has a memory of
// its own.
func run(m machine.Machine, tune func(*SimSetup)) (r ran, err error) {
	su := setup(m)
	if tune != nil {
		tune(&su)
	}
	if m.SingleLaunch() {
		var buf bytes.Buffer
		jw := metrics.NewJSONLWriter(&buf)
		err = runPoint(context.Background(), m.Ks[0], m.Seq, Scheme(m.Scheme), m.SMs, su, nil, 0, jw, func(in *Instrumented) error {
			run := in.Run.Detach()
			c := run.Chip
			r.Res = &LaunchResult{Cycles: c.Cycles, Launches: 1, Insns: c.TotalInsns,
				FFSkippedCycles: c.FFSkippedCycles, FFJumps: c.FFJumps, PerLaunch: []*gpu.Result{c}}
			r.Prov, r.Mem = run.Prov, run.Mem
			return nil
		})
		err = cmp.Or(err, jw.Flush())
		// The windows as a set, each naming its SM: how SMs interleave
		// their windows is the lockstep's order, which a jump changes.
		r.Stream = strings.SplitAfter(buf.String(), "\n")
		slices.Sort(r.Stream)
	} else {
		r.Res, err = Launch(m.Ks, Scheme(m.Scheme), m.SMs, m.Grid, su)
	}
	if err != nil {
		return r, err
	}
	r.keep(su)
	return r, nil
}

// keep reads into r what the run on su left in its memories.
func (r *ran) keep(su SimSetup) {
	r.Stores = []map[uint32]uint32{}
	if su.Memory != nil {
		r.Stores = append(r.Stores, su.Memory.GlobalStores())
	}
	for _, s := range su.CoResident {
		r.Stores = append(r.Stores, s.Mem.GlobalStores())
	}
	if su.L2 != nil {
		r.L2 = su.L2.Stats
	}
	if su.Hier != nil {
		r.Hier = su.Hier.Stats
	}
}

func mustRun(t *testing.T, m machine.Machine, tune func(*SimSetup)) ran {
	t.Helper()
	r, err := run(m, tune)
	if err != nil {
		t.Fatalf("%s: %v", m, err)
	}
	return r
}

// withoutFF is r with its fast-forward counters zeroed, as a stepped run
// reports them.
func (r ran) withoutFF() ran {
	r.Res.FFSkippedCycles, r.Res.FFJumps = 0, 0
	for _, l := range r.Res.PerLaunch {
		l.FFSkippedCycles, l.FFJumps = 0, 0
		for _, st := range l.PerSM {
			st.FFSkippedCycles, st.FFJumps = 0, 0
		}
	}
	return r
}

// reference is what exec.Run stores for m, per slot, and the
// instructions it runs.
func reference(t *testing.T, m machine.Machine) (stores []map[uint32]uint32, insns uint64) {
	t.Helper()
	mms := []*exec.Memory{exec.NewMemory(nil)}
	if m.Co != nil {
		mms = append(mms, exec.NewMemory(nil))
	}
	for _, k := range m.Ks {
		for slot, k := range []*isa.Kernel{k, m.Co}[:len(mms)] { // co runs beside each of ks
			ref, err := exec.Run(k, m.Grid, mms[slot])
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			insns += ref.DynInsns
		}
	}
	for _, mm := range mms {
		stores = append(stores, mm.GlobalStores())
	}
	return stores, insns
}

// The sides of the 128-register point a generated kernel may fall on.
const under, over = "a generated kernel under the 128-register point", "a generated kernel over the 128-register point"

// classes is what m reaches of the classes TestDrawIsItsSeed asks of a
// relation's machines.
func classes(m machine.Machine) map[string]bool {
	chip, sc := m.Warps*m.SMs, m.Scheme
	c := map[string]bool{
		sc: true, fmt.Sprint(m.SMs, " SMs"): true, fmt.Sprint("capacity ", m.Capacity): true,
		fmt.Sprint(m.Warps, " warps"): true, m.Seq: true, m.Standing: true, m.Standing + " × " + m.Seq: true,
		sc + " on several SMs":               m.SMs > 1,
		"a co-resident slot":                 m.Co != nil,
		sc + " beside a slot on several SMs": m.Co != nil && m.SMs > 1, // TestCoResidentSlots' pairs
		"a short last wave":                  m.Grid%chip != 0,
		"over waves":                         m.Grid > chip,
		"a generated sequence":               m.Generated && len(m.Ks) > 1,
		sc + ", one launch":                  m.SingleLaunch(),
		fmt.Sprintf("%s@%d on a generated kernel at 8 warps", sc, m.Capacity): m.Generated && m.Warps == 8,
	}
	for _, k := range m.Ks {
		c[map[bool]string{true: under, false: over}[k.NumRegs*m.Warps < 128]] = m.Generated
	}
	return c
}

// TestDrawIsItsSeed: a failure names its seed, so a seed must draw the
// same machine line; the draw's schemes are experiments'; and each
// relation's machines must reach the classes of the hand-listed rows and
// the generated-kernel points it replaced — every axis of the draw, for
// the machines four relations run. A pinned seed must add a class it
// wants.
func TestDrawIsItsSeed(t *testing.T) {
	for i, sc := range Schemes() {
		if len(machine.Schemes) != len(Schemes()) || machine.Schemes[i] != string(sc) || machine.HasCapacity(string(sc)) != sc.HasCapacity() {
			t.Fatalf("the draw's schemes %v are not experiments' %v", machine.Schemes, Schemes())
		}
	}
	capacities := []string{"capacity 128", "capacity 192", "capacity 256", "capacity 512", "capacity 1024"}
	// TestGeneratedKernelDifferential's nine points, which held four of
	// these relations at 8 warps before the draw did.
	gained := []string{"8 warps", "capacity 192", "capacity 1024", under, over}
	for _, p := range []string{"baseline@0", "baseline-2level@0", "rfv@0", "rfh@0", "regless-nocomp@512",
		"regless@128", "regless@192", "regless@256", "regless@512"} {
		gained = append(gained, p+" on a generated kernel at 8 warps")
	}
	axes := slices.Concat(gained, capacities, []string{"1 SMs", "2 SMs", "3 SMs", "4 SMs",
		"cold", "L2", "Hier", "a generated sequence", "a short last wave", "a co-resident slot"})
	var oneLaunch []string
	for _, sc := range machine.Schemes {
		axes = append(axes, sc, sc+" on several SMs")    // TestChipFFParity's bfs@4 SMs
		oneLaunch = append(oneLaunch, sc+", one launch") // TestChipOfOneMatchesBareSM's suite
	}
	for _, app := range machine.Apps {
		axes = append(axes, app.Name, "Hier × "+app.Name) // fastforward_test's apps × schemes
	}
	for name, r := range map[string]struct {
		r    machine.Relation
		want []string
	}{
		"every":       {machine.Every, axes},
		"stores":      {machine.Stores, slices.Concat(gained, []string{"baseline beside a slot on several SMs", "regless beside a slot on several SMs"})},
		"chip-of-one": {machine.ChipsOfOne, slices.Concat(oneLaunch, capacities, []string{"cold", "Hier", "over waves", "8 warps"})},
		"one-launch":  {machine.OneLaunch, slices.Concat(gained, []string{"baseline", "rfh", "regless", "4 SMs", "capacity 128"})}, // lifecycle's points
		"served":      {machine.ServedPoints, slices.Concat(machine.Schemes, capacities, []string{"8 warps", "16 warps", "32 warps", "4 SMs"})},
		"fifo":        {machine.FIFO, slices.Concat(capacities, []string{"regless", "regless-nocomp", "8 warps", under, over})},
	} {
		seen, reached, ms := map[string]bool{}, 0, r.r.Machines()
		for i, m := range ms {
			if again := machine.Draw(m.Seed); again.String() != m.String() {
				t.Fatalf("seed %d draws two machines:\n%s\n%s", m.Seed, m, again)
			}
			before := reached
			for c, ok := range classes(m) {
				if ok && !seen[c] && slices.Contains(r.want, c) {
					reached++
				}
				seen[c] = seen[c] || ok
			}
			if i >= len(ms)-len(r.r.Also) && (reached == before || r.r.Applies != nil && !r.r.Applies(m)) {
				t.Errorf("%s draw: pinned %s is not one it applies to, or adds no class it wants", name, m)
			}
		}
		for _, c := range r.want {
			if !seen[c] {
				t.Errorf("no machine of the %s draw reaches %q", name, c)
			}
		}
	}
}

// TestDrawnTripIsADiagnostic: a run cut short ends in a Diagnostic on any
// machine, never a panic or a hang, and fast-forwarded and stepped runs
// trip on the same component at the same cycle, or both finish alike: at
// MaxCycles half the first launch's cycles (which must trip) and at a
// tight watchdog.
func TestDrawnTripIsADiagnostic(t *testing.T) {
	t.Parallel()
	machine.Every.Each(t, func(t *testing.T, m machine.Machine) {
		half := mustRun(t, m, nil).Res.PerLaunch[0].Cycles / 2
		for _, cut := range []SimSetup{{MaxCycles: half}, {Watchdog: 60}, {Watchdog: 200}, {Watchdog: 600}} {
			var r [2]ran
			var d [2]*sanitizer.Diagnostic
			for i := range r {
				var err error
				r[i], err = run(m, func(su *SimSetup) {
					su.MaxCycles, su.Watchdog, su.NoFastForward = cmp.Or(cut.MaxCycles, su.MaxCycles), cut.Watchdog, i == 1
				})
				if err != nil && !errors.As(err, &d[i]) {
					t.Fatalf("%s: MaxCycles %d, watchdog %d: %v, want a Diagnostic", m, cut.MaxCycles, cut.Watchdog, err)
				}
			}
			where := fmt.Sprintf("MaxCycles %d, watchdog %d", cut.MaxCycles, cut.Watchdog)
			if d[0] == nil && d[1] == nil && cut.MaxCycles == 0 {
				machine.Same(t, m, where+": stepped and fast-forwarded runs", r[1], r[0].withoutFF())
			} else if d[0] == nil || d[1] == nil || d[0].Component != d[1].Component || d[0].Cycle != d[1].Cycle {
				t.Errorf("%s: %s: fast-forwarded %v, stepped %v", m, where, d[0], d[1])
			}
		}
	})
}
