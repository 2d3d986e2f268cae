package experiments

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/launch"
	"repro/internal/mem"
	"repro/internal/regalloc"
	"repro/internal/sanitizer"
)

// The machine draw. Staging must be invisible, and so must the
// simulator's shortcuts: run twice, fast-forwarded or stepped, sanitized
// or plain, recycled or fresh, assembled or bare, a machine reports the
// same and stores what exec.Run stores. Each relation holds on the first
// drawnPerRelation machines by seed it applies to (DESIGN §12).
const drawnPerRelation = 32

var drawApps = kernels.Apps()

// machine is one launch sequence and the chip it runs on: ks back to
// back, each over grid warps in waves of warps × sms, on standing memory
// ("cold", "L2" or "Hier"), beside co — when non-nil — on sms SMs of its
// own.
type machine struct {
	seed                       int64 // 0: a literal
	scheme                     Scheme
	capacity, warps, sms, grid int
	standing, seq              string
	ks                         []*isa.Kernel
	co                         *isa.Kernel
}

func drawMachine(seed int64) machine {
	rng := rand.New(rand.NewSource(seed))
	schemes, names := Schemes(), kernels.Names()
	m := machine{seed: seed, scheme: schemes[rng.Intn(len(schemes))], warps: 16 << rng.Intn(2),
		sms: 1 + rng.Intn(4), standing: []string{"cold", "L2", "Hier"}[rng.Intn(3)]}
	if m.scheme.HasCapacity() {
		m.capacity = 128 << rng.Intn(3)
	}
	if m.standing == "Hier" {
		m.sms = 1 // a private hierarchy is a chip of one's
	}
	switch rng.Intn(3) {
	case 0:
		m.seq = names[rng.Intn(len(names))]
		m.ks = []*isa.Kernel{kernels.MustLoad(m.seq)}
	case 1:
		app := drawApps[rng.Intn(len(drawApps))]
		m.seq, m.ks = app.Name, app.Kernels
	default:
		var seq []string
		for n := 1 + rng.Intn(3); n > 0; n-- {
			res, err := regalloc.Allocate(gen.Kernel(1 + rng.Int63n(50)))
			if err != nil {
				panic(err) // gen's TestKernelIsItsSeed allocates seeds 1–50
			}
			m.ks, seq = append(m.ks, res.Kernel), append(seq, res.Kernel.Name)
		}
		m.seq = strings.Join(seq, "+")
	}
	short := m.warps * m.sms // how far a short last wave may fall short
	if m.standing != "Hier" && rng.Intn(3) == 0 {
		m.co = kernels.MustLoad(names[rng.Intn(len(names))])
		short = m.warps // gpu.New builds every SM of a co-resident slot
	}
	cta := 8 // a short chunk fills the four schedulers
	for _, k := range m.kernels() {
		cta = max(cta, k.WarpsPerCTA)
	}
	if m.grid = (1 + rng.Intn(3)) * m.warps * m.sms; short > cta && rng.Intn(2) == 0 {
		m.grid -= cta * (1 + rng.Intn(short/cta-1))
	}
	return m
}

func (m machine) String() string {
	s := fmt.Sprintf("seed %d: %s@%d on %d SMs × %d warps, %s, %s over %d warps",
		m.seed, m.scheme, m.capacity, m.sms, m.warps, m.standing, m.seq, m.grid)
	if m.co != nil {
		s += ", beside " + m.co.Name
	}
	return s
}

// kernels is every kernel m runs.
func (m machine) kernels() []*isa.Kernel {
	if m.co == nil {
		return m.ks
	}
	return append([]*isa.Kernel{m.co}, m.ks...)
}

// chipOfOne says m is one bare.Run can be: one SM at RegLess's design
// point (a scheme without capacity reads 0), not on a banked L2.
func chipOfOne(m machine) bool {
	return m.sms == 1 && m.standing != "L2" && m.co == nil && m.capacity%512 == 0
}

// singleLaunch says m is one runPoint runs: one kernel, one wave.
func singleLaunch(m machine) bool { return len(m.ks) == 1 && m.grid <= m.warps*m.sms }

// A draw is the machines one relation runs: the first drawnPerRelation
// seeds whose machine applies accepts (nil: any), then the seeds in also,
// each pinned for a class TestDrawIsItsSeed wants that the first miss.
type draw struct {
	applies func(machine) bool
	also    []int64
}

var (
	anyDrawn       = draw{also: []int64{162}}                          // Hier × srad_app
	raceFreeDrawn  = draw{applies: raceFree, also: []int64{112}}       // baseline beside a slot
	chipOfOneDrawn = draw{applies: chipOfOne, also: []int64{152, 218}} // one launch of regless, of rfv
	singleDrawn    = draw{applies: singleLaunch}
)

func (d draw) machines() (ms []machine) {
	for seed := int64(1); len(ms) < drawnPerRelation; seed++ {
		if m := drawMachine(seed); d.applies == nil || d.applies(m) {
			ms = append(ms, m)
		}
	}
	for _, seed := range d.also {
		ms = append(ms, drawMachine(seed))
	}
	return ms
}

// eachDrawn runs check on d's machines, a subtest per seed.
func eachDrawn(t *testing.T, d draw, check func(*testing.T, machine)) {
	for _, m := range d.machines() {
		t.Run(fmt.Sprint(m.seed), func(t *testing.T) { check(t, m) })
	}
}

// setup is m's SimSetup on fresh memories, its range the first wave's
// when that is the only one (Launch sets each wave's).
func (m machine) setup() SimSetup {
	su := SimSetup{Capacity: m.capacity, Warps: m.warps, MaxCycles: 20_000_000, Memory: exec.NewMemory(nil), EndWarp: m.grid}
	if m.standing == "L2" {
		su.L2, _ = mem.NewBankedL2(mem.DefaultBankedL2Config())
	} else if m.standing == "Hier" {
		su.Hier = mem.New(mem.DefaultConfig())
	}
	if m.co != nil {
		su.CoResident = []gpu.KernelSlot{{K: m.co, SMs: m.sms, Mem: exec.NewMemory(nil), AddrBias: coResidentBias}}
	}
	return su
}

// ran is what a run of a machine leaves: the sequence's result, each
// slot's stored words, the standing memory's counters.
type ran struct {
	Res    *launch.Result
	Stores []map[uint32]uint32
	L2     mem.BankedL2Stats
	Hier   mem.Stats
}

// run launches m's sequence on m.setup() as tune (nil: none) leaves it.
func (m machine) run(tune func(*SimSetup)) (r ran, err error) {
	su := m.setup()
	if tune != nil {
		tune(&su)
	}
	if r.Res, err = Launch(m.ks, m.scheme, m.sms, m.grid, su); err != nil {
		return r, err
	}
	r.Stores = []map[uint32]uint32{su.Memory.GlobalStores()}
	for _, s := range su.CoResident {
		r.Stores = append(r.Stores, s.Mem.GlobalStores())
	}
	if su.L2 != nil {
		r.L2 = su.L2.Stats
	}
	if su.Hier != nil {
		r.Hier = su.Hier.Stats
	}
	return r, nil
}

func (m machine) mustRun(t *testing.T, tune func(*SimSetup)) ran {
	t.Helper()
	r, err := m.run(tune)
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

// same is how every relation compares: got must deep-equal want, or t
// fails naming the machine and printing both as JSON.
func same(t *testing.T, m machine, what string, got, want any) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Errorf("%s: %s differ:\n got %s\nwant %s", m, what, g, w)
	}
}

// reference is what exec.Run stores for m, per slot, and the
// instructions it runs.
func (m machine) reference(t *testing.T) (stores []map[uint32]uint32, insns uint64) {
	t.Helper()
	mms := []*exec.Memory{exec.NewMemory(nil)}
	if m.co != nil {
		mms = append(mms, exec.NewMemory(nil))
	}
	for _, k := range m.ks {
		for slot, k := range []*isa.Kernel{k, m.co}[:len(mms)] { // co runs beside each of ks
			ref, err := exec.Run(k, m.grid, mms[slot])
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

// racyKernels are the suite kernels whose stores follow timing — data
// races in the kernels themselves (ROADMAP item 1(c)) — each with the
// seed of a machine on which they diverge from exec.Run. The store
// relation skips a machine that runs one, and holds each to its machine:
// a fixed kernel fails there, and comes off the list.
var racyKernels = map[string]int64{"hybridsort": 4, "gaussian": 1584}

// raceFree says m runs no kernel racyKernels lists.
func raceFree(m machine) bool {
	for _, k := range m.kernels() {
		if _, ok := racyKernels[k.Name]; ok {
			return false
		}
	}
	return true
}

// TestDrawIsItsSeed: a failure names its seed, so a seed must draw the
// same machine line; and each relation's machines must reach the classes
// its deleted hand-listed rows held — anyDrawn, which four relations run,
// every axis of the draw too. A pinned seed must add a class it wants.
func TestDrawIsItsSeed(t *testing.T) {
	axes := []string{"1 SMs", "2 SMs", "3 SMs", "4 SMs", "capacity 128", "capacity 256", "capacity 512",
		"cold", "L2", "Hier", "a generated sequence", "a short last wave", "a co-resident slot"}
	var oneLaunch []string
	for _, sc := range Schemes() {
		axes = append(axes, string(sc), string(sc)+" on several SMs") // TestChipFFParity's bfs@4 SMs
		oneLaunch = append(oneLaunch, string(sc)+", one launch")      // TestChipOfOneMatchesBareSM's suite
	}
	for _, app := range drawApps {
		axes = append(axes, app.Name, "Hier × "+app.Name) // fastforward_test's apps × schemes
	}
	for name, r := range map[string]struct {
		d    draw
		want []string
	}{
		"any":           {anyDrawn, axes},
		"race-free":     {raceFreeDrawn, []string{"baseline beside a slot on several SMs", "regless beside a slot on several SMs"}},
		"chip-of-one":   {chipOfOneDrawn, append(oneLaunch, "cold", "Hier", "over waves")},
		"single-launch": {singleDrawn, []string{"baseline", "rfh", "regless", "4 SMs", "capacity 128"}}, // lifecycle's points
	} {
		seen, reached := map[string]bool{}, 0
		for i, m := range r.d.machines() {
			if again := drawMachine(m.seed); again.String() != m.String() {
				t.Fatalf("seed %d draws two machines:\n%s\n%s", m.seed, m, again)
			}
			chip, sc, before := m.warps*m.sms, string(m.scheme), reached
			for c, ok := range map[string]bool{
				sc: true, fmt.Sprint(m.sms, " SMs"): true, fmt.Sprint("capacity ", m.capacity): true,
				m.seq: true, m.standing: true, m.standing + " × " + m.seq: true,
				sc + " on several SMs":               m.sms > 1,
				"a co-resident slot":                 m.co != nil,
				sc + " beside a slot on several SMs": m.co != nil && m.sms > 1, // TestCoResidentSlots' pairs
				"a short last wave":                  m.grid%chip != 0,
				"over waves":                         m.grid > chip,
				"a generated sequence":               strings.Contains(m.seq, "+"),
				sc + ", one launch":                  singleLaunch(m),
			} {
				if ok && !seen[c] && slices.Contains(r.want, c) {
					reached++
				}
				seen[c] = seen[c] || ok
			}
			if i >= drawnPerRelation && (reached == before || r.d.applies != nil && !r.d.applies(m)) {
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
	eachDrawn(t, anyDrawn, func(t *testing.T, m machine) {
		half := m.mustRun(t, nil).Res.PerLaunch[0].Cycles / 2
		for _, cut := range []SimSetup{{MaxCycles: half}, {Watchdog: 60}, {Watchdog: 200}, {Watchdog: 600}} {
			var r [2]ran
			var d [2]*sanitizer.Diagnostic
			for i := range r {
				var err error
				r[i], err = m.run(func(su *SimSetup) {
					su.MaxCycles, su.Watchdog, su.NoFastForward = cmp.Or(cut.MaxCycles, su.MaxCycles), cut.Watchdog, i == 1
				})
				if err != nil && !errors.As(err, &d[i]) {
					t.Fatalf("%s: MaxCycles %d, watchdog %d: %v, want a Diagnostic", m, cut.MaxCycles, cut.Watchdog, err)
				}
			}
			where := fmt.Sprintf("MaxCycles %d, watchdog %d", cut.MaxCycles, cut.Watchdog)
			if d[0] == nil && d[1] == nil && cut.MaxCycles == 0 {
				same(t, m, where+": stepped and fast-forwarded runs", r[1], r[0].withoutFF())
			} else if d[0] == nil || d[1] == nil || d[0].Component != d[1].Component || d[0].Cycle != d[1].Cycle {
				t.Errorf("%s: %s: fast-forwarded %v, stepped %v", m, where, d[0], d[1])
			}
		}
	})
}
