// Package machine is the machine draw the self-relations run on: run
// twice, fast-forwarded or stepped, sanitized or plain, recycled or
// fresh, assembled or bare, served or direct, a machine reports the same
// and stores what exec.Run stores (DESIGN §12). Schemes are named by
// string, as package bare names them, so it imports only isa, kernels,
// gen and regalloc: experiments', serve's and core's tests draw from it,
// each with its own runner. Only tests import it.
package machine

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/regalloc"
)

// PerRelation is how many drawn machines each relation runs at least.
const PerRelation = 32

// Schemes are the register schemes a machine is drawn under, in
// experiments.Schemes' order.
var Schemes = []string{"baseline", "baseline-2level", "rfv", "rfh", "regless", "regless-nocomp"}

// HasCapacity says the scheme sizes a RegLess OSU.
func HasCapacity(scheme string) bool { return strings.HasPrefix(scheme, "regless") }

// Apps are the applications a machine may run.
var Apps = kernels.Apps()

// Generated is gen's kernels for seeds 1–50, allocated once.
var Generated = sync.OnceValue(func() (ks []*isa.Kernel) {
	for seed := int64(1); seed <= 50; seed++ {
		res, err := regalloc.Allocate(gen.Kernel(seed))
		if err != nil {
			panic(err) // gen's TestKernelIsItsSeed allocates seeds 1–50
		}
		ks = append(ks, res.Kernel)
	}
	return ks
})

// Machine is one launch sequence and the chip it runs on: Ks back to
// back, each over Grid warps in waves of Warps × SMs, on standing memory
// ("cold", "L2" or "Hier"), beside Co — when non-nil — on SMs SMs of its
// own.
type Machine struct {
	Seed                       int64 // 0: a literal
	Scheme                     string
	Capacity, Warps, SMs, Grid int
	Standing, Seq              string
	Ks                         []*isa.Kernel
	Co                         *isa.Kernel
	Generated                  bool // Ks are gen's
}

// Draw is seed's machine.
func Draw(seed int64) Machine {
	rng := rand.New(rand.NewSource(seed))
	// 8 warps and capacities 192 and 1024 come from a second stream, so
	// the first — every other axis of a seed — does not depend on them.
	wide := rand.New(rand.NewSource(-seed))
	names := kernels.Names()
	m := Machine{Seed: seed, Scheme: Schemes[rng.Intn(len(Schemes))], Warps: 16 << rng.Intn(2),
		SMs: 1 + rng.Intn(4), Standing: []string{"cold", "L2", "Hier"}[rng.Intn(3)]}
	if HasCapacity(m.Scheme) {
		m.Capacity = 128 << rng.Intn(3)
		if wide.Intn(3) == 0 {
			m.Capacity = []int{192, 1024}[wide.Intn(2)]
		}
	}
	if m.Standing == "Hier" {
		m.SMs = 1 // a private hierarchy is a chip of one's
	}
	switch rng.Intn(3) {
	case 0:
		m.Seq = names[rng.Intn(len(names))]
		m.Ks = []*isa.Kernel{kernels.MustLoad(m.Seq)}
	case 1:
		app := Apps[rng.Intn(len(Apps))]
		m.Seq, m.Ks = app.Name, app.Kernels
	default:
		var seq []string
		for n := 1 + rng.Intn(3); n > 0; n-- {
			k := Generated()[rng.Int63n(50)]
			m.Ks, seq = append(m.Ks, k), append(seq, k.Name)
		}
		m.Seq, m.Generated = strings.Join(seq, "+"), true
	}
	if m.Standing != "Hier" && rng.Intn(3) == 0 {
		m.Co = kernels.MustLoad(names[rng.Intn(len(names))])
	}
	cta := 8 // a short chunk fills the four schedulers
	for _, k := range m.Kernels() {
		cta = max(cta, k.WarpsPerCTA)
	}
	if cta == 8 && wide.Intn(3) == 0 {
		m.Warps = 8
	}
	short := m.Warps * m.SMs // how far a short last wave may fall short
	if m.Co != nil {
		short = m.Warps // gpu.New builds every SM of a co-resident slot
	}
	if m.Grid = (1 + rng.Intn(3)) * m.Warps * m.SMs; short > cta && rng.Intn(2) == 0 {
		m.Grid -= cta * (1 + rng.Intn(short/cta-1))
	}
	return m
}

func (m Machine) String() string {
	s := fmt.Sprintf("seed %d: %s@%d on %d SMs × %d warps, %s, %s over %d warps",
		m.Seed, m.Scheme, m.Capacity, m.SMs, m.Warps, m.Standing, m.Seq, m.Grid)
	if m.Co != nil {
		s += ", beside " + m.Co.Name
	}
	return s
}

// Kernels is every kernel m runs.
func (m Machine) Kernels() []*isa.Kernel {
	if m.Co == nil {
		return m.Ks
	}
	return append([]*isa.Kernel{m.Co}, m.Ks...)
}

// ChipOfOne says m is one bare.Run can be: one SM, no banked L2, alone.
func (m Machine) ChipOfOne() bool { return m.SMs == 1 && m.Standing != "L2" && m.Co == nil }

// SingleLaunch says m is one chip's run: one kernel, one wave.
func (m Machine) SingleLaunch() bool { return len(m.Ks) == 1 && m.Grid <= m.Warps*m.SMs }

// Served says m is a point serve runs: one suite kernel over the whole
// chip, on cold memory, alone.
func (m Machine) Served() bool {
	return m.Standing == "cold" && m.Co == nil && m.Grid == m.Warps*m.SMs && m.Seq == m.Ks[0].Name && !m.Generated
}

// RacyKernels are the suite kernels whose stores follow timing — data
// races in the kernels themselves (ROADMAP item 1(c)) — each with the
// seed of a machine on which they diverge from exec.Run. The store
// relation skips a machine that runs one, and holds each to its machine:
// a fixed kernel fails there, and comes off the list.
var RacyKernels = map[string]int64{"hybridsort": 4, "gaussian": 1584}

// RaceFree says m runs no kernel RacyKernels lists.
func (m Machine) RaceFree() bool {
	for _, k := range m.Kernels() {
		if _, ok := RacyKernels[k.Name]; ok {
			return false
		}
	}
	return true
}

// A Relation is the machines one relation runs: the first N (0:
// PerRelation) seeds whose machine Applies accepts (nil: any), then the
// seeds in Also, each pinned for a class the first miss (experiments'
// TestDrawIsItsSeed).
type Relation struct {
	Applies func(Machine) bool
	N       int
	Also    []int64
}

// The relations' draws. Seeds 162 (Hier × srad_app), 112 (baseline
// beside a slot) and 218 (one launch of rfv) are pinned for a hand-listed
// row's class; every other pin is a generated kernel at 8 warps, at one
// of TestGeneratedKernelDifferential's points. Chips of one are the
// cheapest machines to run twice, so that relation draws more of them.
var (
	Every        = Relation{Also: []int64{162, 55, 91, 96, 120, 176, 6078, 317, 2155}} // determinism, fast-forward, sanitizer, trips
	Stores       = Relation{Applies: Machine.RaceFree, Also: []int64{112, 55, 91, 96, 120, 176, 6078, 317, 2155}}
	ChipsOfOne   = Relation{Applies: Machine.ChipOfOne, N: 46, Also: []int64{218}}
	OneLaunch    = Relation{Applies: Machine.SingleLaunch, Also: []int64{1793, 1176, 1204, 2111, 2279, 3143, 3378}} // recycled ≡ fresh
	ServedPoints = Relation{Applies: Machine.Served}
	FIFO         = Relation{Applies: func(m Machine) bool { return m.Generated && HasCapacity(m.Scheme) }} // RegLess's FIFO stack ≡ exec.Run
)

// Machines is r's machines, the first N then the pinned.
func (r Relation) Machines() (ms []Machine) {
	for seed := int64(1); len(ms) < cmp.Or(r.N, PerRelation); seed++ {
		if m := Draw(seed); r.Applies == nil || r.Applies(m) {
			ms = append(ms, m)
		}
	}
	for _, seed := range r.Also {
		ms = append(ms, Draw(seed))
	}
	return ms
}

// Each runs check on r's machines, a subtest per seed.
func (r Relation) Each(t *testing.T, check func(*testing.T, Machine)) {
	for _, m := range r.Machines() {
		t.Run(fmt.Sprint(m.Seed), func(t *testing.T) { check(t, m) })
	}
}

// Same is how every relation compares: got must deep-equal want, or t
// fails naming the machine and quoting both as JSON around the first
// byte they differ at.
func Same(t *testing.T, m Machine, what string, got, want any) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	i := 0
	for i < min(len(g), len(w)) && g[i] == w[i] {
		i++
	}
	t.Errorf("%s: %s differ at byte %d:\n got …%.400s\nwant …%.400s", m, what, i, g[max(i-200, 0):], w[max(i-200, 0):])
}
