package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cm"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/sanitizer"
)

// TestGTOChargesBlockedCurrentTwice pins a count every stored result
// carries: GTO tests its current warp on its own and, when that fails,
// meets it again in the oldest-first scan, so a scoreboard-blocked
// current warp is two scoreboard rejections per cycle, not one. With one
// warp behind one scheduler running a dependent ALU chain, every
// no-issue cycle is exactly that case. Making the pick "tidier" by
// skipping the second test changes scoreboard_rejects in every
// RunResult, metric window and golden file.
func TestGTOChargesBlockedCurrentTwice(t *testing.T) {
	b := isa.NewBuilder("chain", 1)
	v := b.Movi(1)
	for i := 0; i < 8; i++ {
		v = b.Addi(v, 1)
	}
	b.Exit()
	for _, noFF := range []bool{false, true} {
		cfgv := testConfig()
		cfgv.Warps, cfgv.Schedulers, cfgv.NoFastForward = 1, 1, noFF
		sm, err := New(cfgv, b.MustKernel(), &passiveProvider{}, exec.NewMemory(nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sm.Run(); err != nil {
			t.Fatal(err)
		}
		stalls, rejects := sm.grp[0].NoIssue, sm.grp[0].Scoreboard
		// Eight dependent adds each wait out the ALU latency behind the
		// instruction before them.
		if want := uint64(8 * (cfgv.ALULat - 1)); stalls != want {
			t.Fatalf("noFF=%v: %d no-issue cycles, want %d", noFF, stalls, want)
		}
		if rejects != 2*stalls {
			t.Errorf("noFF=%v: %d scoreboard rejections over %d blocked cycles, want two per cycle",
				noFF, rejects, stalls)
		}
	}
}

// gateProvider gates issue through a mask it keeps beside its own
// per-warp truth (everything open), as a real gating provider keeps its
// mask beside its state machine.
type gateProvider struct {
	nullProvider
	open []bool
	mask [][]uint64
}

func (p *gateProvider) Attach(sm *SM) error {
	p.open = make([]bool, sm.Cfg.Warps)
	p.mask = make([][]uint64, sm.Cfg.Schedulers)
	for g := range p.mask {
		p.mask[g] = make([]uint64, sm.grpWords)
	}
	for _, w := range sm.Warps {
		p.open[w.ID] = true
		p.mask[w.Group][w.mword-w.Group*sm.grpWords] |= w.mbit
	}
	return nil
}
func (p *gateProvider) IssueMask(g int) []uint64   { return p.mask[g] }
func (p *gateProvider) CanIssueQuiet(w *Warp) bool { return p.open[w.ID] }

// cmProvider publishes real capacity managers' Active sets as its issue
// mask, every warp activated at attach, and registers the managers' own
// invariants with the sanitizer. Its per-warp answer reads the mask back,
// so a drifted Active bit is left for the manager's check to find.
type cmProvider struct {
	nullProvider
	cms []*cm.CM
}

func (p *cmProvider) Attach(sm *SM) error {
	per := sm.Cfg.Warps / sm.Cfg.Schedulers
	for g := 0; g < sm.Cfg.Schedulers; g++ {
		c := cm.New(nil, cm.Config{Banks: 1, LinesPerBank: 1}, per)
		for i := 0; i < per; i++ {
			if _, err := c.ActivateTop(0, []int{0}, 0, 0); err != nil {
				return err
			}
		}
		p.cms = append(p.cms, c)
	}
	return nil
}
func (p *cmProvider) IssueMask(g int) []uint64 { return p.cms[g].ActiveMask() }
func (p *cmProvider) CanIssueQuiet(w *Warp) bool {
	return p.cms[w.Group].ActiveMask()[0]&w.mbit != 0
}
func (p *cmProvider) AttachSanitizer(s *sanitizer.Sanitizer) {
	for g, c := range p.cms {
		s.Register(fmt.Sprintf("cm/g%d", g), c.CheckInvariants)
	}
}

// TestSanitizerCatchesMaskDrift: each mask and the unfinished count,
// knocked out of step with the state it summarizes, trips the invariant
// that owns it, naming the warp: sim/readymask for the SM's masks and the
// provider's issue mask, the capacity manager's own check for its Active
// set (warp 5 is local warp 1 of group 1).
func TestSanitizerCatchesMaskDrift(t *testing.T) {
	type drift struct {
		name     string
		provider func() Provider
		corrupt  func(sm *SM, w *Warp)
		comp     string
		naming   string
	}
	null := func() Provider { return &nullProvider{} }
	drifts := []drift{
		{"live bit set on a barrier warp", null,
			func(sm *SM, w *Warp) { sm.wFlags[w.ID] |= warpAtBarrier }, "sim/readymask", "warp 5"},
		{"live bit flipped", null,
			func(sm *SM, w *Warp) { sm.mLive[w.mword] ^= w.mbit }, "sim/readymask", "warp 5"},
		{"scoreboard bit flipped", null,
			func(sm *SM, w *Warp) { sm.mSB[w.mword] ^= w.mbit }, "sim/readymask", "warp 5"},
		{"stall written past armStall", null,
			func(sm *SM, w *Warp) { sm.wStallUntil[w.ID] = sm.cycle + 5 }, "sim/readymask", "warp 5"},
		{"global-access class bit flipped", null,
			func(sm *SM, w *Warp) { sm.mGlobal[w.mword] ^= w.mbit }, "sim/readymask", "warp 5"},
		{"SFU class bit flipped", null,
			func(sm *SM, w *Warp) { sm.mSFU[w.mword] ^= w.mbit }, "sim/readymask", "warp 5"},
		{"class written past refreshInsn", null,
			func(sm *SM, w *Warp) { sm.wClass[w.ID] = isa.ClassSFU }, "sim/readymask", "warp 5"},
		{"provider issue bit flipped", func() Provider { return &gateProvider{} },
			func(sm *SM, w *Warp) { sm.mProv[w.Group][0] ^= w.mbit }, "sim/readymask", "warp 5"},
		{"provider state moved without its bit", func() Provider { return &gateProvider{} },
			func(sm *SM, w *Warp) { sm.Provider.(*gateProvider).open[w.ID] = false }, "sim/readymask", "warp 5"},
		{"capacity manager active bit flipped", func() Provider { return &cmProvider{} },
			func(sm *SM, w *Warp) { sm.mProv[w.Group][0] ^= w.mbit }, "cm/g1", "warp 1 active bit"},
	}
	for _, d := range drifts {
		sm, err := New(testConfig(), smallKernel(t), d.provider(), exec.NewMemory(nil))
		if err != nil {
			t.Fatal(err)
		}
		sm.AttachSanitizer(sanitizer.New())
		for i := 0; i < 50; i++ {
			sm.step()
			if err := sm.checkHealth(); err != nil {
				t.Fatalf("%s: healthy machine tripped at cycle %d: %v", d.name, sm.cycle, err)
			}
		}
		if sm.Stats.DynInsns == 0 {
			t.Fatalf("%s: nothing issued in the healthy prefix", d.name)
		}
		d.corrupt(sm, sm.Warps[5])
		got := asDiagnostic(t, sm.checkHealth())
		if got.Component != d.comp || !strings.Contains(got.Violation, d.naming) {
			t.Errorf("%s: got %s: %q, want %s naming %q", d.name, got.Component, got.Violation, d.comp, d.naming)
		}
	}
	sm, err := New(testConfig(), smallKernel(t), &nullProvider{}, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	sm.AttachSanitizer(sanitizer.New())
	sm.unfinished--
	if d := asDiagnostic(t, sm.checkHealth()); d.Component != "sim/readymask" {
		t.Errorf("live-count drift: got %s: %q", d.Component, d.Violation)
	}
}

// TestLSUQueueKeepsItsCapacity: popping must not shed capacity from the
// front of the queue, or submit's append regrows it for the whole run.
func TestLSUQueueKeepsItsCapacity(t *testing.T) {
	cfgv := testConfig()
	sm, err := New(cfgv, smallKernel(t), &nullProvider{}, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	l := sm.lsu
	addrs := []uint32{0x100000}
	for round := 0; round < 10_000; round++ {
		for n := 0; n <= round%cfgv.LSUQueue; n++ {
			l.submit(sm.Warps[0], isa.NoReg, addrs, true)
		}
		for !l.empty() {
			sm.Mem.Tick()
			l.tick()
		}
		if cap(l.queue) > cfgv.LSUQueue {
			t.Fatalf("round %d: queue capacity %d exceeds LSUQueue %d", round, cap(l.queue), cfgv.LSUQueue)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		l.submit(sm.Warps[0], isa.NoReg, addrs, true)
		for !l.empty() {
			sm.Mem.Tick()
			l.tick()
		}
	}); got != 0 {
		t.Errorf("%v allocations per submit/drain round, want 0", got)
	}
}
