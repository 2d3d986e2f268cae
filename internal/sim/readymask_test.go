package sim

import (
	"strings"
	"testing"

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
		stalls, rejects := sm.mNoIssue[0].Value(), sm.mScoreboard[0].Value()
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

// TestSanitizerCatchesMaskDrift: each mask and the unfinished count,
// knocked out of step with the SoA state it summarizes, trips the
// sim/readymask invariant naming the warp.
func TestSanitizerCatchesMaskDrift(t *testing.T) {
	drift := map[string]func(sm *SM, w *Warp){
		"live bit set on a barrier warp": func(sm *SM, w *Warp) { sm.wFlags[w.ID] |= warpAtBarrier },
		"live bit flipped":               func(sm *SM, w *Warp) { sm.mLive[w.mword] ^= w.mbit },
		"scoreboard bit flipped":         func(sm *SM, w *Warp) { sm.mSB[w.mword] ^= w.mbit },
		"stall written past armStall":    func(sm *SM, w *Warp) { sm.wStallUntil[w.ID] = sm.cycle + 5 },
	}
	for name, corrupt := range drift {
		sm, err := New(testConfig(), smallKernel(t), &nullProvider{}, exec.NewMemory(nil))
		if err != nil {
			t.Fatal(err)
		}
		sm.AttachSanitizer(sanitizer.New())
		for i := 0; i < 50; i++ {
			sm.step()
			if err := sm.CheckHealth(); err != nil {
				t.Fatalf("%s: healthy machine tripped at cycle %d: %v", name, sm.cycle, err)
			}
		}
		corrupt(sm, sm.Warps[5])
		d := asDiagnostic(t, sm.CheckHealth())
		if d.Component != "sim/readymask" || !strings.Contains(d.Violation, "warp 5") {
			t.Errorf("%s: got %s: %q, want sim/readymask naming warp 5", name, d.Component, d.Violation)
		}
	}
	sm, err := New(testConfig(), smallKernel(t), &nullProvider{}, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	sm.AttachSanitizer(sanitizer.New())
	sm.unfinished--
	if d := asDiagnostic(t, sm.CheckHealth()); d.Component != "sim/readymask" {
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
