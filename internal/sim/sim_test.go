package sim

import (
	"maps"
	"testing"

	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/sanitizer"
)

// nullProvider is a pass-through register file for simulator tests.
type nullProvider struct{}

func (nullProvider) Name() string                       { return "null" }
func (*nullProvider) Attach(*SM) error                  { return nil }
func (*nullProvider) OnIssue(*Warp, *exec.StepInfo) int { return 0 }
func (*nullProvider) OnWarpFinish(*Warp)                {}

// nullStager is the no-op Stager the fakes that tick or gate issue embed:
// every warp of a one-word group open, never idle (so a run with one
// steps every cycle), always drained.
type nullStager struct{ nullProvider }

func (*nullStager) Tick()                                {}
func (*nullStager) TickIdle() bool                       { return false }
func (*nullStager) OnWriteback(*Warp, isa.Reg)           {}
func (*nullStager) Drained() bool                        { return true }
func (*nullStager) IssueMask(int) []uint64               { return []uint64{^uint64(0)} }
func (*nullStager) CanIssueQuiet(*Warp) bool             { return true }
func (*nullStager) AttachRecorder(*events.Recorder)      {}
func (*nullStager) AttachSanitizer(*sanitizer.Sanitizer) {}
func (*nullStager) SetFaults(*faults.Injector)           {}
func (*nullStager) WarpDiag(int) (string, int)           { return "", -1 }

func smallKernel(t *testing.T) *isa.Kernel {
	t.Helper()
	b := isa.NewBuilder("small", 4)
	tid := b.Tid()
	idx := b.OpImm(isa.OpSHLI, tid, 2)
	i := b.Movi(4)
	acc := b.Movi(0)
	top := b.Label()
	b.Bind(top)
	v := b.Ldg(idx, 0x100000)
	b.Op2To(isa.OpIADD, acc, acc, v)
	b.OpImmTo(isa.OpIADDI, idx, idx, 1024)
	b.OpImmTo(isa.OpIADDI, i, i, ^uint32(0))
	b.Bnz(i, top)
	b.Stg(idx, acc, 0x200000)
	b.Exit()
	return b.MustKernel()
}

func runSim(t *testing.T, k *isa.Kernel, cfgv Config) (*Stats, *exec.Memory) {
	t.Helper()
	mm := exec.NewMemory(nil)
	sm, err := New(nil, cfgv, k, &nullProvider{}, mm, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sm.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st, mm
}

func testConfig() Config {
	c := DefaultConfig()
	c.Warps = 16
	c.MaxCycles = 2_000_000
	return c
}

func TestSimCompletesAndMatchesFunctional(t *testing.T) {
	k := smallKernel(t)
	st, mm := runSim(t, k, testConfig())
	if st.Cycles == 0 || st.DynInsns == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	// Compare against the pure-functional reference.
	ref, err := exec.Run(k, 16, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if ref.DynInsns != st.DynInsns {
		t.Fatalf("dyn insns: sim %d vs functional %d", st.DynInsns, ref.DynInsns)
	}
	if got := mm.GlobalStores(); !maps.Equal(got, ref.Stores) {
		t.Fatalf("%d stored words differ from the functional run's %d", len(got), len(ref.Stores))
	}
}

func TestSimMemoryLatencyVisible(t *testing.T) {
	// A load-dependent chain must take far longer than an ALU chain of
	// the same length.
	alu := func() *isa.Kernel {
		b := isa.NewBuilder("alu", 4)
		v := b.Movi(1)
		for i := 0; i < 8; i++ {
			v = b.Addi(v, 1)
		}
		b.Stg(v, v, 0x200000)
		b.Exit()
		return b.MustKernel()
	}()
	ld := func() *isa.Kernel {
		b := isa.NewBuilder("ld", 4)
		mask := b.Movi(0xFFFFC)
		v := b.Movi(0x100000)
		for i := 0; i < 8; i++ {
			v = b.Ldg(v, 0) // dependent loads (pointer chase)
			v = b.Op2(isa.OpAND, v, mask)
		}
		b.Stg(v, v, 0x200000)
		b.Exit()
		return b.MustKernel()
	}()
	cfgv := testConfig()
	cfgv.Warps = 4
	stALU, _ := runSim(t, alu, cfgv)
	stLD, _ := runSim(t, ld, cfgv)
	if stLD.Cycles < stALU.Cycles*3 {
		t.Fatalf("memory latency invisible: ALU %d cycles, load chain %d", stALU.Cycles, stLD.Cycles)
	}
}

func TestSimCoalescing(t *testing.T) {
	// Coalesced access: one line per warp load.
	co := func() *isa.Kernel {
		b := isa.NewBuilder("co", 4)
		tid := b.Tid()
		a := b.OpImm(isa.OpSHLI, tid, 2)
		v := b.Ldg(a, 0x100000)
		b.Stg(a, v, 0x200000)
		b.Exit()
		return b.MustKernel()
	}()
	// Scattered: 128-byte stride per lane -> 32 lines per warp load.
	sc := func() *isa.Kernel {
		b := isa.NewBuilder("sc", 4)
		tid := b.Tid()
		a := b.OpImm(isa.OpSHLI, tid, 7)
		v := b.Ldg(a, 0x100000)
		b.Stg(a, v, 0x200000)
		b.Exit()
		return b.MustKernel()
	}()
	cfgv := testConfig()
	cfgv.Warps = 4
	stCo, _ := runSim(t, co, cfgv)
	stSc, _ := runSim(t, sc, cfgv)
	// co: 4 warps x (1 load + 1 store) = 8 lines.
	if stCo.MemLines != 8 {
		t.Fatalf("coalesced lines = %d, want 8", stCo.MemLines)
	}
	if stSc.MemLines != 8*32 {
		t.Fatalf("scattered lines = %d, want 256", stSc.MemLines)
	}
}

func TestSimBarrier(t *testing.T) {
	b := isa.NewBuilder("bar", 4)
	lane := b.Lane()
	sa := b.Muli(lane, 4)
	wid := b.Wid()
	b.Sts(sa, wid, 0)
	b.Bar()
	v := b.Lds(sa, 0)
	tid := b.Tid()
	ga := b.Muli(tid, 4)
	b.Stg(ga, v, 0x200000)
	b.Exit()
	k := b.MustKernel()
	st, _ := runSim(t, k, testConfig())
	if st.Barriers != 16 {
		t.Fatalf("barriers executed = %d, want 16", st.Barriers)
	}
}

func TestTwoLevelSchedulerCompletes(t *testing.T) {
	cfgv := testConfig()
	cfgv.Sched = SchedTwoLevel
	cfgv.ActiveSet = 2
	k := smallKernel(t)
	st, mm := runSim(t, k, cfgv)
	ref, err := exec.Run(k, cfgv.Warps, exec.NewMemory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := mm.GlobalStores(); !maps.Equal(got, ref.Stores) {
		t.Fatalf("two-level run diverged: %d stored words, functional %d", len(got), len(ref.Stores))
	}
	if st.Cycles == 0 {
		t.Fatal("no cycles")
	}
}

func TestWindowStatsPopulated(t *testing.T) {
	cfgv := testConfig()
	cfgv.WindowSize = 50
	st, _ := runSim(t, smallKernel(t), cfgv)
	if st.WorkingSetKB <= 0 {
		t.Fatalf("working set = %v", st.WorkingSetKB)
	}
	if len(st.BackingSeries) == 0 {
		t.Fatal("no backing-store series sampled")
	}
}

func TestGTOStickiness(t *testing.T) {
	// With a pure ALU kernel and GTO, the same warp should issue
	// repeatedly: total cycles ≈ serialized dependent chains of warp 0,
	// then others overlap. Mostly this is a smoke test that GTO doesn't
	// round-robin pathologically (cycles should be well under
	// warps x chainLatency).
	b := isa.NewBuilder("sticky", 4)
	v := b.Movi(1)
	for i := 0; i < 20; i++ {
		v = b.Addi(v, 1)
	}
	b.Stg(v, v, 0x200000)
	b.Exit()
	k := b.MustKernel()
	cfgv := testConfig()
	cfgv.Warps = 16
	st, _ := runSim(t, k, cfgv)
	serial := uint64(16/4) * 20 * uint64(cfgv.ALULat)
	if st.Cycles >= serial {
		t.Fatalf("GTO failed to overlap warps: %d cycles >= %d", st.Cycles, serial)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	cfgv := testConfig()
	cfgv.MaxCycles = 10
	mm := exec.NewMemory(nil)
	sm, err := New(nil, cfgv, smallKernel(t), &nullProvider{}, mm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.Run(); err == nil {
		t.Fatal("MaxCycles guard did not trip")
	}
}

func TestSIMTEfficiency(t *testing.T) {
	// Uniform kernel: efficiency 1. Divergent diamond: below 1.
	uniform := smallKernel(t)
	stU, _ := runSim(t, uniform, testConfig())
	if e := stU.SIMTEfficiency(); e != 1.0 {
		t.Fatalf("uniform efficiency = %v", e)
	}
	b := isa.NewBuilder("div", 4)
	lane := b.Lane()
	parity := b.Op2(isa.OpAND, lane, b.Movi(1))
	elseL, join := b.Label(), b.Label()
	b.Bnz(parity, elseL)
	x := b.Addi(lane, 1)
	_ = x
	b.Bra(join)
	b.Bind(elseL)
	y := b.Addi(lane, 2)
	_ = y
	b.Bind(join)
	addr := b.Muli(lane, 4)
	b.Stg(addr, lane, 0x200000)
	b.Exit()
	k := b.MustKernel()
	stD, _ := runSim(t, k, testConfig())
	if e := stD.SIMTEfficiency(); e >= 1.0 || e <= 0.5 {
		t.Fatalf("divergent efficiency = %v, want in (0.5, 1)", e)
	}
}
