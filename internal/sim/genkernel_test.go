package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arena"
	"repro/internal/asm"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/regalloc"
)

// kernelGen is the seeded kernel generator the maintained-state
// differentials run over: small, well-formed, race-free programs that
// mix what the pick path branches on — ALU/FMA chains, SFU ops, global
// loads (coalesced and value-scattered) and stores, shared memory behind
// CTA barriers, divergent hammocks, and counted loops whose trip count is
// uniform, per warp, or per lane. width values are kept live from start
// to finish (they are folded into the final store), so the allocated
// register count follows it: at the 8 warps the differential runs, a
// width of 4 or 8 sits under the 128-register OSU point and 16 to 40
// sits over it (the register-pressure shapes of RegDem, arXiv
// 1907.02894).
//
// Well-formed means three things. Barriers sit only in convergent code,
// so every warp of a CTA reaches each one. The result is independent of
// timing — every store goes to a slot only its own thread writes, global
// loads read addresses nobody stores to, a shared slot is read by a
// neighbour only between two barriers — so it must match the functional
// reference under every scheme. And code is emitted in dependency
// chains: the instruction after one that writes a register reads that
// register, or writes nothing for the rest of the block (take/end
// below). The region compiler counts a line whose last touch in a region
// is its own write as free from the next instruction on, while the OSU
// holds it until the writeback; a region that goes on to define another
// register in the same bank then holds a line more than it reserved —
// the first finding of this generator, recorded in ROADMAP.md. Chains
// are the shape that cannot do that, wherever regions are cut.
type kernelGen struct {
	b    *isa.Builder
	rng  *rand.Rand
	live []isa.Reg // the width long-lived values
	cur  isa.Reg   // the register the last instruction wrote, if unread

	tid, lane, wid isa.Reg
	slot           isa.Reg // tid*4: this thread's word in every store window
	nbr            isa.Reg // (tid^32)*4: the same word of the CTA's other warp
}

func (g *kernelGen) pick() isa.Reg { return g.live[g.rng.Intn(len(g.live))] }

// take returns the operand the next instruction must read: the pending
// write if there is one, else any long-lived value.
func (g *kernelGen) take() isa.Reg {
	if r := g.cur; r.Valid() {
		g.cur = isa.NoReg
		return r
	}
	return g.pick()
}

// end closes a chain: a pending write is read by a store to one of this
// thread's slots.
func (g *kernelGen) end() {
	if g.cur.Valid() {
		g.b.Stg(g.slot, g.take(), 0x0200_0000+uint32(g.rng.Intn(64))*0x10000)
	}
}

// put folds the chain into a long-lived value, redefining it in place as
// loop-carried values are, and closes the chain.
func (g *kernelGen) put(op isa.Opcode) {
	dst := g.pick()
	g.b.Op2To(op, dst, g.take(), g.pick())
	g.cur = dst
	g.end()
}

// bits leaves bits [lo, lo+n) of src in cur, with immediates only.
func (g *kernelGen) bits(src isa.Reg, lo, n int) {
	g.cur = g.b.OpImm(isa.OpSHRI, g.b.OpImm(isa.OpSHLI, src, uint32(32-lo-n)), uint32(32-n))
}

var (
	genALU = []isa.Opcode{isa.OpIADD, isa.OpISUB, isa.OpXOR, isa.OpMIN, isa.OpMAX, isa.OpAND, isa.OpOR}
	genFMA = []isa.Opcode{isa.OpIMUL, isa.OpFADD, isa.OpFMUL}
)

// step emits one chain: straight-line work ending in put, a store, or a
// divergent hammock. Loops call it for their bodies; barriers are not in
// here.
func (g *kernelGen) step(depth int) {
	b, rng := g.b, g.rng
	switch rng.Intn(8) {
	case 0: // dependent ALU chain
		for i := 1 + rng.Intn(4); i > 0; i-- {
			g.cur = b.Op2(genALU[rng.Intn(len(genALU))], g.take(), g.pick())
		}
		g.put(isa.OpXOR)
	case 1: // FMA pipe
		g.cur = b.Op2(genFMA[rng.Intn(len(genFMA))], g.take(), g.pick())
		if rng.Intn(2) == 0 {
			g.cur = b.Op3(isa.OpIMAD, g.take(), g.pick(), g.pick())
		}
		g.put(isa.OpIADD)
	case 2: // SFU, sometimes back to back
		g.cur = b.Sfu(g.take())
		if rng.Intn(2) == 0 {
			g.cur = b.Sfu(g.take())
		}
		g.put(isa.OpIADD)
	case 3: // coalesced global load
		g.cur = b.Addi(g.slot, 0x0100_0000)
		g.cur = b.Ldg(g.take(), uint32(rng.Intn(1024))*4)
		g.put(isa.OpIADD)
	case 4: // scattered global load: the address is a value
		g.bits(g.take(), 0, 14)
		g.cur = b.OpImm(isa.OpSHLI, g.take(), 2)
		g.cur = b.Addi(g.take(), 0x0100_0000)
		g.cur = b.Ldg(g.take(), 0)
		g.put(isa.OpXOR)
	case 5: // global store
		b.Stg(g.slot, g.pick(), 0x0200_0000+uint32(rng.Intn(64))*0x10000)
	default: // divergent hammock over the lanes
		if depth > 1 {
			g.put(isa.OpIADD)
			return
		}
		r := g.pick()
		g.bits(g.lane, rng.Intn(5), 1)
		elseL, join := b.Label(), b.Label()
		b.Bnz(g.take(), elseL)
		for _, op := range []isa.Opcode{isa.OpIADD, isa.OpXOR} {
			if rng.Intn(2) == 0 {
				g.step(depth + 1)
			}
			b.Op2To(op, r, r, g.pick()) // the arm's last write: it ends the block
			if op == isa.OpIADD {
				b.Bra(join)
				b.Bind(elseL)
			}
		}
		b.Bind(join)
	}
}

func genKernel(seed int64) (*isa.Kernel, error) {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder(fmt.Sprintf("gen%d", seed), 2)
	g := &kernelGen{b: b, rng: rng, cur: isa.NoReg}
	widths := []int{4, 8, 16, 28, 40}
	g.live = make([]isa.Reg, widths[rng.Intn(len(widths))])

	g.tid = b.Tid()
	g.slot = b.OpImm(isa.OpSHLI, g.tid, 2)
	b.Stg(g.slot, g.tid, 0x0300_0000)
	g.lane = b.Lane()
	b.Stg(g.slot, g.lane, 0x0301_0000)
	g.wid = b.Wid()
	b.Stg(g.slot, g.wid, 0x0302_0000)
	g.nbr = b.OpImm(isa.OpSHLI, b.Op2(isa.OpXOR, b.Movi(32), g.tid), 2)
	b.Sts(g.nbr, g.tid, 4096) // reads nbr; nobody loads this half of shared memory
	base := []isa.Reg{g.tid, g.lane, g.wid}
	for i := range g.live {
		src := base[i%3]
		if i > 0 {
			src = g.live[i-1] // each long-lived value is derived from the one before
		}
		switch i % 3 {
		case 0:
			g.live[i] = b.Addi(src, rng.Uint32()>>8)
		case 1:
			g.live[i] = b.OpImm(isa.OpIMULI, src, rng.Uint32()|1)
		default:
			g.live[i] = b.Op2(isa.OpXOR, src, base[rng.Intn(3)])
		}
	}
	g.cur = g.live[len(g.live)-1]
	g.end()

	for steps := 6 + rng.Intn(10); steps > 0; steps-- {
		switch rng.Intn(5) {
		case 0: // counted loop
			var i isa.Reg
			switch rng.Intn(3) {
			case 0: // uniform trip count
				i = b.Movi(uint32(2 + rng.Intn(4)))
			case 1: // per warp
				g.bits(g.wid, 0, 2)
				i = b.Addi(g.take(), 1)
			default: // per lane: the loop exit diverges
				g.bits(g.lane, rng.Intn(4), 2)
				i = b.Addi(g.take(), 1)
			}
			top := b.Label()
			b.Bind(top) // the counter's write ended the block before the loop
			for n := 1 + rng.Intn(3); n > 0; n-- {
				g.step(1)
			}
			b.OpImmTo(isa.OpIADDI, i, i, ^uint32(0))
			b.Bnz(i, top)
		case 1: // shared-memory exchange with the CTA's other warp
			b.Sts(g.slot, g.pick(), 0)
			b.Bar()
			g.cur = b.Lds(g.nbr, 0)
			g.put(isa.OpIADD)
			b.Bar()
		default:
			g.step(0)
		}
	}
	g.cur = b.Op2(isa.OpXOR, g.live[0], g.live[1])
	for _, r := range g.live[2:] {
		g.cur = b.Op2(isa.OpXOR, g.take(), r)
	}
	b.Stg(g.slot, g.take(), 0x0303_0000)
	b.Exit()
	virt, err := b.Kernel()
	if err != nil {
		return nil, err
	}
	res, err := regalloc.Allocate(virt)
	if err != nil {
		return nil, err
	}
	return res.Kernel, nil
}

// TestGeneratedKernelDifferential holds the maintained state — ready
// masks, class masks, the provider's issue mask, the timing calendar,
// the tag index, the activation memo — to three references over
// generated kernels, at the five points that differ in how picks are
// made and gated: for each seed and scheme, the mask pick must equal the
// linear oracle pick for pick (with Stats, ProviderStats and mem.Stats),
// a run with fast-forward off must equal the run with it on, a run under
// the sanitizer must stay silent and equal too, and the stored words
// must be the functional reference's. A failure prints the seed and the
// kernel as assembly, which internal/asm (and `kernelinfo`) read back.
//
// A fourth relation rides along: recycled ≡ fresh. Each point's first
// run is built in the arena the previous point — another scheme, or the
// previous seed's kernel with its own register count and pages — was
// built and run in, poisoned on its way back; the point's other runs are
// built on the heap, the recycled run is held to them, and then its
// arena goes back for the next point to build in.
func TestGeneratedKernelDifferential(t *testing.T) {
	arena.Drop()
	arena.SetPoison(true)
	defer arena.SetPoison(false)
	defer arena.Drop()
	const seeds, warps = 50, 8
	points := []struct {
		scheme   experiments.Scheme
		capacity int
	}{
		{experiments.SchemeBaseline, experiments.DefaultCapacity},
		{experiments.SchemeBaseline2L, experiments.DefaultCapacity},
		{experiments.SchemeRFH, experiments.DefaultCapacity},
		{experiments.SchemeRegLess, 128},
		{experiments.SchemeRegLess, 512},
	}
	under, over := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		k, err := genKernel(seed)
		if err != nil {
			t.Fatalf("seed %d: generator produced a malformed kernel: %v", seed, err)
		}
		if k.NumRegs*warps < 128 {
			under++
		} else {
			over++
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: %s\n%s", seed, fmt.Sprintf(format, args...), asm.Format(k))
		}
		ref, err := exec.Run(k, warps, exec.NewMemory(nil))
		if err != nil {
			fail("functional reference: %v", err)
		}
		for _, p := range points {
			where := fmt.Sprintf("%s@%d", p.scheme, p.capacity)
			runIn := func(a *arena.Arena, what string, oracle bool, tweak func(*experiments.SimSetup)) maskedRun {
				t.Helper()
				su := experiments.SimSetup{Capacity: p.capacity, Warps: warps, MaxCycles: 5_000_000,
					Memory: exec.NewMemoryIn(a, nil)}
				if tweak != nil {
					tweak(&su)
				}
				out, err := runPick(a, k, p.scheme, su, nil, oracle)
				if err != nil {
					fail("%s, %s: %v", where, what, err)
				}
				got := su.Memory.GlobalStores()
				if len(got) != len(ref.Stores) {
					fail("%s, %s: %d words stored, reference %d", where, what, len(got), len(ref.Stores))
				}
				for a, v := range ref.Stores {
					if got[a] != v {
						fail("%s, %s: word %#x = %d, reference %d", where, what, a, got[a], v)
					}
				}
				return out
			}
			run := func(what string, oracle bool, tweak func(*experiments.SimSetup)) maskedRun {
				t.Helper()
				return runIn(nil, what, oracle, tweak)
			}
			same := func(what string, got, want maskedRun, ffCounters bool) {
				t.Helper()
				for i := range want.picks {
					if i >= len(got.picks) || got.picks[i] != want.picks[i] {
						fail("%s, %s: pick %d diverges: %+v vs %+v", where, what, i,
							got.picks[min(i, len(got.picks)-1)], want.picks[i])
					}
				}
				if len(got.picks) != len(want.picks) {
					fail("%s, %s: %d picks vs %d", where, what, len(got.picks), len(want.picks))
				}
				if !ffCounters {
					got.stats.FFSkippedCycles, got.stats.FFJumps = want.stats.FFSkippedCycles, want.stats.FFJumps
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					fail("%s, %s: Stats diverge:\n%+v\n%+v", where, what, got.stats, want.stats)
				}
				if got.prov != want.prov {
					fail("%s, %s: ProviderStats diverge:\n%+v\n%+v", where, what, got.prov, want.prov)
				}
				if got.mem != want.mem {
					fail("%s, %s: mem.Stats diverge:\n%+v\n%+v", where, what, got.mem, want.mem)
				}
				if !bytes.Equal(got.jsonl, want.jsonl) {
					fail("%s, %s: JSONL metric streams differ", where, what)
				}
			}
			a := arena.Take()
			recycled := runIn(a, "in a recycled arena", false, nil)
			arena.Put(a)
			masks := run("mask pick", false, nil)
			if len(masks.picks) == 0 {
				fail("%s: no picks logged", where)
			}
			same("recycled arena vs the heap", recycled, masks, true)
			same("mask pick vs linear oracle", masks, run("linear oracle", true, nil), true)
			same("fast-forward on vs off", masks,
				run("fast-forward off", false, func(su *experiments.SimSetup) { su.NoFastForward = true }), false)
			same("plain vs sanitized", masks,
				run("sanitized", false, func(su *experiments.SimSetup) { su.Sanitize = true }), true)
			if arena.Held() != 1 {
				fail("%s: %d arenas parked; the heap runs must neither take nor put one", where, arena.Held())
			}
		}
	}
	if under < 5 || over < 5 {
		t.Errorf("%d kernels under the 128-register point and %d over it: the generator must cover both sides", under, over)
	}
}
