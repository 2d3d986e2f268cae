package core

import (
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/sim"
)

// randomKernel builds a structured random kernel: ALU bursts, diamonds,
// counted loops with divergent redefinitions, loads/stores with both
// coalesced and scattered addressing, and shared memory with barriers.
func randomKernel(seed int64) *isa.Kernel {
	rng := rand.New(rand.NewSource(seed))
	b := isa.NewBuilder("fuzz", 4)
	tid := b.Tid()
	lane := b.Lane()
	live := []isa.Reg{tid, lane, b.Movi(rng.Uint32() | 1)}
	pick := func() isa.Reg { return live[rng.Intn(len(live))] }
	push := func(r isa.Reg) {
		live = append(live, r)
		if len(live) > 10 {
			live = live[len(live)-10:]
		}
	}
	// Unique per-thread store slots prevent cross-warp races.
	storeSlot := func() isa.Reg {
		return b.Addi(b.Muli(tid, 4), 0x0200_0000+uint32(rng.Intn(64))*0x10000)
	}
	steps := 6 + rng.Intn(10)
	for s := 0; s < steps; s++ {
		switch rng.Intn(6) {
		case 0: // ALU burst
			for i := 0; i < 1+rng.Intn(5); i++ {
				ops := []isa.Opcode{isa.OpIADD, isa.OpISUB, isa.OpXOR, isa.OpMIN, isa.OpMAX, isa.OpIMUL}
				push(b.Op2(ops[rng.Intn(len(ops))], pick(), pick()))
			}
		case 1: // divergent diamond with soft defs
			r := b.Movi(uint32(rng.Intn(100)))
			cond := b.Op2(isa.OpAND, pick(), b.Movi(uint32(1+rng.Intn(7))))
			elseL, join := b.Label(), b.Label()
			b.Bnz(cond, elseL)
			b.Op2To(isa.OpIADD, r, r, pick())
			b.Bra(join)
			b.Bind(elseL)
			b.Op2To(isa.OpXOR, r, r, pick())
			b.Bind(join)
			push(r)
		case 2: // counted loop
			i := b.Movi(uint32(2 + rng.Intn(4)))
			acc := b.Movi(0)
			top := b.Label()
			b.Bind(top)
			b.Op2To(isa.OpIADD, acc, acc, pick())
			if rng.Intn(2) == 0 {
				v := b.Ldg(b.Addi(b.Muli(pick(), 4), 0x0100_0000), 0)
				b.Op2To(isa.OpXOR, acc, acc, v)
			}
			b.OpImmTo(isa.OpIADDI, i, i, ^uint32(0))
			b.Bnz(i, top)
			push(acc)
		case 3: // memory
			addr := b.Addi(b.Muli(tid, 4), 0x0100_0000)
			v := b.Ldg(addr, uint32(rng.Intn(4096))&^3)
			push(b.Addi(v, 1))
			b.Stg(storeSlot(), pick(), 0)
		case 4: // shared memory + barrier
			sa := b.Muli(tid, 4)
			b.Sts(sa, pick(), 0)
			b.Bar()
			push(b.Lds(sa, 0))
		case 5: // SFU
			push(b.Sfu(pick()))
		}
	}
	b.Stg(storeSlot(), pick(), 4)
	b.Exit()
	return b.MustKernel()
}

// TestFuzzEquivalence runs random kernels under RegLess at random
// capacities and asserts bit-identical final memory versus the functional
// reference — the strongest transparency check in the suite.
func TestFuzzEquivalence(t *testing.T) {
	capacities := []int{128, 256, 512, 1024}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 977))
			virt := randomKernel(seed)
			res, err := regalloc.Allocate(virt)
			if err != nil {
				t.Fatal(err)
			}
			k := res.Kernel
			warps := 4 * (1 + rng.Intn(4))
			capacity := capacities[rng.Intn(len(capacities))]

			cfg := ConfigForCapacity(capacity)
			cfg.EnableCompressor = rng.Intn(4) != 0
			cfg.FIFOStack = rng.Intn(4) == 0
			p, err := New(nil, cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			simCfg := sim.DefaultConfig()
			simCfg.Warps = warps
			simCfg.MaxCycles = 10_000_000
			mm := exec.NewMemory(nil)
			smv, err := sim.New(nil, simCfg, k, p, mm, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := smv.Run(); err != nil {
				t.Fatalf("seed %d warps %d capacity %d: %v", seed, warps, capacity, err)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ref, err := exec.Run(k, warps, exec.NewMemory(nil))
			if err != nil {
				t.Fatal(err)
			}
			got := mm.GlobalStores()
			if len(got) != len(ref.Stores) {
				t.Fatalf("seed %d: %d stores vs %d", seed, len(got), len(ref.Stores))
			}
			for a, v := range ref.Stores {
				if got[a] != v {
					t.Fatalf("seed %d warps %d capacity %d: mismatch at %#x: %d vs %d",
						seed, warps, capacity, a, got[a], v)
				}
			}
		})
	}
}
