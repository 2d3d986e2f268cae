package cfg_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/gen"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/osu"
	"repro/internal/regalloc"
)

// corpus is every kernel the repository runs or draws: the microkernels,
// the suite and gen's seeds 0-50 (register-allocated, as they are run).
func corpus(t *testing.T) []*isa.Kernel {
	must := func(k *isa.Kernel, err error) *isa.Kernel {
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	ks := []*isa.Kernel{must(kernels.MicroRegPressure(24)), must(kernels.MicroDivergence(4)),
		must(kernels.MicroPointerChase(8)), must(kernels.MicroOccupancy())}
	for _, name := range kernels.Names() {
		ks = append(ks, kernels.MustLoad(name))
	}
	for seed := int64(0); seed <= 50; seed++ {
		a, err := regalloc.Allocate(gen.Kernel(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ks = append(ks, a.Kernel)
	}
	return ks
}

// checkDecoded holds every record of g to what the issuing cycle asked
// the ISA before there were records: the instruction and its place
// (PC, global index, the fallthrough's index), its class — which is
// also its latency, read off the SM's configuration by class at issue —,
// its sources (the valid operands, in order) and destination (written
// only when the opcode has one), its scoreboard need mask (sources and
// destination, in NeedWords words), and its RegLess bank-conflict count,
// which must equal the collisions osu.Bank makes among its sources for
// a warp at every bank rotation.
func checkDecoded(g *cfg.Graph) error {
	k := g.K
	if want := max((k.NumRegs+63)/64, 1); g.NeedWords != want {
		return fmt.Errorf("NeedWords %d, want %d", g.NeedWords, want)
	}
	if len(g.Insns) != g.NumInsns() {
		return fmt.Errorf("%d records for %d instructions", len(g.Insns), g.NumInsns())
	}
	banks := osu.New(nil, osu.Config{Banks: isa.NumBanks, LinesPerBank: 1, Warps: isa.NumBanks, NumRegs: k.NumRegs})
	gi := 0
	for b, blk := range k.Blocks {
		for i := range blk.Insns {
			in, d, pc := &blk.Insns[i], &g.Insns[gi], isa.PC{Block: b, Index: i}
			fail := func(format string, args ...any) error {
				return fmt.Errorf("B%d:%d (%v): %s", b, i, in.Op, fmt.Sprintf(format, args...))
			}
			next := int32(gi + 1)
			if i == len(blk.Insns)-1 {
				next = -1
			}
			switch {
			case d.In != in || d.PC != pc:
				return fail("record names %v at %v", d.In, d.PC)
			case int(d.GI) != g.GlobalIndex(pc) || d.Next != next:
				return fail("global index %d, next %d; want %d, %d", d.GI, d.Next, g.GlobalIndex(pc), next)
			case d.Class != in.Op.ClassOf():
				return fail("class %v, want %v", d.Class, in.Op.ClassOf())
			}
			var srcs []isa.Reg
			need := make([]uint64, g.NeedWords)
			for s := 0; s < in.Op.NumSrc(); s++ {
				if r := in.Src[s]; r.Valid() {
					srcs = append(srcs, r)
					need[r/64] |= 1 << (r % 64)
				}
			}
			dst := isa.NoReg
			if in.Op.HasDst() && in.Dst.Valid() {
				dst = in.Dst
				need[dst/64] |= 1 << (dst % 64)
			}
			switch {
			case !slices.Equal(d.Srcs(), srcs) || int(d.NSrc) != len(srcs):
				return fail("sources %v (%d), want %v", d.Srcs(), d.NSrc, srcs)
			case d.Dst != dst:
				return fail("destination %v, want %v", d.Dst, dst)
			case !slices.Equal(d.Need, need):
				return fail("need mask %x, want %x", d.Need, need)
			}
			for w := 0; w < isa.NumBanks; w++ {
				var used [isa.NumBanks]bool
				collisions := 0
				for _, r := range srcs {
					if bank := banks.Bank(w, r); used[bank] {
						collisions++
					} else {
						used[bank] = true
					}
				}
				if int(d.BankConflicts) != collisions {
					return fail("%d bank conflicts, but warp %d's sources collide %d times", d.BankConflicts, w, collisions)
				}
			}
			gi++
		}
	}
	return nil
}

// TestDecodedRecordsMatchISA runs checkDecoded over the whole corpus, on
// the records cfg.For hands every consumer.
func TestDecodedRecordsMatchISA(t *testing.T) {
	for _, k := range corpus(t) {
		g, _ := cfg.For(k)
		if err := checkDecoded(g); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

// TestDecodedCheckCatchesPlantedRecords plants one wrong field at a time
// in a copy of lud's records and requires checkDecoded to notice each.
func TestDecodedCheckCatchesPlantedRecords(t *testing.T) {
	g, _ := cfg.For(kernels.MustLoad("lud"))
	// The first instruction with two sources in different banks and a
	// destination: every field below has something to get wrong.
	at := slices.IndexFunc(g.Insns, func(d cfg.Insn) bool { return d.NSrc >= 2 && d.BankConflicts == 0 && d.Dst != isa.NoReg })
	if at < 0 {
		t.Fatal("lud has no two-source instruction")
	}
	plants := map[string]func(d *cfg.Insn){
		"class":          func(d *cfg.Insn) { d.Class = isa.ClassSFU },
		"source count":   func(d *cfg.Insn) { d.NSrc-- },
		"source":         func(d *cfg.Insn) { d.Src[0]++ },
		"destination":    func(d *cfg.Insn) { d.Dst = isa.NoReg },
		"need mask":      func(d *cfg.Insn) { d.Need = []uint64{d.Need[0] ^ 1<<63} },
		"bank conflicts": func(d *cfg.Insn) { d.BankConflicts = 1 },
		"fallthrough":    func(d *cfg.Insn) { d.Next = -1 },
		"global index":   func(d *cfg.Insn) { d.GI++ },
	}
	for name, plant := range plants {
		bad := *g
		bad.Insns = slices.Clone(g.Insns)
		plant(&bad.Insns[at])
		if err := checkDecoded(&bad); err == nil {
			t.Errorf("a wrong %s passed the check", name)
		}
	}
	if err := checkDecoded(g); err != nil {
		t.Fatalf("the unplanted records fail: %v", err)
	}
}
