package regions_test

// The validator: a second model of the compiler's contract (DESIGN.md §4).
// It reads the kernel and the graph's blocks, successors and immediate
// postdominators, runs its own liveness, and uses nothing of the
// compiler's analysis (scripts/check.sh keeps its names out of this file).

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/metadata"
	"repro/internal/regalloc"
	"repro/internal/regions"
)

type model struct {
	c *regions.Compiled
	// before[gi] and after[gi] are what one lane may still read around
	// global instruction gi (every write kills); entry[b] is before block b.
	before, after, entry []*bitvec.Set
	// parked[b] is what lanes parked by a divergent branch may read while
	// block b runs (paper §4.4). A conditional branch runs one successor's lanes
	// while the others wait at theirs or, having run their arm, at the
	// reconvergence point, its immediate postdominator: every block
	// reachable from a successor before that point keeps what the other
	// successors and the point read.
	parked []*bitvec.Set
	fs     []string // "check N, region R, reg: why"; check 0 is the shape
}

func newModel(c *regions.Compiled) *model {
	k, g := c.Kernel, c.G
	m := &model{c: c, before: make([]*bitvec.Set, g.NumInsns()), after: make([]*bitvec.Set, g.NumInsns())}
	for range k.Blocks {
		m.entry, m.parked = append(m.entry, bitvec.New(k.NumRegs)), append(m.parked, bitvec.New(k.NumRegs))
	}
	for changed := true; changed; {
		changed = false
		for i := len(g.RPO) - 1; i >= 0; i-- {
			b := g.RPO[i]
			live := m.exit(b)
			for j := len(k.Blocks[b].Insns) - 1; j >= 0; j-- {
				in, gi := &k.Blocks[b].Insns[j], g.GlobalIndex(isa.PC{Block: b, Index: j})
				m.after[gi] = live.Copy()
				if in.Op.HasDst() {
					live.Clear(int(in.Dst))
				}
				for _, s := range in.SrcRegs() {
					live.Set(int(s))
				}
				m.before[gi] = live.Copy()
			}
			if !live.Equal(m.entry[b]) {
				m.entry[b], changed = live, true
			}
		}
	}
	for _, d := range g.RPO {
		for _, s := range g.Succs[d] {
			if len(g.Succs[d]) < 2 {
				break
			}
			waiting, p := bitvec.New(k.NumRegs), g.IPDom[d]
			for _, o := range append(slices.Clone(g.Succs[d]), p) {
				if o >= 0 && o != s {
					waiting.Or(m.entry[o])
				}
			}
			seen := map[int]bool{p: true}
			for stack := []int{s}; len(stack) > 0; {
				b := stack[len(stack)-1]
				if stack = stack[:len(stack)-1]; !seen[b] {
					seen[b] = true
					m.parked[b].Or(waiting)
					stack = append(stack, g.Succs[b]...)
				}
			}
		}
	}
	return m
}

func (m *model) exit(b int) *bitvec.Set {
	live := bitvec.New(m.c.Kernel.NumRegs)
	for _, s := range m.c.G.Succs[b] {
		live.Or(m.entry[s])
	}
	return live
}

// needed reports whether some lane may read reg where one lane at a point
// of block b reads live.
func (m *model) needed(live *bitvec.Set, b int, reg isa.Reg) bool {
	return live.Get(int(reg)) || m.parked[b].Get(int(reg))
}

func (m *model) fail(check int, r *regions.Region, reg isa.Reg, format string, args ...any) {
	m.fs = append(m.fs, fmt.Sprintf("check %d, region %d, %v: ", check, r.ID, reg)+fmt.Sprintf(format, args...))
}

func (m *model) insn(r *regions.Region, gi int) *isa.Instruction {
	return &m.c.Kernel.Blocks[r.Block].Insns[r.Start+gi-r.StartGI]
}

// use is one register's use of one region.
type use struct {
	first, last int  // global instructions of its first and last touch; -1: none
	readFirst   bool // the first touch reads it
	lastWrites  bool // the last touch writes it
	written     bool
	preloads    int
}

func (m *model) uses(r *regions.Region) []use {
	us := make([]use, m.c.Kernel.NumRegs)
	for i := range us {
		us[i].first, us[i].last = -1, -1
	}
	for _, p := range r.Preloads {
		us[p.Reg].preloads++
	}
	for gi := r.StartGI; gi < r.EndGI; gi++ {
		in := m.insn(r, gi)
		touch := func(reg isa.Reg, write bool) {
			u := &us[reg]
			if u.first < 0 {
				u.first, u.readFirst = gi, !write
			}
			u.lastWrites = u.last == gi && u.lastWrites || write
			u.last, u.written = gi, u.written || write
		}
		for _, s := range in.SrcRegs() {
			touch(s, false)
		}
		if in.Op.HasDst() {
			touch(in.Dst, true)
		}
	}
	return us
}

func validate(c *regions.Compiled) []string {
	m := newModel(c)
	m.shape()
	cross := bitvec.New(c.Kernel.NumRegs)
	for _, r := range c.Regions {
		us := m.uses(r)
		m.preloads(r, us, cross)
		m.lastUses(r, us)
		m.banks(r, us)
	}
	if !cross.Equal(c.CrossRegs) {
		m.fail(1, &regions.Region{ID: -1}, isa.NoReg, "CrossRegs %v, inputs and outputs %v", c.CrossRegs, cross)
	}
	m.invalidations()
	return m.fs
}

// shape checks that the regions tile the reachable code, one block each,
// within the configured caps, with no global load read in its own region.
func (m *model) shape() {
	c, g := m.c, m.c.G
	owner := make([]int, g.NumInsns())
	for id, r := range c.Regions {
		if r.NumInsns() < 1 || r.StartGI != g.GlobalIndex(isa.PC{Block: r.Block, Index: r.Start}) || r.NumInsns() != r.EndGI-r.StartGI {
			m.fail(0, r, isa.NoReg, "B%d[%d,%d) at gi [%d,%d)", r.Block, r.Start, r.End, r.StartGI, r.EndGI)
		}
		for gi := r.StartGI; gi < r.EndGI; gi++ {
			if owner[gi]++; owner[gi] > 1 || c.RegionOf[gi] != id {
				m.fail(0, r, isa.NoReg, "gi %d in %d regions, RegionOf %d", gi, owner[gi], c.RegionOf[gi])
			}
			in := m.insn(r, gi)
			for j := gi + 1; in.Op.IsGlobalLoad() && j < r.EndGI; j++ {
				if next := m.insn(r, j); slices.Contains(next.SrcRegs(), in.Dst) {
					m.fail(0, r, in.Dst, "loaded at gi %d and read at %d", gi, j)
				} else if next.Op.HasDst() && next.Dst == in.Dst {
					break
				}
			}
		}
		if r.NumInsns() > 1 && (r.MaxLive > c.Cfg.MaxRegsPerRegion || slices.Max(r.BankUsage[:]) > c.Cfg.BankLines) {
			m.fail(0, r, isa.NoReg, "MaxLive %d, bank usage %v over the caps", r.MaxLive, r.BankUsage)
		}
	}
	for _, b := range g.RPO {
		for j := range c.Kernel.Blocks[b].Insns {
			if gi := g.GlobalIndex(isa.PC{Block: b, Index: j}); owner[gi] == 0 {
				m.fail(0, &regions.Region{ID: -1}, isa.NoReg, "gi %d in no region", gi)
			}
		}
	}
}

func setOf(n int, regs []isa.Reg) *bitvec.Set {
	s := bitvec.New(n)
	for _, reg := range regs {
		s.Set(int(reg))
	}
	return s
}

// preloads is condition 1: a register the region reads before writing it
// is preloaded, none twice or while no lane reads it, and the preload of a
// register the region does not write invalidates the backing copy exactly
// when no lane reads it after the region. So is the classification: the
// inputs are the preloads, a register written and read after the region is
// an output, what else it touches is interior, and CrossRegs collects every
// input and output.
func (m *model) preloads(r *regions.Region, us []use, cross *bitvec.Set) {
	n, last := m.c.Kernel.NumRegs, m.after[r.EndGI-1]
	preloaded := bitvec.New(n)
	for _, p := range r.Preloads {
		if preloaded.Set(int(p.Reg)); us[p.Reg].preloads > 1 {
			m.fail(1, r, p.Reg, "preloaded %d times", us[p.Reg].preloads)
		}
		if !m.needed(m.before[r.StartGI], r.Block, p.Reg) {
			m.fail(1, r, p.Reg, "preloaded but dead at the region's entry")
		}
		// A write in the region dirties the line, so every lane's value,
		// a parked lane's preloaded one too, is written back.
		if read := m.needed(last, r.Block, p.Reg); !us[p.Reg].written && p.Invalidate == read {
			m.fail(1, r, p.Reg, "preload invalidating %v, read after the region %v", p.Invalidate, read)
		}
	}
	touched, outputs := bitvec.New(n), setOf(n, r.Outputs)
	for i, u := range us {
		reg := isa.Reg(i)
		if u.first < 0 {
			continue
		}
		touched.Set(i)
		// A first write merges into the line of lanes parked with a value
		// to read later: a read too.
		if (u.readFirst || m.parked[r.Block].Get(i)) && !preloaded.Get(i) {
			m.fail(1, r, reg, "read at gi %d before any write but not preloaded", u.first)
		}
		if u.written && last.Get(i) && !outputs.Get(i) || outputs.Get(i) && !(u.written && m.needed(last, r.Block, reg)) {
			m.fail(1, r, reg, "output %v, written %v, read after the region %v", outputs.Get(i), u.written, last.Get(i))
		}
	}
	inputs, interior := setOf(n, r.Inputs), setOf(n, r.Interior)
	crossing := setOf(n, append(slices.Clone(r.Inputs), r.Outputs...))
	all := setOf(n, append(append(slices.Clone(r.Inputs), r.Outputs...), r.Interior...))
	if !inputs.Equal(preloaded) || interior.Intersects(crossing) || !all.Equal(touched) {
		m.fail(1, r, isa.NoReg, "inputs %v, outputs %v, interior %v; preloads %v, touched %v", inputs, outputs, interior, preloaded, touched)
	}
	cross.Or(crossing)
}

// lastUses is condition 2: each register the region touches carries one
// last-use flag, at its last touch; an erase (the value is dead) only
// where no lane reads the value after it; and metadata.Build marks
// exactly the flagged operands, each on its first source slot, else the
// destination slot.
func (m *model) lastUses(r *regions.Region, us []use) {
	flags := make([]int, m.c.Kernel.NumRegs)
	want := make([]metadata.InsnFlags, r.NumInsns())
	for at := range want {
		gi, in := r.StartGI+at, m.insn(r, r.StartGI+at)
		for _, e := range []struct {
			regs  []isa.Reg
			erase bool
		}{{r.EraseAt[at], true}, {r.EvictAt[at], false}} {
			for _, reg := range e.regs {
				if flags[reg]++; us[reg].last != gi {
					m.fail(2, r, reg, "last-use flag at gi %d, last touch at %d", gi, us[reg].last)
				}
				if e.erase && m.needed(m.after[gi], r.Block, reg) {
					m.fail(2, r, reg, "erased at gi %d but read after it", gi)
				}
				slot := slices.Index(in.Src[:in.Op.NumSrc()], reg)
				if slot < 0 && in.Op.HasDst() && in.Dst == reg {
					slot = 3
				}
				if slot >= 0 {
					want[at].LastUse[slot], want[at].Erase[slot] = true, e.erase
				}
			}
		}
	}
	for i, u := range us {
		if u.first >= 0 && flags[i] != 1 {
			m.fail(2, r, isa.Reg(i), "%d last-use flags", flags[i])
		}
	}
	if got := metadata.Build(m.c, r).Flags; !slices.Equal(got, want) {
		m.fail(2, r, isa.NoReg, "operand flags %v, want %v", got, want)
	}
}

// banks is condition 3: the region reserves in each bank at least the
// lines it holds there at once. An input holds its line from activation,
// a register whose last touch is its own write until the region ends (the
// writeback lands after the issue), any other from its first touch to its
// last. Register reg of warp 0 lives in bank reg mod NumBanks.
func (m *model) banks(r *regions.Region, us []use) {
	for gi := r.StartGI; gi < r.EndGI; gi++ {
		var held [isa.NumBanks][]int
		for reg, u := range us {
			from, until := u.first, u.last
			if u.preloads > 0 {
				from = r.StartGI
			}
			if u.lastWrites || u.first < 0 {
				until = r.EndGI - 1
			}
			if from >= 0 && from <= gi && gi <= until {
				held[reg%isa.NumBanks] = append(held[reg%isa.NumBanks], reg)
			}
		}
		for b, regs := range held {
			if len(regs) > r.BankUsage[b] {
				m.fail(3, r, isa.Reg(regs[0]), "bank %d holds %v at gi %d, reserves %d", b, regs, gi, r.BankUsage[b])
				return
			}
		}
	}
}

// invalidations is condition 4: a cache invalidation sits at the start of
// a region that postdominates every write and every death of its register
// (a read no lane reads after, or an edge into a block no lane reads it
// in), and finds the register dead.
func (m *model) invalidations() {
	c, g := m.c, m.c.G
	points := make([][]isa.PC, c.Kernel.NumRegs) // Index -1: the edge into Block
	for _, b := range g.RPO {
		for j, in := range c.Kernel.Blocks[b].Insns {
			for _, s := range in.SrcRegs() {
				if !m.after[g.GlobalIndex(isa.PC{Block: b, Index: j})].Get(int(s)) {
					points[s] = append(points[s], isa.PC{Block: b, Index: j})
				}
			}
			if in.Op.HasDst() {
				points[in.Dst] = append(points[in.Dst], isa.PC{Block: b, Index: j})
			}
		}
		for _, s := range g.Succs[b] {
			dies := m.exit(b)
			dies.AndNot(m.entry[s])
			dies.ForEach(func(reg int) { points[reg] = append(points[reg], isa.PC{Block: s, Index: -1}) })
		}
	}
	for _, r := range c.Regions {
		for _, reg := range r.CacheInvalidations {
			if i := slices.IndexFunc(points[reg], func(p isa.PC) bool {
				return p.Block == r.Block && p.Index >= r.Start || p.Block != r.Block && !g.PostDominates(r.Block, p.Block)
			}); i >= 0 {
				m.fail(4, r, reg, "invalidated at B%d:%d, which does not postdominate %v", r.Block, r.Start, points[reg][i])
			}
			if m.needed(m.before[r.StartGI], r.Block, reg) {
				m.fail(4, r, reg, "invalidated while a lane may read it")
			}
		}
	}
}

// compile compiles k and fails t on every condition the result violates.
func compile(t *testing.T, k *isa.Kernel, cfg regions.Config) *regions.Compiled {
	t.Helper()
	c, err := regions.Compile(k, cfg)
	if err != nil {
		t.Fatalf("Compile(%s): %v", k.Name, err)
	}
	for _, f := range validate(c) {
		t.Errorf("%s %+v: %s", k.Name, cfg, f)
	}
	return c
}

// TestCorpusValidates holds every kernel the repository runs or draws (the
// microkernels, the suite, gen's seeds 0-50) to the contract at every OSU
// capacity the experiments sweep and at two tighter configurations that
// split regions where no capacity does. Known violations are pinned in
// testdata/findings.txt: any other finding fails, and so does a pinned
// line that no longer matches, so a fix deletes its lines.
func TestCorpusValidates(t *testing.T) {
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
	names, cfgs := []string{"regs6", "lines2"}, []regions.Config{{MaxRegsPerRegion: 6, BankLines: 4, MinRegionInsns: 3},
		{MaxRegsPerRegion: 10, BankLines: 2, MinRegionInsns: 6}}
	for _, capacity := range experiments.Capacities {
		names, cfgs = append(names, fmt.Sprint(capacity)), append(cfgs, core.ConfigForCapacity(capacity).Regions)
	}
	var got []string // "kernel finding @ config config ..."
	for _, k := range ks {
		at := map[string][]string{}
		var order []string
		for i, cfg := range cfgs {
			c, err := regions.Compile(k, cfg)
			if err != nil {
				t.Fatalf("Compile(%s, %s): %v", k.Name, names[i], err)
			}
			for _, f := range validate(c) {
				if at[f] == nil {
					order = append(order, f)
				}
				at[f] = append(at[f], names[i])
			}
		}
		for _, f := range order {
			got = append(got, fmt.Sprintf("%s %s @ %s", k.Name, f, strings.Join(at[f], " ")))
		}
	}
	data, err := os.ReadFile("testdata/findings.txt")
	if err != nil {
		t.Fatal(err)
	}
	pinned := slices.DeleteFunc(strings.Split(string(data), "\n"), func(l string) bool {
		return l == "" || strings.HasPrefix(l, "#")
	})
	for _, l := range got {
		if !slices.Contains(pinned, l) {
			t.Errorf("finding: %s", l)
		}
	}
	for _, l := range pinned {
		if !slices.Contains(got, l) {
			t.Errorf("pinned finding no longer occurs: %s", l)
		}
	}
}

// TestValidatorCatchesPlantedFaults: each condition fails, naming region
// and register, on a fault planted in lud: the fault injector's meta-erase
// and meta-bank, a dropped preload, and an invalidation moved to the entry.
func TestValidatorCatchesPlantedFaults(t *testing.T) {
	some := func(regs []isa.Reg) bool { return len(regs) > 0 }
	for _, tc := range []struct {
		name  string
		check int
		plant func(c *regions.Compiled) (*regions.Region, isa.Reg)
	}{
		{"meta-erase", 2, func(c *regions.Compiled) (*regions.Region, isa.Reg) {
			r := c.Regions[slices.IndexFunc(c.Regions, func(r *regions.Region) bool { return slices.ContainsFunc(r.EraseAt, some) })]
			at := slices.IndexFunc(r.EraseAt, some)
			reg := r.EraseAt[at][0]
			r.EraseAt[at] = r.EraseAt[at][1:]
			return r, reg
		}},
		{"meta-bank", 3, func(c *regions.Compiled) (*regions.Region, isa.Reg) {
			r := c.Regions[0]
			r.BankUsage[slices.Index(r.BankUsage[:], slices.Max(r.BankUsage[:]))] = 0
			return r, isa.NoReg
		}},
		{"dropped preload", 1, func(c *regions.Compiled) (*regions.Region, isa.Reg) {
			r := c.Regions[slices.IndexFunc(c.Regions, func(r *regions.Region) bool { return len(r.Preloads) > 0 })]
			reg := r.Preloads[0].Reg
			r.Preloads = r.Preloads[1:]
			return r, reg
		}},
		{"invalidation moved", 4, func(c *regions.Compiled) (*regions.Region, isa.Reg) {
			r := c.Regions[slices.IndexFunc(c.Regions, func(r *regions.Region) bool { return len(r.CacheInvalidations) > 0 })]
			reg := r.CacheInvalidations[0]
			r.CacheInvalidations = r.CacheInvalidations[1:]
			c.Regions[0].CacheInvalidations = append(c.Regions[0].CacheInvalidations, reg)
			return c.Regions[0], reg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := compile(t, kernels.MustLoad("lud"), regions.DefaultConfig())
			r, reg := tc.plant(c)
			want := fmt.Sprintf("check %d, region %d, %v: ", tc.check, r.ID, reg)
			if reg == isa.NoReg {
				want = fmt.Sprintf("check %d, region %d, ", tc.check, r.ID)
			}
			fs := validate(c)
			if !slices.ContainsFunc(fs, func(f string) bool { return strings.HasPrefix(f, want) }) {
				t.Fatalf("want a finding %q, got:\n%s", want, strings.Join(fs, "\n"))
			}
		})
	}
}
