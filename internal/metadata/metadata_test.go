package metadata

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/regalloc"
	"repro/internal/regions"
)

func randomAnnotations(rng *rand.Rand, compact bool) Annotations {
	a := Annotations{Compact: compact}
	maxE, maxI := 20, 25
	bankMax := 16
	if compact {
		maxE, maxI = compactEntries, compactInsns
		bankMax = compactBankLimit + 1
	}
	for b := range a.BankUsage {
		a.BankUsage[b] = rng.Intn(bankMax)
	}
	for i := 0; i < rng.Intn(maxE+1); i++ {
		a.Entries = append(a.Entries, Entry{
			Reg:        isa.Reg(rng.Intn(64)),
			Invalidate: rng.Intn(2) == 0,
			CacheInval: rng.Intn(3) == 0,
		})
	}
	n := 1 + rng.Intn(maxI)
	for i := 0; i < n; i++ {
		var f InsnFlags
		for s := 0; s < 4; s++ {
			f.LastUse[s] = rng.Intn(3) == 0
			f.Erase[s] = f.LastUse[s] && rng.Intn(2) == 0
		}
		a.Flags = append(a.Flags, f)
	}
	return a
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		compact := rng.Intn(2) == 0
		a := randomAnnotations(rng, compact)
		words, err := Encode(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := Decode(words, len(a.Flags), a.Compact)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got.Compact = a.Compact
		if !reflect.DeepEqual(a, got) {
			t.Fatalf("trial %d roundtrip mismatch:\n got %+v\nwant %+v", trial, got, a)
		}
	}
}

func TestCompactSingleWord(t *testing.T) {
	a := Annotations{Compact: true}
	a.BankUsage[0] = 2
	a.Entries = []Entry{{Reg: 3, Invalidate: true}}
	a.Flags = make([]InsnFlags, 3)
	a.Flags[0].LastUse[0] = true
	words, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 1 {
		t.Fatalf("compact encoding used %d words, want 1", len(words))
	}
}

func TestCostScalesWithRegion(t *testing.T) {
	// Flag word + entries + one last-use word per 6 instructions.
	a := Annotations{}
	a.Flags = make([]InsnFlags, 13) // ceil(13/6) = 3 words
	a.Entries = make([]Entry, 9)    // 2 in flag word + ceil(7/6) = 2 words
	words, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 2 + 3
	if len(words) != want {
		t.Fatalf("words = %d, want %d", len(words), want)
	}
}

func TestTooManyEntriesRejected(t *testing.T) {
	a := Annotations{Entries: make([]Entry, maxEntries+1)}
	if _, err := Encode(a); err == nil {
		t.Fatal("Encode accepted an over-long entry list")
	}
}

func TestBankUsageOverflowRejected(t *testing.T) {
	a := Annotations{}
	a.BankUsage[0] = 16
	if _, err := Encode(a); err == nil {
		t.Fatal("Encode accepted out-of-range bank usage")
	}
}

// buildCompiled compiles a nontrivial kernel for integration tests.
func buildCompiled(t *testing.T) *regions.Compiled {
	t.Helper()
	b := isa.NewBuilder("meta", 2)
	tid := b.Tid()
	i := b.Addi(tid, 4)
	acc := b.Movi(0)
	top := b.Label()
	b.Bind(top)
	addr := b.Muli(i, 8)
	v := b.Ldg(addr, 0)
	v2 := b.Sfu(v)
	b.Op2To(isa.OpIADD, acc, acc, v2)
	b.OpImmTo(isa.OpIADDI, i, i, ^uint32(0))
	b.Bnz(i, top)
	b.Stg(acc, acc, 0)
	b.Exit()
	alloc, err := regalloc.Allocate(b.MustKernel())
	if err != nil {
		t.Fatal(err)
	}
	c, err := regions.Compile(alloc.Kernel, regions.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildEncodeDecodeRealKernel(t *testing.T) {
	c := buildCompiled(t)
	for _, r := range c.Regions {
		a := Build(c, r)
		words, err := Encode(a)
		if err != nil {
			t.Fatalf("region %d: %v", r.ID, err)
		}
		got, err := Decode(words, len(a.Flags), a.Compact)
		if err != nil {
			t.Fatalf("region %d: %v", r.ID, err)
		}
		got.Compact = a.Compact
		if !reflect.DeepEqual(a, got) {
			t.Fatalf("region %d roundtrip mismatch:\n got %+v\nwant %+v", r.ID, got, a)
		}
		// Every preload and invalidation must appear as an entry.
		if len(a.Entries) != len(r.Preloads)+len(r.CacheInvalidations) {
			t.Fatalf("region %d: %d entries for %d preloads + %d invalidations",
				r.ID, len(a.Entries), len(r.Preloads), len(r.CacheInvalidations))
		}
	}
}

func TestApplySetsCosts(t *testing.T) {
	c := buildCompiled(t)
	total, err := Apply(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, r := range c.Regions {
		if r.MetaInsns < 1 {
			t.Fatalf("region %d has metadata cost %d", r.ID, r.MetaInsns)
		}
		sum += r.MetaInsns
	}
	if sum != total {
		t.Fatalf("Apply total %d != sum %d", total, sum)
	}
}

func TestAnnotationsZeroValueEncodes(t *testing.T) {
	var a Annotations
	words, err := Encode(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(words, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.BankUsage, a.BankUsage) || len(got.Entries) != 0 {
		t.Fatalf("zero-value roundtrip: %+v", got)
	}
}
