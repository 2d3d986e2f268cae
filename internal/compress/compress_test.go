package compress

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func lanes(f func(i int) uint32) *[isa.WarpWidth]uint32 {
	var v [isa.WarpWidth]uint32
	for i := range v {
		v[i] = f(i)
	}
	return &v
}

func TestMatchPatterns(t *testing.T) {
	cases := []struct {
		name string
		v    *[isa.WarpWidth]uint32
		want Pattern
	}{
		{"const", lanes(func(i int) uint32 { return 42 }), PatConst},
		{"stride1", lanes(func(i int) uint32 { return 100 + uint32(i) }), PatStride1},
		{"stride4", lanes(func(i int) uint32 { return 0x1000 + 4*uint32(i) }), PatStride4},
		{"half1", lanes(func(i int) uint32 {
			if i < 16 {
				return 7 + uint32(i)
			}
			return 9000 + uint32(i-16)
		}), PatHalfStride1},
		{"half4", lanes(func(i int) uint32 {
			if i < 16 {
				return 4 * uint32(i)
			}
			return 1<<20 + 4*uint32(i-16)
		}), PatHalfStride4},
		{"random", lanes(func(i int) uint32 { return uint32(i * i * 2654435761) }), PatNone},
	}
	for _, c := range cases {
		if got := Match(c.v); got != c.want {
			t.Errorf("%s: Match = %v, want %v", c.name, got, c.want)
		}
	}
}

// Property: a register built as base + lane*stride for stride in {0,1,4}
// always compresses; the compressed size is at most 8 bytes.
func TestQuickStridesCompress(t *testing.T) {
	f := func(base uint32, sel uint8) bool {
		stride := []uint32{0, 1, 4}[sel%3]
		v := lanes(func(i int) uint32 { return base + stride*uint32(i) })
		p := Match(v)
		return p != PatNone && p.Bytes() > 0 && p.Bytes() <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: perturbing one lane of a stride pattern with a non-stride
// delta breaks full-warp compression into at most a half-warp pattern or
// none.
func TestPerturbationBreaksPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		base := rng.Uint32()
		v := lanes(func(i int) uint32 { return base + 4*uint32(i) })
		lane := rng.Intn(isa.WarpWidth)
		v[lane] += 1 + uint32(rng.Intn(100))
		p := Match(v)
		if p == PatConst || p == PatStride1 || p == PatStride4 {
			t.Fatalf("perturbed lane %d still matched %v", lane, p)
		}
	}
}

func newTestCompressor() *Compressor {
	return New(nil, Config{CacheLines: 2, NumRegs: 16, Warps: 4})
}

func TestCompressorBitVector(t *testing.T) {
	c := newTestCompressor()
	v := lanes(func(i int) uint32 { return 5 })
	if c.IsCompressed(1, 3) {
		t.Fatal("fresh compressor has compressed entries")
	}
	p, ok := c.TryCompress(1, 3, v)
	if !ok || p != PatConst {
		t.Fatalf("TryCompress = %v, %v", p, ok)
	}
	if !c.IsCompressed(1, 3) {
		t.Fatal("bit vector not set")
	}
	if c.IsCompressed(1, 4) || c.IsCompressed(2, 3) {
		t.Fatal("bit vector cross-talk")
	}
	if !c.Drop(1, 3) {
		t.Fatal("Drop missed compressed entry")
	}
	if c.IsCompressed(1, 3) {
		t.Fatal("entry survived Drop")
	}
	if c.Drop(1, 3) {
		t.Fatal("double Drop succeeded")
	}
}

func TestCompressorIncompressible(t *testing.T) {
	c := newTestCompressor()
	v := lanes(func(i int) uint32 { return uint32(i*i + 7) })
	if _, ok := c.TryCompress(0, 0, v); ok {
		t.Fatal("random value compressed")
	}
	if c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestCompressedLineSharing(t *testing.T) {
	c := newTestCompressor()
	// Registers 0 and 1 of warp 0 share a compressed line (15/line).
	if c.LineID(0, 0) != c.LineID(0, 14) {
		t.Fatal("regs 0 and 14 should share a line")
	}
	if c.LineID(0, 0) == c.LineID(0, 15) {
		t.Fatal("reg 15 should start a new line")
	}
}

func TestCompressedCacheEviction(t *testing.T) {
	c := newTestCompressor() // 2 cache lines
	r1 := c.AccessLine(0, 0, true)
	if r1.Hit || !r1.HasFetch {
		t.Fatalf("first access: %+v", r1)
	}
	r2 := c.AccessLine(0, 0, false)
	if !r2.Hit {
		t.Fatal("second access missed")
	}
	c.AccessLine(1, 0, true)        // second line
	r4 := c.AccessLine(2, 0, false) // third line: evicts LRU (line of w0)
	if !r4.HasFetch {
		t.Fatal("third line should fetch")
	}
	if !r4.HasWriteback {
		t.Fatal("evicting a dirty compressed line must write back")
	}
	if c.Stats.LineEvicts != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestCompressedCountTracksPopulation(t *testing.T) {
	c := newTestCompressor()
	v := lanes(func(i int) uint32 { return uint32(i) })
	for r := 0; r < 5; r++ {
		c.TryCompress(0, isa.Reg(r), v)
	}
	if c.CompressedCount() != 5 {
		t.Fatalf("count = %d", c.CompressedCount())
	}
	c.Drop(0, 2)
	if c.CompressedCount() != 4 {
		t.Fatalf("count after drop = %d", c.CompressedCount())
	}
}
