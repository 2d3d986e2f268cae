// Package compress implements the RegLess register compressor (paper
// §5.3): a pattern matcher over 32-lane register values, the
// compressed-register bit vector, and the small compressed-line cache that
// sits between the operand staging unit and the L1.
//
// The pattern set is deliberately simpler than general register file
// compression (Warped-Compression, G-Scalar): constants, stride-1,
// stride-4, and half-warp variants of the strides. A compressed register
// occupies 4 bytes (8 for half-warp patterns) plus 3 state bits, so 15
// compressed registers pack into one 128-byte cache line; compressed lines
// live in a memory space adjacent to the uncompressed register backing
// store.
package compress

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Pattern classifies a register value across lanes.
type Pattern uint8

const (
	// PatNone marks an incompressible value.
	PatNone Pattern = iota
	// PatConst: every lane holds the same value (4 B).
	PatConst
	// PatStride1: lane i holds base+i (4 B).
	PatStride1
	// PatStride4: lane i holds base+4i (4 B) — the address-arithmetic
	// pattern coalesced kernels produce constantly.
	PatStride4
	// PatHalfStride1: each half-warp is an independent stride-1 run (8 B).
	PatHalfStride1
	// PatHalfStride4: each half-warp is an independent stride-4 run (8 B).
	PatHalfStride4

	// NumPatterns counts the states (fits the paper's 3 bits/register).
	NumPatterns
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatConst:
		return "const"
	case PatStride1:
		return "stride1"
	case PatStride4:
		return "stride4"
	case PatHalfStride1:
		return "half-stride1"
	case PatHalfStride4:
		return "half-stride4"
	default:
		return "none"
	}
}

// Bytes returns the compressed size in bytes (0 for PatNone).
func (p Pattern) Bytes() int {
	switch p {
	case PatConst, PatStride1, PatStride4:
		return 4
	case PatHalfStride1, PatHalfStride4:
		return 8
	default:
		return 0
	}
}

// RegsPerLine is how many compressed registers fit in one 128 B cache
// line (the paper's figure: 8 B worst-case value + 3 state bits each).
const RegsPerLine = 15

// Match classifies a register's lane values.
func Match(v *[isa.WarpWidth]uint32) Pattern {
	if stride(v, 0, isa.WarpWidth, 0) {
		return PatConst
	}
	if stride(v, 0, isa.WarpWidth, 1) {
		return PatStride1
	}
	if stride(v, 0, isa.WarpWidth, 4) {
		return PatStride4
	}
	half := isa.WarpWidth / 2
	if stride(v, 0, half, 1) && stride(v, half, isa.WarpWidth, 1) {
		return PatHalfStride1
	}
	if stride(v, 0, half, 4) && stride(v, half, isa.WarpWidth, 4) {
		return PatHalfStride4
	}
	return PatNone
}

func stride(v *[isa.WarpWidth]uint32, lo, hi int, s uint32) bool {
	base := v[lo]
	for i := lo + 1; i < hi; i++ {
		if v[i] != base+uint32(i-lo)*s {
			return false
		}
	}
	return true
}

// PatternSet restricts which patterns the matcher may use (ablations).
type PatternSet uint8

const (
	// PatternsFull is the paper's set: const, stride-1/4, half-warp.
	PatternsFull PatternSet = iota
	// PatternsConstOnly matches only uniform (broadcast) values.
	PatternsConstOnly
	// PatternsFullWarpOnly drops the half-warp variants.
	PatternsFullWarpOnly
)

// Allowed reports whether the set permits a pattern.
func (ps PatternSet) Allowed(p Pattern) bool {
	switch ps {
	case PatternsConstOnly:
		return p == PatConst
	case PatternsFullWarpOnly:
		return p == PatConst || p == PatStride1 || p == PatStride4
	default:
		return p != PatNone
	}
}

// Config sizes the compressor.
type Config struct {
	// CacheLines is the internal compressed-line storage (Table 1:
	// 48 lines per SM = 12 per shard).
	CacheLines int
	// NumRegs and Warps size the bit vector and line mapping.
	NumRegs int
	Warps   int
	// Patterns restricts the matcher (PatternsFull by default).
	Patterns PatternSet
}

// Stats counts compressor events for the energy model.
type Stats struct {
	Matches      uint64 `metric:"matches"`    // pattern-match operations (eviction side)
	Hits         uint64 `metric:"hits"`       // compressible evictions
	Misses       uint64 `metric:"misses"`     // incompressible evictions
	BitChecks    uint64 `metric:"bit_checks"` // bit-vector lookups (preload side)
	CacheHits    uint64 `metric:"cache_hits"` // compressed-line cache hits
	CacheMisses  uint64 `metric:"cache_misses"`
	LineFetches  uint64 `metric:"line_fetches"`  // compressed lines fetched from L1
	LineEvicts   uint64 `metric:"line_evicts"`   // dirty compressed lines written to L1
	Invalidation uint64 `metric:"invalidations"` // compressed entries dropped by invalidations

	// PatHits breaks Hits down by matched pattern (PatHits[PatNone] stays
	// zero); the hit-mix figure reads these.
	PatHits [NumPatterns]uint64
}

// Compressor is one shard's compressor unit. It tracks which (warp,
// register) pairs currently hold a compressed backing copy and models the
// compressed-line cache; actual values stay in the functional state.
type Compressor struct {
	cfg   Config
	Stats Stats

	// compressed[index] == pattern (PatNone when not compressed); the
	// hardware's bit vector plus 3-bit state array.
	compressed []Pattern

	// cache is the compressed-line cache: the resident lines, unordered,
	// with room for CacheLines. A dozen entries are searched faster than
	// hashed, and the LRU victim walk visits them all anyway.
	cache []cline
	clock uint64
}

type cline struct {
	id    uint32
	dirty bool
	lru   uint64
}

// New builds a compressor, allocated from a (nil: the heap).
func New(a *arena.Arena, cfg Config) *Compressor {
	c := arena.New[Compressor](a)
	*c = Compressor{
		cfg:        cfg,
		compressed: arena.Make[Pattern](a, cfg.NumRegs*cfg.Warps),
		cache:      arena.Make[cline](a, cfg.CacheLines)[:0],
	}
	return c
}

func (c *Compressor) index(warp int, reg isa.Reg) int {
	return warp*c.cfg.NumRegs + int(reg)
}

// LineID returns the compressed line holding (warp, reg).
func (c *Compressor) LineID(warp int, reg isa.Reg) uint32 {
	return uint32(c.index(warp, reg) / RegsPerLine)
}

// LineAddr returns the memory address of a compressed line.
func LineAddr(line uint32) uint32 {
	return mem.CompressedBase + line*mem.LineSize
}

// IsCompressed checks the bit vector (one preload-side check).
func (c *Compressor) IsCompressed(warp int, reg isa.Reg) bool {
	c.Stats.BitChecks++
	return c.compressed[c.index(warp, reg)] != PatNone
}

// CacheResult describes a compressed-line cache access.
type CacheResult struct {
	Hit bool
	// FetchLine, when valid, is the line address to read from L1.
	FetchLine uint32
	HasFetch  bool
	// WritebackLine, when valid, is a dirty victim to write to L1.
	WritebackLine uint32
	HasWriteback  bool
}

// AccessLine touches (warp, reg)'s compressed line in the cache, marking
// it dirty for writes. On a miss the caller must fetch FetchLine from L1;
// a dirty victim's writeback is returned as well.
func (c *Compressor) AccessLine(warp int, reg isa.Reg, write bool) CacheResult {
	c.clock++
	line := c.LineID(warp, reg)
	for i := range c.cache {
		if e := &c.cache[i]; e.id == line {
			c.Stats.CacheHits++
			e.lru = c.clock
			if write {
				e.dirty = true
			}
			return CacheResult{Hit: true}
		}
	}
	c.Stats.CacheMisses++
	res := CacheResult{FetchLine: LineAddr(line), HasFetch: true}
	if len(c.cache) < cap(c.cache) {
		c.cache = append(c.cache, cline{id: line, dirty: write, lru: c.clock})
	} else {
		// Evict LRU; the incoming line takes its place.
		victim := &c.cache[0]
		for i := range c.cache {
			if c.cache[i].lru < victim.lru {
				victim = &c.cache[i]
			}
		}
		if victim.dirty {
			c.Stats.LineEvicts++
			res.WritebackLine = LineAddr(victim.id)
			res.HasWriteback = true
		}
		*victim = cline{id: line, dirty: write, lru: c.clock}
	}
	if res.HasFetch {
		c.Stats.LineFetches++
	}
	return res
}

// TryCompress pattern-matches an evicted value; on success it records the
// register as compressed and returns (pattern, true). The caller then
// calls AccessLine(write=true) to account the line update.
func (c *Compressor) TryCompress(warp int, reg isa.Reg, v *[isa.WarpWidth]uint32) (Pattern, bool) {
	c.Stats.Matches++
	p := Match(v)
	if p != PatNone && !c.cfg.Patterns.Allowed(p) {
		p = PatNone
	}
	if p == PatNone {
		c.Stats.Misses++
		c.compressed[c.index(warp, reg)] = PatNone
		return PatNone, false
	}
	c.Stats.Hits++
	c.Stats.PatHits[p]++
	c.compressed[c.index(warp, reg)] = p
	return p, true
}

// Drop removes a compressed entry (invalidating read or cache
// invalidation of a compressed register). It reports whether the register
// was compressed — if so, no L1 traffic is needed for the invalidation.
func (c *Compressor) Drop(warp int, reg isa.Reg) bool {
	i := c.index(warp, reg)
	if c.compressed[i] == PatNone {
		return false
	}
	c.compressed[i] = PatNone
	c.Stats.Invalidation++
	return true
}

// CorruptPattern flips one entry of the pattern bit vector (fault
// injection: a compressed register loses its mark, or an uncompressed
// one gains a spurious PatConst). Values live in the functional state,
// so the corruption perturbs only preload routing and timing — the
// RegLess transparency guarantee must tolerate it. Returns a description
// of what flipped.
func (c *Compressor) CorruptPattern(pick int) string {
	i := pick % len(c.compressed)
	old := c.compressed[i]
	if old == PatNone {
		c.compressed[i] = PatConst
	} else {
		c.compressed[i] = PatNone
	}
	warp := i / c.cfg.NumRegs
	reg := i % c.cfg.NumRegs
	return fmt.Sprintf("bit-vector w%d r%d %v -> %v", warp, reg, old, c.compressed[i])
}

// CompressedCount returns the live compressed-register population (tests).
func (c *Compressor) CompressedCount() int {
	n := 0
	for _, p := range c.compressed {
		if p != PatNone {
			n++
		}
	}
	return n
}
