// Package exec executes kernels functionally: per-warp architectural
// register state with full 32-lane values, a SIMT reconvergence stack for
// control divergence, and a functional memory. The timing simulator
// (package sim) drives one exec.Warp per hardware warp, deciding *when*
// each instruction issues while exec decides *what* it computes.
//
// Executing functionally at issue time means register values observed by
// the RegLess hardware models (notably the compressor's pattern matcher)
// are genuine values produced by real address arithmetic and loop
// induction, not synthesized statistics.
package exec

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/arena"
)

// The functional memory is paged: 64 KiB pages listed in order of the
// high address bits (a run stores to a handful, so the list is a few
// entries searched by bisection, and it comes from the arena like the
// pages — a map would be rebuilt on the heap every run), with the
// last-touched page cached so the streaming access patterns the kernels
// produce (unit-stride rows, per-warp tiles) hit a two-compare fast path
// instead of a search per lane. Global pages carry a written bitmap
// because unwritten words read through the init generator; shared pages
// don't — their words are zero-initialized, which a zeroed page already
// encodes.
const (
	pageShift = 16                    // 64 KiB of address space per page
	pageWords = 1 << (pageShift - 2)  // 4-byte words per page
	pageMask  = uint32(pageWords - 1) // word-index mask within a page
)

type page struct {
	vals    [pageWords]uint32
	written [pageWords / 64]uint64
}

// A page is 66 KiB and a run touches a handful for a few KB of stores, so
// pages are made on first store — from the memory's arena, where each is
// a chunk of its own that the next machine's pages reuse.
var (
	memoryT   = arena.Of[Memory]()
	pagedMemT = arena.Of[pagedMem]()
	pageT     = arena.Of[page]()
	pageRefT  = arena.Of[pageRef]()
)

// pageRef lists one page under its key (the address bits above pageShift).
type pageRef struct {
	key uint32
	pg  *page
}

// pagedMem is one paged address space with a one-entry page cache.
type pagedMem struct {
	pages   []pageRef // ascending by key
	lastKey uint32
	lastPg  *page
}

// search returns where key is, or belongs, in the page list.
func (p *pagedMem) search(key uint32) (int, bool) {
	return slices.BinarySearchFunc(p.pages, key, func(r pageRef, key uint32) int { return cmp.Compare(r.key, key) })
}

// lookup returns the page containing word address a, or nil if no store
// has touched it.
func (p *pagedMem) lookup(a uint32) *page {
	key := a >> pageShift
	if pg := p.lastPg; pg != nil && p.lastKey == key {
		return pg
	}
	i, ok := p.search(key)
	if !ok {
		return nil
	}
	p.lastKey, p.lastPg = key, p.pages[i].pg
	return p.lastPg
}

// ensure returns the page containing word address a, allocating it from
// ar on first store.
func (p *pagedMem) ensure(ar *arena.Arena, a uint32) *page {
	key := a >> pageShift
	if pg := p.lastPg; pg != nil && p.lastKey == key {
		return pg
	}
	i, ok := p.search(key)
	if !ok {
		p.pages = append(pageRefT.Grow(ar, p.pages, 1), pageRef{})
		copy(p.pages[i+1:], p.pages[i:])
		p.pages[i] = pageRef{key, pageT.New(ar)}
	}
	p.lastKey, p.lastPg = key, p.pages[i].pg
	return p.lastPg
}

// Memory is the functional (value-level) memory: a global space plus one
// shared-memory space per CTA. Uninitialized global words read through an
// init generator so loads always return deterministic values.
type Memory struct {
	a      *arena.Arena // what the pages are made from (nil: the heap)
	global pagedMem
	shared []pagedMem // indexed by CTA
	init   func(addr uint32) uint32
}

// NewMemory returns a Memory whose uninitialized global words read as
// init(addr); a nil init reads as a mixed hash of the address (so values
// are deterministic but not trivially compressible).
func NewMemory(init func(addr uint32) uint32) *Memory { return NewMemoryIn(nil, init) }

// NewMemoryIn is NewMemory with the memory and the pages it comes to
// hold allocated from a (nil: the heap).
func NewMemoryIn(a *arena.Arena, init func(addr uint32) uint32) *Memory {
	if init == nil {
		init = Mix
	}
	m := memoryT.New(a)
	m.a, m.init = a, init
	return m
}

// Mix is a deterministic 32-bit hash used for SFU results and default
// memory contents.
func Mix(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

func wordAddr(addr uint32) uint32 { return addr &^ 3 }

// LoadGlobal reads the 32-bit word containing addr.
func (m *Memory) LoadGlobal(addr uint32) uint32 {
	a := wordAddr(addr)
	return m.loadGlobalIn(m.global.lookup(a), a)
}

// loadGlobalIn reads word address a from pg, its page as lookup returned
// it (nil: never stored to).
func (m *Memory) loadGlobalIn(pg *page, a uint32) uint32 {
	if pg != nil {
		idx := (a >> 2) & pageMask
		if pg.written[idx>>6]&(1<<(idx&63)) != 0 {
			return pg.vals[idx]
		}
	}
	return m.init(a)
}

// store writes word address a, which lies in pg.
func (pg *page) store(a, val uint32) {
	idx := (a >> 2) & pageMask
	pg.vals[idx] = val
	pg.written[idx>>6] |= 1 << (idx & 63)
}

// LoadShared reads from cta's shared memory (zero-initialized).
func (m *Memory) LoadShared(cta int, addr uint32) uint32 {
	if cta >= len(m.shared) {
		return 0
	}
	a := wordAddr(addr)
	pg := m.shared[cta].lookup(a)
	if pg == nil {
		return 0
	}
	return pg.vals[(a>>2)&pageMask]
}

// StoreShared writes to cta's shared memory.
func (m *Memory) StoreShared(cta int, addr, val uint32) {
	for cta >= len(m.shared) {
		m.shared = append(pagedMemT.Grow(m.a, m.shared, 1), pagedMem{})
	}
	a := wordAddr(addr)
	m.shared[cta].ensure(m.a, a).vals[(a>>2)&pageMask] = val
}

// GlobalStores returns a copy of every explicitly written global word —
// the kernel's observable output, used by equivalence tests.
func (m *Memory) GlobalStores() map[uint32]uint32 {
	out := make(map[uint32]uint32)
	for _, ref := range m.global.pages {
		base := ref.key << pageShift
		for w, mask := range ref.pg.written {
			for mask != 0 {
				i := w*64 + bits.TrailingZeros64(mask)
				out[base+uint32(i)<<2] = ref.pg.vals[i]
				mask &= mask - 1
			}
		}
	}
	return out
}
