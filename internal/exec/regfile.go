package exec

import (
	"repro/internal/freelist"
	"repro/internal/isa"
)

// regChunkRegs is how many registers one chunk of a RegFile holds: 512
// 128-byte registers, the 64 KiB a functional-memory page also spans.
const regChunkRegs = 512

type regChunk [regChunkRegs][isa.WarpWidth]uint32

// chunkFree recycles the chunks of released register files. One fixed
// chunk size means one size class whatever a kernel's register count, so
// the list holds what the largest machine needed and no more.
var chunkFree = freelist.New(
	func(c *regChunk) { *c = regChunk{} },
	func(c *regChunk) {
		for r := range c {
			for lane := range c[r] {
				c[r][lane] = ^uint32(0)
			}
		}
	})

// RegFile is the architectural register storage of one SM's warps, in a
// few recyclable chunks instead of one allocation per warp. A warp's
// registers are contiguous within a chunk; a chunk holds as many whole
// warps as fit.
type RegFile struct {
	chunks   []*regChunk
	numRegs  int
	perChunk int // warps per chunk
}

// NewRegFile returns zeroed storage for warps warps of numRegs registers
// each.
func NewRegFile(warps, numRegs int) *RegFile {
	rf := &RegFile{numRegs: numRegs}
	if numRegs == 0 || numRegs > regChunkRegs {
		return rf // Warp allocates: nothing to hold, or more than a chunk does
	}
	rf.perChunk = regChunkRegs / numRegs
	rf.chunks = make([]*regChunk, (warps+rf.perChunk-1)/rf.perChunk)
	for i := range rf.chunks {
		c, ok := chunkFree.Take(0)
		if !ok {
			c = new(regChunk)
		}
		rf.chunks[i] = c
	}
	return rf
}

// Warp returns warp i's registers (i counts from 0 within this file).
func (rf *RegFile) Warp(i int) [][isa.WarpWidth]uint32 {
	if rf.perChunk == 0 {
		return make([][isa.WarpWidth]uint32, rf.numRegs)
	}
	off := i % rf.perChunk * rf.numRegs
	return rf.chunks[i/rf.perChunk][off : off+rf.numRegs : off+rf.numRegs]
}

// Release hands the chunks back for the next register file to reuse.
// Every slice Warp returned is dead from here on; the caller drops them.
func (rf *RegFile) Release() {
	for _, c := range rf.chunks {
		chunkFree.Put(0, c)
	}
	rf.chunks = nil
}
