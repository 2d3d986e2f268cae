package exec

import (
	"repro/internal/arena"
	"repro/internal/isa"
)

var regT = arena.Of[[isa.WarpWidth]uint32]()

// RegFile is the architectural register storage of one SM's warps: one
// span, warp after warp.
type RegFile struct {
	regs    [][isa.WarpWidth]uint32
	numRegs int
}

// NewRegFile returns zeroed storage, made from a, for warps warps of
// numRegs registers each.
func NewRegFile(a *arena.Arena, warps, numRegs int) RegFile {
	return RegFile{regs: regT.Make(a, warps*numRegs), numRegs: numRegs}
}

// Warp returns warp i's registers (i counts from 0 within this file).
func (rf RegFile) Warp(i int) [][isa.WarpWidth]uint32 {
	return rf.regs[i*rf.numRegs : (i+1)*rf.numRegs : (i+1)*rf.numRegs]
}
