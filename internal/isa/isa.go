// Package isa defines the SASS-like instruction set architecture used by the
// RegLess reproduction: registers, opcodes, instructions, basic blocks and
// kernels.
//
// The ISA is deliberately close to the abstraction level the RegLess paper
// operates on (post-register-allocation machine code for an NVIDIA-style
// SIMT machine): instructions read up to three 32-bit architectural
// registers and write at most one, each register holding one value per SIMD
// lane (32 lanes per warp). Control flow is expressed with basic blocks and
// per-lane conditional branches; divergence and reconvergence are handled by
// the executor's SIMT stack (package exec).
//
// Kernels built against this ISA are *real programs*: package exec runs them
// functionally with full lane values, so downstream consumers (liveness,
// region creation, the compressor) observe genuine value patterns rather
// than synthetic statistics.
package isa

import "fmt"

// WarpWidth is the number of SIMD lanes in a warp (CUDA warp size).
const WarpWidth = 32

// NumBanks is the operand staging unit's bank count (§5.2): register r of
// warp w lives in bank (w + r) mod NumBanks. The register allocator
// spreads an instruction's sources across banks by it, the region compiler
// reserves lines per bank by it, the metadata encoding carries one usage
// field per bank, and the hardware model is built with it — one constant,
// here because every one of them already imports isa.
const NumBanks = 8

// Reg names an architectural register. Registers are dense small integers
// assigned by the kernel builder; NoReg marks an unused operand slot.
type Reg uint16

// NoReg is the sentinel for an absent register operand.
const NoReg Reg = 0xFFFF

// Valid reports whether r names a real register (not NoReg).
func (r Reg) Valid() bool { return r != NoReg }

// String implements fmt.Stringer ("r7", or "-" for NoReg).
func (r Reg) String() string {
	if !r.Valid() {
		return "-"
	}
	return fmt.Sprintf("r%d", uint16(r))
}

// Class groups opcodes by the execution resource they occupy. The timing
// simulator assigns issue ports and latencies per class, and the RegLess
// compiler keys its global-load/use splitting rule on ClassMemGlobal loads.
type Class uint8

const (
	// ClassALU covers single-cycle integer/logic operations.
	ClassALU Class = iota
	// ClassFMA covers multiply/fused-multiply-add style operations
	// executed on the FMA pipes with a short pipelined latency.
	ClassFMA
	// ClassSFU covers special-function operations (rsqrt, sin, ...) with
	// long latency and few units.
	ClassSFU
	// ClassMemGlobal covers global memory loads and stores (long,
	// variable latency through the memory hierarchy).
	ClassMemGlobal
	// ClassMemShared covers shared-memory (scratchpad) accesses with
	// short fixed latency.
	ClassMemShared
	// ClassControl covers branches.
	ClassControl
	// ClassBarrier covers CTA-wide barriers.
	ClassBarrier
	// ClassExit covers kernel termination.
	ClassExit
)

// Opcode enumerates the machine operations. Functional semantics live in
// package exec; the comments here are normative.
type Opcode uint8

const (
	// OpNOP does nothing.
	OpNOP Opcode = iota
	// OpMOVI: Dst[lane] = Imm.
	OpMOVI
	// OpTID: Dst[lane] = warpGlobalID*WarpWidth + lane (global thread id).
	OpTID
	// OpLANE: Dst[lane] = lane.
	OpLANE
	// OpWID: Dst[lane] = warpGlobalID (broadcast).
	OpWID
	// OpIADD: Dst = Src0 + Src1.
	OpIADD
	// OpISUB: Dst = Src0 - Src1.
	OpISUB
	// OpIADDI: Dst = Src0 + Imm.
	OpIADDI
	// OpIMUL: Dst = Src0 * Src1 (low 32 bits).
	OpIMUL
	// OpIMULI: Dst = Src0 * Imm.
	OpIMULI
	// OpIMAD: Dst = Src0*Src1 + Src2.
	OpIMAD
	// OpAND: Dst = Src0 & Src1.
	OpAND
	// OpOR: Dst = Src0 | Src1.
	OpOR
	// OpXOR: Dst = Src0 ^ Src1.
	OpXOR
	// OpSHLI: Dst = Src0 << (Imm & 31).
	OpSHLI
	// OpSHRI: Dst = Src0 >> (Imm & 31).
	OpSHRI
	// OpMIN: Dst = min(Src0, Src1) (unsigned).
	OpMIN
	// OpMAX: Dst = max(Src0, Src1) (unsigned).
	OpMAX
	// OpSELP: Dst = Src2 != 0 ? Src0 : Src1, per lane.
	OpSELP
	// OpFADD models a floating add on the FMA pipe. Functionally it is an
	// integer add (value identity is irrelevant to the experiments, the
	// latency class is what matters).
	OpFADD
	// OpFMUL models a floating multiply on the FMA pipe (integer multiply
	// functionally).
	OpFMUL
	// OpFFMA models a fused multiply-add: Dst = Src0*Src1 + Src2.
	OpFFMA
	// OpSFU models a special-function op: Dst = hash(Src0), long latency.
	OpSFU
	// OpLDG: global load, Dst[lane] = mem[Src0[lane] + Imm] for active
	// lanes.
	OpLDG
	// OpSTG: global store, mem[Src0[lane] + Imm] = Src1[lane].
	OpSTG
	// OpLDS: shared-memory load, Dst[lane] = shared[Src0[lane] + Imm].
	OpLDS
	// OpSTS: shared-memory store, shared[Src0[lane] + Imm] = Src1[lane].
	OpSTS
	// OpBNZ: per-lane conditional branch to Target where Src0 != 0;
	// other lanes fall through (divergence).
	OpBNZ
	// OpBZ: per-lane conditional branch to Target where Src0 == 0.
	OpBZ
	// OpBRA: unconditional branch to Target.
	OpBRA
	// OpBAR: CTA barrier; the warp waits until all warps of its CTA
	// arrive.
	OpBAR
	// OpEXIT terminates the warp.
	OpEXIT

	numOpcodes
)

// NumOpcodes is the count of defined opcodes (useful for table sizing).
const NumOpcodes = int(numOpcodes)

var opInfo = [NumOpcodes]struct {
	name    string
	class   Class
	nSrc    int
	hasDst  bool
	branch  bool
	memory  bool
	isLoad  bool
	isStore bool
}{
	OpNOP:   {"nop", ClassALU, 0, false, false, false, false, false},
	OpMOVI:  {"movi", ClassALU, 0, true, false, false, false, false},
	OpTID:   {"tid", ClassALU, 0, true, false, false, false, false},
	OpLANE:  {"lane", ClassALU, 0, true, false, false, false, false},
	OpWID:   {"wid", ClassALU, 0, true, false, false, false, false},
	OpIADD:  {"iadd", ClassALU, 2, true, false, false, false, false},
	OpISUB:  {"isub", ClassALU, 2, true, false, false, false, false},
	OpIADDI: {"iaddi", ClassALU, 1, true, false, false, false, false},
	OpIMUL:  {"imul", ClassFMA, 2, true, false, false, false, false},
	OpIMULI: {"imuli", ClassFMA, 1, true, false, false, false, false},
	OpIMAD:  {"imad", ClassFMA, 3, true, false, false, false, false},
	OpAND:   {"and", ClassALU, 2, true, false, false, false, false},
	OpOR:    {"or", ClassALU, 2, true, false, false, false, false},
	OpXOR:   {"xor", ClassALU, 2, true, false, false, false, false},
	OpSHLI:  {"shli", ClassALU, 1, true, false, false, false, false},
	OpSHRI:  {"shri", ClassALU, 1, true, false, false, false, false},
	OpMIN:   {"min", ClassALU, 2, true, false, false, false, false},
	OpMAX:   {"max", ClassALU, 2, true, false, false, false, false},
	OpSELP:  {"selp", ClassALU, 3, true, false, false, false, false},
	OpFADD:  {"fadd", ClassFMA, 2, true, false, false, false, false},
	OpFMUL:  {"fmul", ClassFMA, 2, true, false, false, false, false},
	OpFFMA:  {"ffma", ClassFMA, 3, true, false, false, false, false},
	OpSFU:   {"sfu", ClassSFU, 1, true, false, false, false, false},
	OpLDG:   {"ldg", ClassMemGlobal, 1, true, false, true, true, false},
	OpSTG:   {"stg", ClassMemGlobal, 2, false, false, true, false, true},
	OpLDS:   {"lds", ClassMemShared, 1, true, false, true, true, false},
	OpSTS:   {"sts", ClassMemShared, 2, false, false, true, false, true},
	OpBNZ:   {"bnz", ClassControl, 1, false, true, false, false, false},
	OpBZ:    {"bz", ClassControl, 1, false, true, false, false, false},
	OpBRA:   {"bra", ClassControl, 0, false, true, false, false, false},
	OpBAR:   {"bar", ClassBarrier, 0, false, false, false, false, false},
	OpEXIT:  {"exit", ClassExit, 0, false, false, false, false, false},
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if int(o) < NumOpcodes {
		return opInfo[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ClassOf returns the execution-resource class of the opcode.
func (o Opcode) ClassOf() Class { return opInfo[o].class }

// NumSrc returns how many source-register operands the opcode reads.
func (o Opcode) NumSrc() int { return opInfo[o].nSrc }

// HasDst reports whether the opcode writes a destination register.
func (o Opcode) HasDst() bool { return opInfo[o].hasDst }

// IsBranch reports whether the opcode may transfer control.
func (o Opcode) IsBranch() bool { return opInfo[o].branch }

// IsMemory reports whether the opcode accesses a memory space.
func (o Opcode) IsMemory() bool { return opInfo[o].memory }

// IsLoad reports whether the opcode is a (global or shared) load.
func (o Opcode) IsLoad() bool { return opInfo[o].isLoad }

// IsStore reports whether the opcode is a (global or shared) store.
func (o Opcode) IsStore() bool { return opInfo[o].isStore }

// IsGlobalLoad reports whether the opcode is a long-latency global load —
// the instructions Algorithm 1 refuses to co-locate with their first use.
func (o Opcode) IsGlobalLoad() bool { return o == OpLDG }
