package core

import (
	"repro/internal/arena"
	"repro/internal/isa"
)

// regSet is a fixed-capacity register bitset sized by the kernel's
// NumRegs. It replaces the per-warp map[isa.Reg]bool staged/dirty/
// deferred bookkeeping: those maps sat on the OnIssue and writeback hot
// paths, where a hash per touched register dominated the provider's
// per-instruction cost. Membership is a word index and a bit test.
type regSet struct {
	bits []uint64
	n    int
}

func newRegSet(a *arena.Arena, numRegs int) regSet {
	return regSet{bits: arena.Make[uint64](a, (numRegs+63)/64)}
}

func (s *regSet) has(r isa.Reg) bool {
	return s.bits[r>>6]&(1<<(r&63)) != 0
}

// set inserts r, reporting whether it was newly inserted.
func (s *regSet) set(r isa.Reg) bool {
	w, b := r>>6, uint64(1)<<(r&63)
	if s.bits[w]&b != 0 {
		return false
	}
	s.bits[w] |= b
	s.n++
	return true
}

// clear removes r, reporting whether it was present.
func (s *regSet) clear(r isa.Reg) bool {
	w, b := r>>6, uint64(1)<<(r&63)
	if s.bits[w]&b == 0 {
		return false
	}
	s.bits[w] &^= b
	s.n--
	return true
}

func (s *regSet) len() int { return s.n }

func (s *regSet) reset() {
	for i := range s.bits {
		s.bits[i] = 0
	}
	s.n = 0
}
