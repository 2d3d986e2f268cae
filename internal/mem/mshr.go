package mem

import "repro/internal/arena"

// mshrFile is a file of miss status holding registers: the lines with a
// fetch in flight, each with the requesters merged onto it. It is a few
// dozen entries searched linearly — a CAM, as the hardware's is — rather
// than a map: what a map of lines that come and go allocates depends on
// its hash seed, and heap bytes per run are held to repeat. A register
// that is released keeps its waiter list's storage for the next miss.
type mshrFile[W any] struct {
	regs []mshr[W] // len: registers in use; cap: the file's size
}

type mshr[W any] struct {
	line    uint32
	waiters []W
}

func newMSHRFile[W any](a *arena.Arena, regs arena.Type[mshr[W]], size int) mshrFile[W] {
	return mshrFile[W]{regs: regs.Make(a, max(size, 0))[:0]}
}

func (f *mshrFile[W]) inUse() int { return len(f.regs) }
func (f *mshrFile[W]) full() bool { return len(f.regs) == cap(f.regs) }

// find returns the register tracking line, or nil.
func (f *mshrFile[W]) find(line uint32) *mshr[W] {
	for i := range f.regs {
		if f.regs[i].line == line {
			return &f.regs[i]
		}
	}
	return nil
}

// take claims a register for line; the file must not be full.
func (f *mshrFile[W]) take(line uint32) *mshr[W] {
	f.regs = f.regs[:len(f.regs)+1]
	m := &f.regs[len(f.regs)-1]
	m.line, m.waiters = line, m.waiters[:0]
	return m
}

// release frees m. It trades places with the last register in use, so
// the file stays packed and m's list waits just past the end for take.
func (f *mshrFile[W]) release(m *mshr[W]) {
	clear(m.waiters)
	last := &f.regs[len(f.regs)-1]
	*m, *last = *last, *m
	f.regs = f.regs[:len(f.regs)-1]
}
