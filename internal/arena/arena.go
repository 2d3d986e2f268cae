// Package arena is the allocator a simulated machine is built from when
// somebody promises to give the machine back (DESIGN.md, "Run
// lifecycle"): a typed bump allocator whose lifetime is one machine.
// experiments.runPoint takes an Arena, every constructor under Assemble
// allocates out of it, and when the run has been folded into numbers the
// arena — registers, pages, caches, scoreboards, queues, all at once —
// goes back for the next machine.
//
// Memory is requested through a Type[T], a package-level handle per
// element type (`var warpT = arena.Of[Warp]()`), so every chunk is an
// ordinary []T the collector understands. Everything handed out is
// zeroed, and a nil *Arena is the Go heap: `warpT.Make(nil, n)` is
// `make([]Warp, n)`. A constructor is therefore written once, as
// straight-line "allocate and initialise" code, and a machine nobody
// will return is built by passing nil. There is no reset path to drift
// from the build path: a recycled machine is stale-free because Reset
// zeroes every byte that was handed out, whatever it was used for.
//
// A type's chunks are searched first-fit in the order they were made, and
// a new chunk is at least as large as the request that did not fit. So a
// sequence of requests that was served once is served again, after Reset,
// from the same chunks at the same offsets, whatever chunks other
// sequences have appended since: once each kind of machine has been built
// once, an arena allocates nothing more, in any order of runs — which is
// what keeps heap bytes per pass repeatable.
//
// Recycled arenas wait in one mutex-guarded LIFO (Take, Put) — not a
// sync.Pool: what a build allocates must not depend on when the
// collector last ran or on which P the goroutine sits. An arena enters it
// only by Put, so it never holds more arenas than machines were alive at
// once.
package arena

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A type's first chunk is floorBytes, each further one twice the last up
// to ceilBytes; a larger request gets a chunk of exactly its size (a
// functional-memory page, a machine's registers, a cache line array).
const (
	floorBytes = 2 << 10
	ceilBytes  = 64 << 10
)

// Arena holds the memory of one machine at a time. It is not safe for
// concurrent use; whoever took it owns it until Put.
type Arena struct {
	pools []pool // by Type id; nil until the type's first request
}

// pool is a typed[T] seen without its T.
type pool interface {
	reset()
	scribble()
}

type typed[T any] struct {
	chunks []chunk[T]
	scalar bool // T holds no pointers
}

type chunk[T any] struct {
	buf  []T
	used int
}

// Type is the handle memory of element type T is requested through. Each
// Of call is a pool of its own in every arena.
type Type[T any] struct {
	id, size int // size: bytes per element
	scalar   bool
}

var nextID atomic.Int32

// Of registers a handle for element type T.
func Of[T any]() Type[T] {
	t := reflect.TypeFor[T]()
	return Type[T]{id: int(nextID.Add(1)) - 1, size: max(1, int(t.Size())), scalar: !hasPointers(t)}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}

func (t Type[T]) pool(a *Arena) *typed[T] {
	if t.id >= len(a.pools) {
		a.pools = append(a.pools, make([]pool, t.id+1-len(a.pools))...)
	}
	if p := a.pools[t.id]; p != nil {
		return p.(*typed[T])
	}
	p := &typed[T]{scalar: t.scalar}
	a.pools[t.id] = p
	return p
}

// Make returns n zeroed elements with no spare capacity, so that an
// append cannot run into a neighbour. With a nil arena it is make([]T, n).
func (t Type[T]) Make(a *Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	p := t.pool(a)
	for i := range p.chunks {
		if c := &p.chunks[i]; len(c.buf)-c.used >= n {
			c.used += n
			return c.buf[c.used-n : c.used : c.used]
		}
	}
	size := min(floorBytes<<min(len(p.chunks), 8), ceilBytes) / t.size
	buf := make([]T, max(n, size, 1))
	p.chunks = append(p.chunks, chunk[T]{buf: buf, used: n})
	return buf[:n:n]
}

// New returns one zeroed T. With a nil arena it is new(T).
func (t Type[T]) New(a *Arena) *T {
	if a == nil {
		return new(T)
	}
	return &t.Make(a, 1)[0]
}

// Grow returns s with room for n more elements: s itself when it has the
// room, else a copy in a fresh span of at least twice the capacity (the
// old span stays with the arena until Reset). Whatever appends to an
// arena slice at run time grows it through here first — a plain append
// past the capacity would silently move the slice to the heap. With a nil
// arena it is what append does.
func (t Type[T]) Grow(a *Arena, s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	if a == nil {
		return slices.Grow(s, n)
	}
	grown := t.Make(a, max(2*cap(s), len(s)+n))[:len(s)]
	copy(grown, s)
	return grown
}

// Reset zeroes everything handed out since the last Reset and makes it
// all available again.
func (a *Arena) Reset() {
	for _, p := range a.pools {
		if p != nil {
			p.reset()
		}
	}
}

func (p *typed[T]) reset() {
	for i := range p.chunks {
		c := &p.chunks[i]
		clear(c.buf[:c.used])
		c.used = 0
	}
}

// scribble is what the test poison does to an arena on its way back:
// everything handed out is overwritten — all-ones bytes in element types
// without pointers, zeros in the others, since the collector may scan a
// parked chunk and must never meet a forged pointer. What was handed out
// stays marked so, and the Reset in Take has to undo all of it.
func (p *typed[T]) scribble() {
	for i := range p.chunks {
		c := &p.chunks[i]
		if !p.scalar {
			clear(c.buf[:c.used])
			continue
		}
		raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c.buf))), c.used*int(unsafe.Sizeof(c.buf[0])))
		for j := range raw {
			raw[j] = 0xff
		}
	}
}

// The LIFO of recycled arenas, and the test poison.
var (
	mu     sync.Mutex
	parked []*Arena
	poison atomic.Bool
)

// Take returns the most recently parked arena, reset, or a new one when
// none is parked. The caller owns it until Put — or for good: an arena
// that is never put back is garbage like any other.
func Take() *Arena {
	mu.Lock()
	var a *Arena
	if n := len(parked); n > 0 {
		a, parked[n-1] = parked[n-1], nil
		parked = parked[:n-1]
	}
	mu.Unlock()
	if a == nil {
		return new(Arena)
	}
	a.Reset()
	return a
}

// Put parks a for the next Take. Nothing that will be used again may
// point into it: it is reset here, so that a parked arena pins nothing
// of the run that used it.
func Put(a *Arena) {
	if poison.Load() {
		for _, p := range a.pools {
			if p != nil {
				p.scribble()
			}
		}
	} else {
		a.Reset()
	}
	mu.Lock()
	parked = append(parked, a)
	mu.Unlock()
}

// Held returns how many arenas are parked (tests state the bound with it).
func Held() int {
	mu.Lock()
	defer mu.Unlock()
	return len(parked)
}

// Drop forgets every parked arena, so that what is built next is built
// on fresh memory. It is not a switch: the next Put parks again.
func Drop() {
	mu.Lock()
	parked = nil
	mu.Unlock()
}

// SetPoison makes every Put scribble over what the arena handed out
// instead of zeroing it (tests only): a result that still points into the
// arena reads garbage at once, and a Reset that missed a byte hands the
// next machine garbage instead of plausible leftovers.
func SetPoison(on bool) { poison.Store(on) }
