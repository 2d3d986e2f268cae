// Package freelist recycles a simulated machine's large, flat,
// pointer-free buffers between runs (DESIGN.md, "Run lifecycle"): 64 KiB
// functional-memory pages and register chunks (exec), cache line arrays
// (mem), OSU line arrays (osu). Each of those packages owns one List per
// buffer kind; a machine that ran to a clean finish hands its buffers
// back with Put, and the next machine built takes them instead of
// allocating.
//
// A List is a mutex-guarded LIFO per size class, and it is deliberately
// not a sync.Pool: the benchmark holds heap bytes allocated per pass to
// 2 %, so what a build allocates must not depend on when the collector
// last ran or on which P the goroutine sits. A buffer enters a list only
// by Put, so a list never holds more buffers of a class than were in use
// at once at some earlier moment — bounded by the most machines ever
// alive together, with no cap or trim logic to tune.
//
// Take clears before it returns, so a recycled buffer is
// indistinguishable from a freshly made one; nothing the previous owner
// left in it (or the test poison below) can reach the next run.
package freelist

import (
	"sync"
	"sync/atomic"
)

// List is a free list of buffers of type T (a slice or a pointer to a
// fixed-size block), keyed by size class. The zero List is not usable;
// build one with New.
type List[T any] struct {
	clear    func(T)
	scribble func(T)

	mu   sync.Mutex
	free map[int][]T
}

// lists is every List in the process, for the test hooks below. Lists
// are package-level variables of their owners, so this is filled during
// package initialization and only read afterwards.
var (
	listsMu sync.Mutex
	lists   []interface {
		drop()
		held() int
	}
	poison atomic.Bool
)

// New builds a list. clear resets a buffer to the state a fresh
// allocation has (Take applies it); scribble fills one with garbage that
// would derail any run that read it (Put applies it while SetPoison is
// on — tests only).
func New[T any](clear, scribble func(T)) *List[T] {
	l := &List[T]{clear: clear, scribble: scribble, free: map[int][]T{}}
	listsMu.Lock()
	lists = append(lists, l)
	listsMu.Unlock()
	return l
}

// Take pops the most recently parked buffer of the class, cleared, or
// reports false when the class is empty and the caller must allocate.
func (l *List[T]) Take(class int) (v T, ok bool) {
	l.mu.Lock()
	s := l.free[class]
	if n := len(s); n > 0 {
		v, ok = s[n-1], true
		var zero T
		s[n-1] = zero
		l.free[class] = s[:n-1]
	}
	l.mu.Unlock()
	if ok {
		l.clear(v)
	}
	return v, ok
}

// Put parks v for the next Take of its class. The caller must hold no
// other reference to v afterwards.
func (l *List[T]) Put(class int, v T) {
	if poison.Load() {
		l.scribble(v)
	}
	l.mu.Lock()
	l.free[class] = append(l.free[class], v)
	l.mu.Unlock()
}

func (l *List[T]) held() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.free {
		n += len(s)
	}
	return n
}

func (l *List[T]) drop() {
	l.mu.Lock()
	clear(l.free)
	l.mu.Unlock()
}

// Held returns how many buffers all lists hold together (tests state the
// lists' bound with it).
func Held() int {
	listsMu.Lock()
	defer listsMu.Unlock()
	n := 0
	for _, l := range lists {
		n += l.held()
	}
	return n
}

// Drop empties every list, so that what is built next is built on fresh
// allocations — how tests obtain the reference a recycled run is held
// to. It is not a switch: the next Put parks again.
func Drop() {
	listsMu.Lock()
	defer listsMu.Unlock()
	for _, l := range lists {
		l.drop()
	}
}

// SetPoison makes every Put scribble over the buffer before parking it
// (tests only): a Take that failed to clear would then hand the next run
// garbage instead of plausible leftovers.
func SetPoison(on bool) { poison.Store(on) }
