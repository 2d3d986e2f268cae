package freelist

import (
	"sync"
	"testing"
)

func newWords() *List[[]uint32] {
	return New(
		func(s []uint32) { clear(s) },
		func(s []uint32) {
			for i := range s {
				s[i] = ^uint32(0)
			}
		})
}

// TestTakeIsLIFOPerClassAndCleared: Take pops the class's most recent
// Put, never another class's, and what it returns reads as make's would —
// whatever the previous owner or the poison left in it.
func TestTakeIsLIFOPerClassAndCleared(t *testing.T) {
	l := newWords()
	if _, ok := l.Take(4); ok {
		t.Fatal("an empty list had a buffer")
	}
	a, b, c := []uint32{1, 2, 3, 4}, []uint32{5, 6, 7, 8}, []uint32{9, 9}
	SetPoison(true)
	l.Put(4, a)
	SetPoison(false)
	l.Put(4, b)
	l.Put(2, c)
	if a[0] != ^uint32(0) || b[0] != 5 {
		t.Fatalf("poison scribbles exactly while it is on: a[0]=%#x b[0]=%#x", a[0], b[0])
	}
	for i, want := range [][]uint32{b, a} {
		got, ok := l.Take(4)
		if !ok || &got[0] != &want[0] {
			t.Fatalf("take %d of class 4 did not pop the latest put", i)
		}
		for j, v := range got {
			if v != 0 {
				t.Fatalf("take %d: word %d = %#x, want a cleared buffer", i, j, v)
			}
		}
	}
	if _, ok := l.Take(4); ok {
		t.Fatal("class 4 held more than was put")
	}
	if got, ok := l.Take(2); !ok || &got[0] != &c[0] {
		t.Fatal("class 2 lost its buffer")
	}
}

// TestHeldAndDropSpanEveryList: the two process-wide hooks see every list
// built with New.
func TestHeldAndDropSpanEveryList(t *testing.T) {
	Drop()
	l1, l2 := newWords(), newWords()
	l1.Put(1, make([]uint32, 1))
	l1.Put(2, make([]uint32, 2))
	l2.Put(1, make([]uint32, 1))
	if n := Held(); n != 3 {
		t.Fatalf("Held() = %d, want 3", n)
	}
	Drop()
	if n := Held(); n != 0 {
		t.Fatalf("Held() = %d after Drop", n)
	}
	if _, ok := l1.Take(1); ok {
		t.Fatal("Drop left a buffer behind")
	}
	l1.Put(1, make([]uint32, 1))
	if n := Held(); n != 1 {
		t.Fatal("Drop switched the list off")
	}
}

// TestConcurrentTakePut hands a fixed set of buffers around between
// goroutines (run under -race): every buffer is owned by one goroutine at
// a time, and none is lost or duplicated.
func TestConcurrentTakePut(t *testing.T) {
	l := newWords()
	const workers, rounds = 8, 2000
	for i := 0; i < workers/2; i++ {
		l.Put(1, make([]uint32, 1))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s, ok := l.Take(1)
				if !ok {
					continue
				}
				if s[0] != 0 {
					t.Error("took a buffer somebody else is writing")
				}
				s[0] = 1
				l.Put(1, s)
			}
		}()
	}
	wg.Wait()
	if n := l.held(); n != workers/2 {
		t.Fatalf("%d buffers after the hand-around, started with %d", n, workers/2)
	}
}
