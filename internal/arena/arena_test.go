package arena

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

type scalarRec struct {
	a uint64
	b [3]uint16
	c bool
}

type pointerRec struct {
	n    int
	name string
	next *pointerRec
	fn   func()
}

var (
	wordT    = Of[uint32]()
	scalarT  = Of[scalarRec]()
	pointerT = Of[pointerRec]()
	bigT     = Of[[16 << 10]uint64]() // 128 KiB an element: always a chunk of its own
)

// request is one Make in a replayable sequence.
type request struct{ kind, n int }

// replay issues reqs against a and returns the address of each span's
// first element (0 for an empty span), failing on any non-zero byte.
func replay(t *testing.T, a *Arena, reqs []request) []uintptr {
	t.Helper()
	at := make([]uintptr, len(reqs))
	for i, r := range reqs {
		switch r.kind {
		case 0:
			s := wordT.Make(a, r.n)
			for j, v := range s {
				if v != 0 {
					t.Fatalf("request %d: word %d = %#x, want zeroed memory", i, j, v)
				}
				s[j] = ^uint32(0)
			}
			at[i] = uintptr(unsafe.Pointer(unsafe.SliceData(s)))
		case 1:
			s := scalarT.Make(a, r.n)
			for j, v := range s {
				if v != (scalarRec{}) {
					t.Fatalf("request %d: record %d = %+v, want zeroed memory", i, j, v)
				}
				s[j] = scalarRec{a: 7, b: [3]uint16{1, 2, 3}, c: true}
			}
			at[i] = uintptr(unsafe.Pointer(unsafe.SliceData(s)))
		default:
			s := pointerT.Make(a, r.n)
			for j := range s {
				if s[j].n != 0 || s[j].name != "" || s[j].next != nil || s[j].fn != nil {
					t.Fatalf("request %d: record %d = %+v, want zeroed memory", i, j, s[j])
				}
				s[j] = pointerRec{n: j, name: "x", next: &s[0], fn: func() {}}
			}
			at[i] = uintptr(unsafe.Pointer(unsafe.SliceData(s)))
		}
	}
	return at
}

func randomRequests(rng *rand.Rand, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{kind: rng.Intn(3), n: 1 + rng.Intn(1<<uint(rng.Intn(12)))}
	}
	return reqs
}

// TestNilArenaIsTheHeap: with a nil arena the three requests are make,
// new and append's growth.
func TestNilArenaIsTheHeap(t *testing.T) {
	s := wordT.Make(nil, 5)
	if len(s) != 5 || cap(s) != 5 {
		t.Fatalf("Make(nil, 5): len %d cap %d", len(s), cap(s))
	}
	if p := pointerT.New(nil); p == nil || p.name != "" {
		t.Fatal("New(nil) is not new(T)")
	}
	g := wordT.Grow(nil, append(s, 1), 0)
	if g = wordT.Grow(nil, g[:cap(g)], 3); cap(g)-len(g) < 3 {
		t.Fatalf("Grow(nil) left room for %d, want 3", cap(g)-len(g))
	}
	if g[5] != 1 {
		t.Fatal("Grow(nil) lost the contents")
	}
}

// TestMakeNewGrowAreZeroedAndDisjoint: spans come back zeroed, with no
// spare capacity, never overlapping; Grow keeps the contents and hands
// out room that is zero too.
func TestMakeNewGrowAreZeroedAndDisjoint(t *testing.T) {
	a := new(Arena)
	owner := map[*uint32]int{}
	for i := 0; i < 200; i++ {
		s := wordT.Make(a, 1+i%37)
		if cap(s) != len(s) {
			t.Fatalf("span %d has spare capacity %d", i, cap(s)-len(s))
		}
		for j := range s {
			if s[j] != 0 {
				t.Fatalf("span %d word %d = %#x", i, j, s[j])
			}
			if prev, dup := owner[&s[j]]; dup {
				t.Fatalf("span %d overlaps span %d", i, prev)
			}
			owner[&s[j]] = i
			s[j] = uint32(i + 1)
		}
	}
	p := pointerT.New(a)
	if p.n != 0 || p.name != "" || p.next != nil || p.fn != nil {
		t.Fatal("New handed out a used record")
	}
	q := wordT.Make(a, 4)[:0]
	for i := 0; i < 1000; i++ {
		q = append(wordT.Grow(a, q, 1), uint32(i))
	}
	for i, v := range q {
		if v != uint32(i) {
			t.Fatalf("grown queue word %d = %d", i, v)
		}
	}
	for _, v := range q[len(q):cap(q)] {
		if v != 0 {
			t.Fatal("Grow handed out room that is not zero")
		}
	}
}

// TestResetReplaysTheSameAddresses is the fixed-point argument: a request
// sequence that was served once is served from the same addresses after
// Reset, zeroed, without allocating — and stays so when longer sequences,
// which append chunks, have run in between, in any order.
func TestResetReplaysTheSameAddresses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := new(Arena)
	seqs := [][]request{randomRequests(rng, 40), randomRequests(rng, 400), randomRequests(rng, 90)}
	seqs[2] = append(seqs[2], request{0, 1 << 20}) // and one span far past any chunk made so far
	want := make([][]uintptr, len(seqs))
	for i, reqs := range seqs {
		a.Reset()
		want[i] = replay(t, a, reqs)
	}
	order := []int{2, 0, 1, 1, 0, 2, 0}
	for _, i := range order {
		a.Reset()
		got := replay(t, a, seqs[i])
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("sequence %d request %d moved: %#x, first served at %#x", i, j, got[j], want[i][j])
			}
		}
	}
	for i, reqs := range seqs {
		if n := testing.AllocsPerRun(5, func() {
			a.Reset()
			for _, r := range reqs {
				switch r.kind {
				case 0:
					wordT.Make(a, r.n)
				case 1:
					scalarT.Make(a, r.n)
				default:
					pointerT.Make(a, r.n)
				}
			}
		}); n != 0 {
			t.Fatalf("sequence %d allocates %v times at the fixed point, want 0", i, n)
		}
	}
}

// TestLargeRequestsGetTheirOwnChunk: a request past the chunk ceiling is
// a chunk of exactly its size, so small spans never land behind it.
func TestLargeRequestsGetTheirOwnChunk(t *testing.T) {
	a := new(Arena)
	big := bigT.Make(a, 1)
	small := wordT.Make(a, 3)
	_ = small
	p := bigT.pool(a)
	if len(p.chunks) != 1 || len(p.chunks[0].buf) != 1 {
		t.Fatalf("a 128 KiB element sits in %d chunks, the first of %d elements", len(p.chunks), len(p.chunks[0].buf))
	}
	wide := wordT.Make(a, ceilBytes) // 4 x the ceiling, in bytes
	if w := wordT.pool(a); len(w.chunks[len(w.chunks)-1].buf) != len(wide) {
		t.Fatal("a span past the ceiling shares its chunk")
	}
	big[0][0] = 1
}

// TestTakeIsLIFOAndCleared: Take pops the most recent Put, and what the
// arena then hands out reads as make's would — whatever the previous
// owner or the poison left in it. Poison scribbles exactly while it is
// on, all-ones over pointer-free types and zeros over pointerful ones.
func TestTakeIsLIFOAndCleared(t *testing.T) {
	Drop()
	defer Drop()
	a, b := Take(), Take()
	if a == b || Held() != 0 {
		t.Fatal("an empty LIFO handed out a parked arena")
	}
	reqs := []request{{0, 100}, {1, 9}, {2, 5}, {0, 3000}}
	replay(t, a, reqs)
	wa, sa, pa := wordT.pool(a).chunks[0].buf, scalarT.pool(a).chunks[0].buf, pointerT.pool(a).chunks[0].buf
	replay(t, b, reqs)
	wb := wordT.pool(b).chunks[0].buf

	SetPoison(true)
	Put(a)
	SetPoison(false)
	Put(b)
	if wa[0] != ^uint32(0) || wa[99] != ^uint32(0) || wa[100] != 0 {
		t.Fatalf("poison must scribble exactly what was handed out: %#x %#x %#x", wa[0], wa[99], wa[100])
	}
	if sa[8].a != ^uint64(0) || sa[8].b != [3]uint16{0xffff, 0xffff, 0xffff} {
		t.Fatalf("poison left a pointer-free record readable: %+v", sa[8])
	}
	for i := range pa[:5] {
		if pa[i].n != 0 || pa[i].name != "" || pa[i].next != nil || pa[i].fn != nil {
			t.Fatalf("poison must zero pointerful records, found %+v", pa[i])
		}
	}
	if wb[0] != 0 {
		t.Fatal("without poison a parked arena is zeroed: it must pin nothing")
	}
	for i, want := range []*Arena{b, a} {
		got := Take()
		if got != want {
			t.Fatalf("take %d did not pop the latest put", i)
		}
		replay(t, got, reqs) // fails on any byte that is not zero
	}
	if Held() != 0 {
		t.Fatal("the LIFO held more than was put")
	}
}

// TestHeldAndDrop: Drop forgets what is parked without switching
// recycling off.
func TestHeldAndDrop(t *testing.T) {
	Drop()
	defer Drop()
	Put(new(Arena))
	Put(new(Arena))
	if n := Held(); n != 2 {
		t.Fatalf("Held() = %d, want 2", n)
	}
	Drop()
	if n := Held(); n != 0 {
		t.Fatalf("Held() = %d after Drop", n)
	}
	a := Take()
	Put(a)
	if Held() != 1 || Take() != a {
		t.Fatal("Drop switched the LIFO off")
	}
}

// TestConcurrentTakePut hands arenas around between goroutines (run
// under -race): an arena is owned by one goroutine at a time, and the
// LIFO never holds more of them than there were owners at once.
func TestConcurrentTakePut(t *testing.T) {
	Drop()
	defer Drop()
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				a := Take()
				s := wordT.Make(a, 64)
				for j := range s {
					if s[j] != 0 {
						t.Error("took an arena somebody else is writing")
						return
					}
					s[j] = 1
				}
				Put(a)
			}
		}()
	}
	wg.Wait()
	if n := Held(); n < 1 || n > workers {
		t.Fatalf("%d arenas parked by %d workers", n, workers)
	}
}
