package cfg

import (
	"sync"
	"testing"
)

// TestForBuildsOncePerKernel: eight goroutines asking about a kernel
// nobody has asked about yet all get the one graph and the one liveness —
// the analysis ran once, under the kernel's sync.Once — and so does every
// later caller, while another kernel gets its own. (Run under -race by
// scripts/check.sh, like every test of the package.)
func TestForBuildsOncePerKernel(t *testing.T) {
	k := diamond(t) // a fresh *isa.Kernel: cold by construction
	const callers = 8
	var (
		start sync.WaitGroup
		done  sync.WaitGroup
		gs    [callers]*Graph
		lvs   [callers]*Liveness
	)
	start.Add(1)
	for i := 0; i < callers; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			gs[i], lvs[i] = For(k)
		}()
	}
	start.Done()
	done.Wait()
	for i := range gs {
		if gs[i] == nil || lvs[i] == nil || gs[i] != gs[0] || lvs[i] != lvs[0] {
			t.Fatalf("caller %d got (%p, %p), caller 0 (%p, %p)", i, gs[i], lvs[i], gs[0], lvs[0])
		}
	}
	if gs[0].K != k || lvs[0].G != gs[0] {
		t.Fatal("the memoized liveness is not over the memoized graph of k")
	}
	if g, lv := For(k); g != gs[0] || lv != lvs[0] {
		t.Fatal("a later call built a second analysis")
	}
	if g, _ := For(diamond(t)); g == gs[0] {
		t.Fatal("two kernels share one graph")
	}
}
