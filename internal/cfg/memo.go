package cfg

import (
	"sync"

	"repro/internal/isa"
)

// analyses memoizes the graph and liveness of every kernel For has been
// asked about, for the life of the process: the kernels a process names
// are few (the 21 of the suite under serve; whatever a caller hands
// regless.Simulate, which core's compile cache pins the same way).
var analyses sync.Map // *isa.Kernel -> *analysis

type analysis struct {
	once sync.Once
	g    *Graph
	lv   *Liveness
}

// For returns the control-flow graph and the divergence-aware liveness of
// k, computed on the first call for k and shared by every later one — an
// SM, a register file, the region compiler, the functional executor. What
// is true of a kernel does not change between runs, so both are read-only
// from the moment For returns, may be read from any number of goroutines,
// and live on the Go heap (a machine built in an arena may point at them;
// they point at no machine). k must not be modified once it has been
// passed here: a pass that rewrites the kernel it analyses (regalloc)
// builds its own with New and ComputeLiveness.
func For(k *isa.Kernel) (*Graph, *Liveness) {
	v, ok := analyses.Load(k)
	if !ok {
		v, _ = analyses.LoadOrStore(k, new(analysis))
	}
	a := v.(*analysis)
	a.once.Do(func() {
		a.g = New(k)
		a.lv = ComputeLiveness(a.g)
	})
	return a.g, a.lv
}
