// Package cfg provides control-flow and dataflow analyses over isa.Kernel:
// predecessor/successor graphs, dominator and postdominator trees
// (Cooper–Harvey–Kennedy), immediate postdominators for SIMT reconvergence,
// loop back-edge detection, and register liveness that accounts for GPU
// control divergence via soft-definition analysis (paper §4.4, Algorithm 2).
//
// What is true of a kernel is computed once per kernel: everything that
// simulates, compiles or executes a finished kernel asks For, which builds
// the Graph and the Liveness on first use and hands every caller the same
// read-only pair (memo.go). New and ComputeLiveness remain for the one
// pass that analyses a kernel it goes on to rewrite, the register
// allocator, and for examples.
package cfg

import (
	"fmt"

	"repro/internal/isa"
)

// Graph is the control-flow graph of a kernel plus derived structure,
// computed eagerly by New (every consumer needs all of it). A Graph is
// never written after New returns; the one For returns is shared.
type Graph struct {
	K *isa.Kernel

	// Succs and Preds are adjacency lists indexed by block ID.
	Succs [][]int
	Preds [][]int

	// RPO is a reverse postorder of reachable blocks from the entry.
	RPO []int
	// RPONum maps block ID to its index in RPO; -1 for unreachable.
	RPONum []int

	// IDom is the immediate dominator of each block (-1 for entry and
	// unreachable blocks).
	IDom []int
	// IPDom is the immediate postdominator (-1 for exit blocks); this is
	// the SIMT reconvergence point used by the executor.
	IPDom []int

	// BackEdges lists loop back edges (tail -> head with head dominating
	// tail).
	BackEdges []Edge
	// InLoop[b] reports whether block b belongs to any natural loop body.
	InLoop []bool

	// insnBase[b] is the global instruction index of the first
	// instruction of block b; global indexes order instructions by
	// layout.
	insnBase []int
	numInsns int

	// Insns is every instruction decoded, by global index (decode.go);
	// NeedWords is the length of each one's scoreboard need mask.
	Insns     []Insn
	NeedWords int
}

// Edge is a CFG edge.
type Edge struct{ From, To int }

// New builds the graph and runs the structural analyses.
func New(k *isa.Kernel) *Graph {
	n := len(k.Blocks)
	g := &Graph{
		K:      k,
		Succs:  make([][]int, n),
		Preds:  make([][]int, n),
		RPONum: make([]int, n),
	}
	for i := 0; i < n; i++ {
		g.Succs[i] = k.Successors(i)
	}
	for from, succs := range g.Succs {
		for _, to := range succs {
			g.Preds[to] = append(g.Preds[to], from)
		}
	}
	g.computeRPO()
	g.IDom = g.dominators(g.Succs, g.Preds, []int{0}, g.RPO)
	g.IPDom = g.postdominators()
	g.findBackEdges()
	g.computeLoopBodies()

	g.insnBase = make([]int, n)
	total := 0
	for i, b := range k.Blocks {
		g.insnBase[i] = total
		total += len(b.Insns)
	}
	g.numInsns = total
	g.decode()
	return g
}

func (g *Graph) computeRPO() {
	n := len(g.K.Blocks)
	for i := range g.RPONum {
		g.RPONum[i] = -1
	}
	visited := make([]bool, n)
	post := make([]int, 0, n)
	// Iterative DFS from entry.
	type frame struct {
		block int
		next  int
	}
	stack := []frame{{0, 0}}
	visited[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(g.Succs[f.block]) {
			s := g.Succs[f.block][f.next]
			f.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, f.block)
		stack = stack[:len(stack)-1]
	}
	g.RPO = make([]int, len(post))
	for i := range post {
		g.RPO[i] = post[len(post)-1-i]
	}
	for i, b := range g.RPO {
		g.RPONum[b] = i
	}
}

// dominators implements the Cooper–Harvey–Kennedy iterative algorithm over
// an arbitrary graph given entry nodes and a reverse postorder. It is
// shared by the dominator and postdominator computations.
func (g *Graph) dominators(succs, preds [][]int, entries []int, rpo []int) []int {
	n := len(succs)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = -1
	}
	for i, b := range rpo {
		order[b] = i
	}
	isEntry := make([]bool, n)
	for _, e := range entries {
		isEntry[e] = true
		idom[e] = e
	}
	intersect := func(a, b int) int {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, b := range rpo {
			if isEntry[b] {
				continue
			}
			newIdom := -1
			for _, p := range preds[b] {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	for _, e := range entries {
		idom[e] = -1 // normalize: entries have no immediate dominator
	}
	return idom
}

// postdominators computes immediate postdominators using a virtual exit
// node that succeeds every block whose terminator is OpEXIT.
func (g *Graph) postdominators() []int {
	n := len(g.K.Blocks)
	virt := n // virtual exit node id
	rsuccs := make([][]int, n+1)
	rpreds := make([][]int, n+1)
	// Reverse graph: edges flipped; exits get an edge to virt in the
	// forward sense, i.e. virt -> exit in the reversed graph.
	for from, succs := range g.Succs {
		for _, to := range succs {
			rsuccs[to] = append(rsuccs[to], from)
			rpreds[from] = append(rpreds[from], to)
		}
	}
	for i, b := range g.K.Blocks {
		if t := b.Terminator(); t != nil && t.Op == isa.OpEXIT {
			rsuccs[virt] = append(rsuccs[virt], i)
			rpreds[i] = append(rpreds[i], virt)
		}
	}
	// Reverse postorder on the reversed graph from virt.
	visited := make([]bool, n+1)
	post := make([]int, 0, n+1)
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range rsuccs[b] {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(virt)
	rpo := make([]int, len(post))
	for i := range post {
		rpo[i] = post[len(post)-1-i]
	}
	ipdom := g.dominators(rsuccs, rpreds, []int{virt}, rpo)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		d := ipdom[i]
		if d == virt {
			d = -1
		}
		out[i] = d
	}
	return out
}

func (g *Graph) findBackEdges() {
	for _, b := range g.RPO {
		for _, s := range g.Succs[b] {
			if g.Dominates(s, b) {
				g.BackEdges = append(g.BackEdges, Edge{From: b, To: s})
			}
		}
	}
}

// computeLoopBodies marks every block inside a natural loop: for each
// back edge tail->head, the body is head plus all blocks that reach tail
// backwards without passing through head.
func (g *Graph) computeLoopBodies() {
	g.InLoop = make([]bool, len(g.K.Blocks))
	for _, e := range g.BackEdges {
		g.InLoop[e.To] = true
		seen := map[int]bool{e.To: true}
		stack := []int{e.From}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[b] {
				continue
			}
			seen[b] = true
			g.InLoop[b] = true
			for _, p := range g.Preds[b] {
				if !seen[p] {
					stack = append(stack, p)
				}
			}
		}
	}
}

// Dominates reports whether block a dominates block b (reflexive).
func (g *Graph) Dominates(a, b int) bool {
	if g.RPONum[b] == -1 {
		return false
	}
	for b != -1 {
		if b == a {
			return true
		}
		b = g.IDom[b]
	}
	return false
}

// PostDominates reports whether block a postdominates block b (reflexive).
func (g *Graph) PostDominates(a, b int) bool {
	for b != -1 {
		if b == a {
			return true
		}
		b = g.IPDom[b]
	}
	return false
}

// Dominators returns all blocks dominating b, including b itself.
func (g *Graph) Dominators(b int) []int {
	var out []int
	for b != -1 {
		out = append(out, b)
		b = g.IDom[b]
	}
	return out
}

// PostDominators returns all blocks postdominating b, including b itself.
func (g *Graph) PostDominators(b int) []int {
	var out []int
	for b != -1 {
		out = append(out, b)
		b = g.IPDom[b]
	}
	return out
}

// NumInsns returns the total static instruction count.
func (g *Graph) NumInsns() int { return g.numInsns }

// GlobalIndex converts a PC to a dense layout-order instruction index.
func (g *Graph) GlobalIndex(pc isa.PC) int { return g.insnBase[pc.Block] + pc.Index }

// PCOf converts a global instruction index back to a PC.
func (g *Graph) PCOf(gi int) isa.PC {
	// Binary search over insnBase.
	lo, hi := 0, len(g.insnBase)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if g.insnBase[mid] <= gi {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return isa.PC{Block: lo, Index: gi - g.insnBase[lo]}
}

// Reachable reports whether block b is reachable from the entry.
func (g *Graph) Reachable(b int) bool { return g.RPONum[b] != -1 }

// CheckReducible returns an error if any back edge target fails to
// dominate its source (irreducible loop); the kernel builder should never
// produce these, and region creation assumes reducibility for its
// loop-exit death points.
func (g *Graph) CheckReducible() error {
	for _, b := range g.RPO {
		for _, s := range g.Succs[b] {
			if g.RPONum[s] <= g.RPONum[b] && !g.Dominates(s, b) {
				return fmt.Errorf("irreducible edge B%d->B%d", b, s)
			}
		}
	}
	return nil
}
