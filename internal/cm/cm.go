// Package cm implements the RegLess capacity manager (paper §5.1): the
// per-shard bookkeeping that decides which warps may occupy operand
// staging unit capacity. Each warp walks the state machine
//
//	Inactive (on the warp stack)
//	  -> Preloading (region fits; inputs being assembled)
//	  -> Active     (all inputs present; warp may issue)
//	  -> Draining   (region's last instruction issued; writes pending)
//	  -> Inactive   (pushed back on the stack)
//
// The warp stack is LIFO: the most recently executed warp is reactivated
// first, because its next region's inputs are most likely still resident
// in the OSU (§5.1). Reservations are per-bank counters derived from the
// compiler's bank-usage annotations; the caller rotates them by global
// warp ID to match the OSU's (warp+reg) mod banks placement before
// passing them in.
//
// Like package osu, this is a pure state machine; the provider in package
// core drives it at hardware cycle boundaries.
package cm

import (
	"fmt"

	"repro/internal/arena"
)

// State is a warp's capacity state.
type State uint8

const (
	// Inactive warps hold no reservation and sit on the warp stack.
	Inactive State = iota
	// Preloading warps hold a reservation while inputs are fetched.
	Preloading
	// Active warps may issue instructions.
	Active
	// Draining warps issued their region's last instruction but have
	// outstanding register writes.
	Draining
	// Finished warps exited the kernel.
	Finished
)

func (s State) String() string {
	switch s {
	case Inactive:
		return "inactive"
	case Preloading:
		return "preloading"
	case Active:
		return "active"
	case Draining:
		return "draining"
	default:
		return "finished"
	}
}

// Config sizes the manager.
type Config struct {
	Banks        int
	LinesPerBank int
	// FIFOStack activates warps oldest-first instead of the paper's
	// LIFO order (an ablation: LIFO maximizes OSU hits because the most
	// recently run warp's values are still resident, §5.1).
	FIFOStack bool
}

// Stats counts state-machine transitions (observability; the energy model
// does not consume these).
type Stats struct {
	// Activations counts ActivateTop successes (Inactive -> Preloading or
	// Active); Immediate is the subset that skipped Preloading because the
	// region needed no input fetches.
	Activations uint64 `metric:"activations"`
	Immediate   uint64 `metric:"immediate_activations"`
	// Deferrals counts DeferTop stack rotations (barrier waits).
	Deferrals uint64 `metric:"deferrals"`
	// PreloadsDone counts completed input fetches signalled to the CM.
	PreloadsDone uint64 `metric:"preloads_done"`
	// Drains counts Active -> Draining transitions, DrainsDone the
	// Draining -> Inactive completions, and Finishes warp retirements.
	Drains     uint64 `metric:"drains"`
	DrainsDone uint64 `metric:"drains_done"`
	Finishes   uint64 `metric:"finishes"`
	// LinesReleased counts single-line reservation returns during drains.
	LinesReleased uint64 `metric:"lines_released"`
}

// CM is one shard's capacity manager. Warps are identified by a dense
// local index.
type CM struct {
	cfg   Config
	Stats Stats

	// OnTransition, when set, observes every warp state change with the
	// region involved (the one entered on activation, the one left on
	// drain completion or finish). Event tracing hooks in here; nil
	// costs one branch per transition.
	OnTransition func(w int, to State, region int)

	state []State
	// active is the Active set as a bit mask, bit w for warp w — the one
	// wire per warp the scheduler sees (§5.1). setState, the only writer
	// of state, keeps it.
	active []uint64
	// epoch counts writes to reserved and stack: whether the stack's top
	// fits is a function of those two alone, so a caller that found it
	// does not fit need not ask again until the epoch moves.
	epoch uint64
	// stack holds Inactive warps; the top (last element) activates next.
	stack []int
	// reserved[b] counts lines reserved in bank b across Preloading,
	// Active, and Draining warps.
	reserved []int
	// warpRes[w][b] is warp w's current reservation in bank b.
	warpRes [][]int
	// region[w] is the warp's current region ID (-1 when inactive).
	region []int
	// activatedAt[w] is the cycle the current region activated.
	activatedAt []uint64

	// pendingPreloads[w] counts outstanding input fetches.
	pendingPreloads []int
}

var (
	cmT    = arena.Of[CM]()
	stateT = arena.Of[State]()
	wordT  = arena.Of[uint64]()
	intT   = arena.Of[int]()
	intsT  = arena.Of[[]int]()
)

// New builds a CM for n warps, allocated from a (nil: the heap). All
// warps start Inactive with warp 0 on top of the stack (oldest-first
// activation at kernel launch).
func New(a *arena.Arena, cfg Config, n int) *CM {
	c := cmT.New(a)
	*c = CM{
		cfg:             cfg,
		state:           stateT.Make(a, n),
		active:          wordT.Make(a, max(1, (n+63)/64)),
		epoch:           1,
		stack:           intT.Make(a, n)[:0], // a warp is on it at most once
		reserved:        intT.Make(a, cfg.Banks),
		warpRes:         intsT.Make(a, n),
		region:          intT.Make(a, n),
		activatedAt:     wordT.Make(a, n),
		pendingPreloads: intT.Make(a, n),
	}
	res := intT.Make(a, n*cfg.Banks)
	for w := 0; w < n; w++ {
		c.warpRes[w] = res[w*cfg.Banks : (w+1)*cfg.Banks : (w+1)*cfg.Banks]
		c.region[w] = -1
	}
	// Stack top is the last element; push in reverse so warp 0 pops
	// first.
	for w := n - 1; w >= 0; w-- {
		c.stack = append(c.stack, w)
	}
	return c
}

// StateOf returns a warp's capacity state.
func (c *CM) StateOf(w int) State { return c.state[w] }

// setState is the one place a warp's state is written: the Active mask
// moves with it.
func (c *CM) setState(w int, s State) {
	c.state[w] = s
	if s == Active {
		c.active[w>>6] |= 1 << (uint(w) & 63)
	} else {
		c.active[w>>6] &^= 1 << (uint(w) & 63)
	}
}

// ActiveMask returns the Active set, bit w for warp w. The slice aliases
// the manager's own words, so a caller may hold it for the run.
func (c *CM) ActiveMask() []uint64 { return c.active }

// Epoch changes whenever a reservation or the warp stack does (see Fits).
func (c *CM) Epoch() uint64 { return c.epoch }

// RegionOf returns the warp's current region ID (-1 when none).
func (c *CM) RegionOf(w int) int { return c.region[w] }

// Top returns the warp that would activate next, or -1 if the stack is
// empty.
func (c *CM) Top() int {
	if len(c.stack) == 0 {
		return -1
	}
	return c.stack[len(c.stack)-1]
}

// DeferTop moves the top warp to the bottom of the stack (used when the
// top warp is waiting at a barrier and must not hold capacity: other warps
// get their turn so the CTA can reach the barrier).
func (c *CM) DeferTop() {
	n := len(c.stack)
	if n < 2 {
		return
	}
	c.Stats.Deferrals++
	c.epoch++
	top := c.stack[n-1]
	copy(c.stack[1:], c.stack[:n-1])
	c.stack[0] = top
}

// Fits reports whether a region with the given bank usage (already rotated
// to absolute banks by the caller, matching the OSU's (warp+reg) mod banks
// placement) fits the remaining capacity. The answer for the stack's top
// holds until Epoch moves.
func (c *CM) Fits(usage []int) bool {
	for b, u := range usage {
		if c.reserved[b]+u > c.cfg.LinesPerBank {
			return false
		}
	}
	return true
}

// ActivateTop pops the top warp and reserves capacity for its region
// (usage indexed by absolute bank). preloads is the input-fetch count;
// with zero preloads the warp becomes Active immediately, otherwise
// Preloading.
func (c *CM) ActivateTop(region int, usage []int, preloads int, now uint64) (int, error) {
	w := c.Top()
	if w < 0 {
		return -1, fmt.Errorf("cm: ActivateTop on empty stack")
	}
	if c.state[w] != Inactive {
		return -1, fmt.Errorf("cm: top warp %d in state %v", w, c.state[w])
	}
	if !c.Fits(usage) {
		return -1, fmt.Errorf("cm: region %d does not fit for warp %d", region, w)
	}
	c.epoch++
	c.stack = c.stack[:len(c.stack)-1]
	for b, u := range usage {
		c.reserved[b] += u
		c.warpRes[w][b] += u
	}
	c.region[w] = region
	c.activatedAt[w] = now
	c.pendingPreloads[w] = preloads
	c.Stats.Activations++
	if preloads == 0 {
		c.Stats.Immediate++
		c.setState(w, Active)
	} else {
		c.setState(w, Preloading)
	}
	c.notify(w, region)
	return w, nil
}

func (c *CM) notify(w, region int) {
	if c.OnTransition != nil {
		c.OnTransition(w, c.state[w], region)
	}
}

// PreloadDone signals one completed input fetch; the warp activates when
// all inputs are present.
func (c *CM) PreloadDone(w int) {
	if c.state[w] != Preloading {
		return
	}
	c.pendingPreloads[w]--
	c.Stats.PreloadsDone++
	if c.pendingPreloads[w] <= 0 {
		c.setState(w, Active)
		c.notify(w, c.region[w])
	}
}

// BeginDrain moves an Active warp whose region issued its last
// instruction into Draining, shrinking its reservation to the lines that
// are still held (activeLines, indexed by absolute bank).
func (c *CM) BeginDrain(w int, activeLines []int) {
	if c.state[w] != Active {
		return
	}
	c.setState(w, Draining)
	c.Stats.Drains++
	c.epoch++
	c.notify(w, c.region[w])
	for b := 0; b < c.cfg.Banks; b++ {
		excess := c.warpRes[w][b] - activeLines[b]
		if excess > 0 {
			c.warpRes[w][b] -= excess
			c.reserved[b] -= excess
		}
	}
}

// ReleaseLine returns one reserved line in bank b during draining (a
// pending output completed and became evictable).
func (c *CM) ReleaseLine(w, b int) {
	if c.warpRes[w][b] > 0 {
		c.warpRes[w][b]--
		c.reserved[b]--
		c.epoch++
		c.Stats.LinesReleased++
	}
}

// FinishDrain completes the region: any residual reservation is released,
// dynamic region statistics are returned, and the warp is pushed back on
// top of the stack.
func (c *CM) FinishDrain(w int, now uint64) (cycles uint64) {
	c.releaseAll(w)
	c.Stats.DrainsDone++
	cycles = now - c.activatedAt[w]
	left := c.region[w]
	c.region[w] = -1
	c.setState(w, Inactive)
	c.notify(w, left)
	if c.cfg.FIFOStack {
		// Oldest-first: rejoin at the bottom.
		c.stack = append(c.stack, 0)
		copy(c.stack[1:], c.stack)
		c.stack[0] = w
	} else {
		c.stack = append(c.stack, w)
	}
	return cycles
}

// Finish retires a warp that exited the kernel.
func (c *CM) Finish(w int) {
	c.releaseAll(w)
	c.Stats.Finishes++
	left := c.region[w]
	c.region[w] = -1
	c.setState(w, Finished)
	c.notify(w, left)
}

func (c *CM) releaseAll(w int) {
	c.epoch++ // also covers FinishDrain's push back onto the stack
	for b := 0; b < c.cfg.Banks; b++ {
		c.reserved[b] -= c.warpRes[w][b]
		c.warpRes[w][b] = 0
	}
}

// Reserved returns the reservation in bank b (tests).
func (c *CM) Reserved(b int) int { return c.reserved[b] }

// CheckInvariants verifies counters (tests): reservations non-negative,
// within capacity, and consistent with per-warp records.
func (c *CM) CheckInvariants() error {
	sum := make([]int, c.cfg.Banks)
	for w := range c.warpRes {
		for b, r := range c.warpRes[w] {
			if r < 0 {
				return fmt.Errorf("cm: warp %d bank %d negative reservation", w, b)
			}
			if r > 0 && (c.state[w] == Inactive || c.state[w] == Finished) {
				return fmt.Errorf("cm: %v warp %d holds reservation", c.state[w], w)
			}
			sum[b] += r
		}
	}
	for b := range sum {
		if sum[b] != c.reserved[b] {
			return fmt.Errorf("cm: bank %d reserved %d != sum %d", b, c.reserved[b], sum[b])
		}
		if c.reserved[b] < 0 || c.reserved[b] > c.cfg.LinesPerBank {
			return fmt.Errorf("cm: bank %d reservation %d out of range", b, c.reserved[b])
		}
	}
	// Stack membership: exactly the Inactive warps, each once.
	onStack := map[int]int{}
	for _, w := range c.stack {
		onStack[w]++
	}
	for w, st := range c.state {
		if bit := c.active[w>>6]>>(uint(w)&63)&1 != 0; bit != (st == Active) {
			return fmt.Errorf("cm: warp %d active bit %v but state %v", w, bit, st)
		}
		switch st {
		case Inactive:
			if onStack[w] != 1 {
				return fmt.Errorf("cm: inactive warp %d on stack %d times", w, onStack[w])
			}
		default:
			if onStack[w] != 0 {
				return fmt.Errorf("cm: %v warp %d present on stack", st, w)
			}
		}
	}
	return nil
}
