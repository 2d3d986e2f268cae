// Package sanitizer is the opt-in cycle-level invariant checker and the
// structured Diagnostic bundle every abnormal termination produces.
//
// Layers register named check functions (OSU line-population partition,
// CM reservation bounds, capacity-state transition legality, staged
// counts vs region annotations, scoreboard/warp-state legality); the
// simulator calls Check once per cycle and converts the first violation
// into a Diagnostic carrying the machine context a designer needs:
// last-K recorded events, a metrics snapshot, per-warp capacity states,
// and the attributed stall breakdown. A nil *Sanitizer is a valid
// disabled checker (one branch per cycle), matching the metrics/events
// idiom.
//
// The package deliberately depends only on the standard library and the
// leaf package events (for the capacity states it checks): the layers
// under test (cm, osu, sim, core) import it for the Diagnostic type, so
// it must sit below all of them.
package sanitizer

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/events"
)

// CheckFunc verifies one invariant; nil means it holds.
type CheckFunc func() error

type check struct {
	component string
	fn        CheckFunc
}

// Sanitizer runs registered invariant checks each cycle.
type Sanitizer struct {
	checks []check
}

// New builds a sanitizer with no checks registered.
func New() *Sanitizer { return &Sanitizer{} }

// Register adds an invariant under a component name ("osu/s2",
// "cm/s0/transitions", "sim/warps"); the name becomes the Diagnostic's
// Component on violation. Checks run in registration order.
func (s *Sanitizer) Register(component string, fn CheckFunc) {
	if s == nil {
		return
	}
	s.checks = append(s.checks, check{component, fn})
}

// Enabled reports whether any check is registered. Nil-safe.
func (s *Sanitizer) Enabled() bool { return s != nil && len(s.checks) > 0 }

// Check runs every registered invariant and returns a Diagnostic for the
// first violation, or nil. Nil-safe: a nil receiver always passes.
func (s *Sanitizer) Check(cycle uint64) *Diagnostic {
	if s == nil {
		return nil
	}
	for _, c := range s.checks {
		if err := c.fn(); err != nil {
			return &Diagnostic{
				Component: c.component,
				Violation: err.Error(),
				Cycle:     cycle,
				Warp:      -1,
			}
		}
	}
	return nil
}

// legalTransitions[from][to] encodes the capacity state machine of
// paper §5.1: Inactive -> Preloading (inputs pending) or Active
// (immediate), Preloading -> Active, Active -> Draining, Draining ->
// Inactive; any live state may go straight to Finished (warp exit).
var legalTransitions = [events.NumPhases][events.NumPhases]bool{
	events.PhaseInactive:   {events.PhasePreloading: true, events.PhaseActive: true, events.PhaseFinished: true},
	events.PhasePreloading: {events.PhaseActive: true, events.PhaseFinished: true},
	events.PhaseActive:     {events.PhaseDraining: true, events.PhaseFinished: true},
	events.PhaseDraining:   {events.PhaseInactive: true, events.PhaseFinished: true},
	events.PhaseFinished:   {},
}

// TransitionChecker validates the per-warp capacity state machine from a
// stream of Observe calls (wired into the CM's OnTransition hook, which
// reports only the entered state — the checker remembers each warp's
// previous one). Violations latch into Err, which is registered as an
// ordinary sanitizer check: hooks have no error return, so the per-cycle
// sweep surfaces the latched violation. It keeps its own per-warp state
// rather than asking the CM: it is the independent check.
type TransitionChecker struct {
	state []events.Phase
	err   error
}

// NewTransitionChecker tracks n warps, all starting Inactive.
func NewTransitionChecker(n int) *TransitionChecker {
	return &TransitionChecker{state: make([]events.Phase, n)}
}

// Observe records warp w entering state `to`, latching a violation on an
// illegal edge. Self-transitions are illegal too: the CM never
// re-announces a state.
func (t *TransitionChecker) Observe(w int, to events.Phase) {
	if t.err != nil || w < 0 || w >= len(t.state) {
		return
	}
	from := t.state[w]
	if to >= events.NumPhases {
		t.err = fmt.Errorf("warp %d: capacity state %d out of range", w, to)
		return
	}
	if !legalTransitions[from][to] {
		t.err = fmt.Errorf("warp %d: illegal capacity transition %s -> %s", w, from, to)
		return
	}
	t.state[w] = to
}

// Err returns the latched violation (a sanitizer CheckFunc).
func (t *TransitionChecker) Err() error { return t.err }

// Metric is one named counter value captured at diagnosis time.
type Metric struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// WarpDiag is one warp's state in the bundle.
type WarpDiag struct {
	ID            int    `json:"id"`
	Group         int    `json:"group"`
	State         string `json:"state,omitempty"` // capacity state (RegLess)
	Region        int    `json:"region"`          // -1: none
	Finished      bool   `json:"finished"`
	AtBarrier     bool   `json:"at_barrier"`
	PendingWrites int    `json:"pending_writes"`
	LastIssue     uint64 `json:"last_issue"`
}

// StallCount is one reason's share of the attributed stall breakdown.
type StallCount struct {
	Reason string `json:"reason"`
	Warps  int    `json:"warps"`
}

// EventRecord is one recorded event rendered for the bundle.
type EventRecord struct {
	Cycle  uint64 `json:"cycle"`
	Kind   string `json:"kind"`
	Warp   int    `json:"warp"`
	Detail string `json:"detail,omitempty"`
}

// Diagnostic is the structured bundle produced when an invariant breaks,
// the forward-progress watchdog trips, or MaxCycles aborts the run. It
// is an error: layers return it up through sim.Run so experiments and
// the CLI render or serialize it instead of crashing.
type Diagnostic struct {
	// Component names the faulted unit ("osu/s2", "core/s0/drain",
	// "sim/watchdog", "sim/maxcycles").
	Component string `json:"component"`
	// Violation describes the broken invariant or trip condition.
	Violation string `json:"violation"`
	// Cycle is when the violation was detected.
	Cycle uint64 `json:"cycle"`
	// Warp is the implicated warp (-1 when not warp-specific).
	Warp int `json:"warp"`

	// Kernel and Provider identify the run.
	Kernel   string `json:"kernel,omitempty"`
	Provider string `json:"provider,omitempty"`

	// FaultsApplied lists injected faults that fired before detection
	// (empty outside fault-injection runs).
	FaultsApplied []string `json:"faults_applied,omitempty"`

	// RequestID ties a service-surfaced diagnostic back to the HTTP
	// request that triggered the simulation (empty outside regless
	// serve; stamped on a per-request copy, never the cached value).
	RequestID string `json:"request_id,omitempty"`

	// Warps is the per-warp machine state (capacity phase, barrier,
	// pending writes) at detection.
	Warps []WarpDiag `json:"warps,omitempty"`
	// Stalls attributes each unfinished warp to its current stall
	// reason (the same classification as the event analyzer).
	Stalls []StallCount `json:"stalls,omitempty"`
	// Metrics snapshots every registered counter.
	Metrics []Metric `json:"metrics,omitempty"`
	// Events holds the last recorded events before detection (empty
	// when no recorder was attached).
	Events []EventRecord `json:"events,omitempty"`
}

// Error implements error with a one-line summary; Render gives the full
// bundle.
func (d *Diagnostic) Error() string {
	return fmt.Sprintf("diagnostic: %s at cycle %d: %s", d.Component, d.Cycle, d.Violation)
}

// Brief is the bare one-line form for health reports and log lines:
// component, cycle, and violation without the "diagnostic:" prefix or the
// full bundle.
func (d *Diagnostic) Brief() string {
	return fmt.Sprintf("%s at cycle %d: %s", d.Component, d.Cycle, d.Violation)
}

// Render formats the full bundle for terminals.
func (d *Diagnostic) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "component  %s\n", d.Component)
	fmt.Fprintf(&b, "violation  %s\n", d.Violation)
	fmt.Fprintf(&b, "cycle      %d\n", d.Cycle)
	if d.Warp >= 0 {
		fmt.Fprintf(&b, "warp       %d\n", d.Warp)
	}
	if d.Kernel != "" {
		fmt.Fprintf(&b, "kernel     %s (provider %s)\n", d.Kernel, d.Provider)
	}
	for _, f := range d.FaultsApplied {
		fmt.Fprintf(&b, "fault      %s\n", f)
	}
	if len(d.Stalls) > 0 {
		b.WriteString("stalls    ")
		for _, s := range d.Stalls {
			fmt.Fprintf(&b, " %s:%d", s.Reason, s.Warps)
		}
		b.WriteByte('\n')
	}
	if len(d.Warps) > 0 {
		fmt.Fprintf(&b, "warps      %d tracked; unfinished:\n", len(d.Warps))
		shown := 0
		for _, w := range d.Warps {
			if w.Finished {
				continue
			}
			if shown == 16 {
				b.WriteString("  ...\n")
				break
			}
			shown++
			fmt.Fprintf(&b, "  w%-3d group %d", w.ID, w.Group)
			if w.State != "" {
				fmt.Fprintf(&b, " %-10s region %d", w.State, w.Region)
			}
			if w.AtBarrier {
				b.WriteString(" at-barrier")
			}
			if w.PendingWrites > 0 {
				fmt.Fprintf(&b, " pending=%d", w.PendingWrites)
			}
			fmt.Fprintf(&b, " last-issue=%d\n", w.LastIssue)
		}
	}
	if len(d.Events) > 0 {
		fmt.Fprintf(&b, "events     last %d recorded:\n", len(d.Events))
		for _, e := range d.Events {
			fmt.Fprintf(&b, "  c%-8d %-13s w%-3d %s\n", e.Cycle, e.Kind, e.Warp, e.Detail)
		}
	}
	if len(d.Metrics) > 0 {
		fmt.Fprintf(&b, "metrics    %d counters captured (see -diag-out JSON)\n", len(d.Metrics))
	}
	return b.String()
}

// WriteJSON serializes the full bundle (the -diag-out file).
func (d *Diagnostic) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
