package sim

import (
	"context"
	"fmt"

	"repro/internal/sanitizer"
)

// CancelCheckInterval is how many cycle-loop iterations pass between
// context polls. At ~1M simcycles/s a check every 8192 iterations bounds
// cancellation latency to well under 10ms of simulated work while keeping
// the poll off the per-cycle path.
const CancelCheckInterval = 8192

// RunLockstep is the cycle loop: every run, from a lone SM's Run to a
// 16-SM gpu.GPU.Run, advances through it. Each iteration steps every
// unfinished SM one cycle in index order (the deterministic arbitration
// order for anything the SMs share), checks its health, and then jumps a
// provably inert span — coordinated, so no SM skips past another's
// wakeup (fastForward). afterJump, when non-nil, validates shared state
// at each skip boundary. The caller finalizes the SMs.
//
// A cancelable ctx is polled every CancelCheckInterval iterations, so a
// simulation abandoned by its requester (deadline expiry, client
// disconnect, server drain) frees its worker instead of running to
// completion; the returned error wraps ctx.Err(). context.Background()
// (nil Done channel) costs one nil compare per iteration — the inner
// loop is the hottest code in the repository.
//
// Abnormal terminations — a MaxCycles overrun, a watchdog trip, a
// sanitizer violation, a fault reported by a provider — return a
// *sanitizer.Diagnostic carrying the machine state at detection, with the
// index of the SM it came from (-1 when the error is not one SM's).
func RunLockstep(ctx context.Context, sms []*SM, afterJump func() error) (int, error) {
	cancel := ctx.Done()
	for iter := uint64(1); ; iter++ {
		if cancel != nil && iter%CancelCheckInterval == 0 {
			select {
			case <-cancel:
				at := sms[0] // unfinished SMs share the highest cycle
				for _, sm := range sms {
					if sm.cycle > at.cycle {
						at = sm
					}
				}
				return -1, fmt.Errorf("sim: kernel %q abandoned at cycle %d: %w", at.K.Name, at.cycle, ctx.Err())
			default:
			}
		}
		active := false
		for i, sm := range sms {
			// Asked afresh at each SM's turn: an earlier SM's step this
			// cycle may have delivered the merged L2 fetch this one was
			// still waiting on.
			if sm.Done() {
				continue
			}
			active = true
			if sm.cycle >= sm.Cfg.MaxCycles {
				return i, sm.diagnose(&sanitizer.Diagnostic{
					Component: "sim/maxcycles",
					Violation: fmt.Sprintf("kernel %q exceeded %d cycles (%d insns retired)",
						sm.K.Name, sm.Cfg.MaxCycles, sm.Stats.DynInsns),
					Cycle: sm.cycle,
					Warp:  -1,
				})
			}
			sm.step()
			if err := sm.checkHealth(); err != nil {
				return i, err
			}
		}
		if !active {
			return -1, nil
		}
		if !fastForward(sms) {
			continue
		}
		// Re-check at the skip boundary: the sanitizer sweep is pure, so
		// one check of the frozen state stands in for the per-cycle checks
		// the skipped span would have run.
		for i, sm := range sms {
			if !sm.Done() {
				if err := sm.checkHealth(); err != nil {
					return i, err
				}
			}
		}
		if afterJump != nil {
			if err := afterJump(); err != nil {
				return -1, err
			}
		}
	}
}
