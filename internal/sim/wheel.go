package sim

import (
	"repro/internal/isa"
)

// wheelEntry is one event on the SM's timing calendar (package calendar;
// mem's hierarchy keeps its completions on another instance of the same
// ring). Every delay the SM schedules is a small constant — the
// execution latencies, the compressor's decompress delay — so the ring
// is sized past the longest configured latency and does not grow. The
// common event is a scoreboard release (a fixed-latency writeback),
// stored inline as (warp, reg, mem); what a provider schedules (After)
// is a Timer, its own record held by pointer — neither is a closure.
// step drains each cycle's slot before that cycle's picks, and
// fast-forward never jumps past the next event.
type wheelEntry struct {
	t    Timer
	warp int32
	reg  isa.Reg
	mem  bool
}

// Timer is what SM.After wakes: Fire is called once, when the delay has
// passed, before that cycle's provider Tick.
type Timer interface {
	Fire()
}
