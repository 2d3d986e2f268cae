// Package osu implements the operand staging unit (paper §5.2): the small
// banked structure that replaces the register file. Each of the 8
// independent banks holds tagged 128-byte lines (one register each) with
// three line populations — active lines reserved by running regions, and
// clean/dirty evictable lines whose values may be reclaimed (clean lines
// drop for free; dirty lines must be written back toward the L1).
//
// The OSU is a pure state machine: timing (tag-port budgets, L1 traffic,
// writeback latency) is orchestrated by the RegLess provider in package
// core, which calls these methods at the cycles the hardware would.
package osu

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/events"
	"repro/internal/isa"
)

// Config sizes the unit. The paper's 512-entry-per-SM design point is one
// shard of 8 banks x 16 lines per warp scheduler.
type Config struct {
	Banks        int
	LinesPerBank int
	// Warps and NumRegs bound the (warp, register) tags the unit will see
	// and size its tag index. Warp IDs are SM-wide; a unit that is one of
	// Shards per-scheduler shards (§5) sees every Shards-th of them, so
	// the index keeps a row per Warps/Shards warps (Shards 0 means 1).
	Warps, Shards, NumRegs int
}

// State classifies a resident line.
type State uint8

const (
	// StateActive lines belong to a running (or draining) region.
	StateActive State = iota
	// StateClean lines are evictable and unchanged since they were read
	// from the backing store: reclaiming them is free.
	StateClean
	// StateDirty lines are evictable but modified: reclaiming them
	// requires a writeback.
	StateDirty
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateClean:
		return "clean"
	default:
		return "dirty"
	}
}

// line is one tagged entry; a free cell carries the tag NoReg.
type line struct {
	lru   uint64
	warp  int32
	reg   isa.Reg
	state State
}

// Stats counts OSU events.
type Stats struct {
	Reads      uint64 `metric:"reads"`
	Writes     uint64 `metric:"writes"`
	TagLookups uint64 `metric:"tag_lookups"`
	Installs   uint64 `metric:"installs"`
	Erases     uint64 `metric:"erases"`
	Hits       uint64 `metric:"hits"` // preload tag hits
}

// OSU is one shard's staging unit.
type OSU struct {
	cfg   Config
	Stats Stats
	clock uint64

	// lines is every bank's cells back to back: bank b's resident lines
	// are lines[b*LinesPerBank:][:count[b]], packed (a removal moves the
	// bank's last line into the hole).
	lines []line
	count []int
	// index maps a (warp, register) tag to 1 + its line's position in
	// lines (0: not resident; hence MaxLines), so a tag lookup is one load
	// and a compare against the line's own tag instead of a walk over the
	// bank. Install and remove are its only writers.
	index []uint16

	rec   *events.Recorder // nil-safe: disabled tracing costs one branch
	shard int
}

// SetRecorder attaches an event recorder; line lifecycle events
// (alloc/activate/demote/evict/erase) are emitted under this shard ID.
func (o *OSU) SetRecorder(r *events.Recorder, shard int) {
	o.rec = r
	o.shard = shard
}

func lineState(s State) events.LineState { return events.LineState(s) }

// MaxLines is the most lines (Banks x LinesPerBank) one unit can index.
const MaxLines = 1<<16 - 1

var (
	osuT   = arena.Of[OSU]()
	lineT  = arena.Of[line]()
	intT   = arena.Of[int]()
	indexT = arena.Of[uint16]()
)

// New builds an OSU, allocated from a (nil: the heap).
func New(a *arena.Arena, cfg Config) *OSU {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	o := osuT.New(a)
	*o = OSU{
		cfg:   cfg,
		lines: lineT.Make(a, cfg.Banks*cfg.LinesPerBank),
		count: intT.Make(a, cfg.Banks),
		index: indexT.Make(a, (cfg.Warps+cfg.Shards-1)/cfg.Shards*cfg.NumRegs),
	}
	for i := range o.lines {
		o.lines[i].reg = isa.NoReg // a free cell's tag
	}
	return o
}

// Bank returns the bank index for (warp, reg) — (warp+reg) mod banks
// (§5.2).
func (o *OSU) Bank(warp int, reg isa.Reg) int {
	return (warp + int(reg)) % o.cfg.Banks
}

// Banks returns the configured bank count.
func (o *OSU) Banks() int { return o.cfg.Banks }

// resident returns bank b's resident lines.
func (o *OSU) resident(b int) []line {
	return o.lines[b*o.cfg.LinesPerBank:][:o.count[b]]
}

// slot returns the tag's index cell, or nil for a tag outside the
// configured bounds (only a corrupted tag is).
func (o *OSU) slot(warp int, reg isa.Reg) *uint16 {
	row := warp / o.cfg.Shards
	if k := row*o.cfg.NumRegs + int(reg); int(reg) < o.cfg.NumRegs && uint(k) < uint(len(o.index)) {
		return &o.index[k]
	}
	return nil
}

// find returns the position in o.lines of the resident line tagged
// (warp, reg), or -1. The index proposes a line and the line's own tag
// confirms it, so a line whose tag was corrupted no longer answers to
// its name.
func (o *OSU) find(warp int, reg isa.Reg) int {
	if s := o.slot(warp, reg); s != nil && *s > 0 {
		if ln := &o.lines[*s-1]; ln.warp == int32(warp) && ln.reg == reg {
			return int(*s - 1)
		}
	}
	return -1
}

// Lookup performs a tag lookup, reporting presence and state.
func (o *OSU) Lookup(warp int, reg isa.Reg) (State, bool) {
	o.Stats.TagLookups++
	at := o.find(warp, reg)
	if at < 0 {
		return 0, false
	}
	return o.lines[at].state, true
}

// Activate turns a resident evictable line back into an active one (a
// preload hit). It reports whether the line was present.
func (o *OSU) Activate(warp int, reg isa.Reg) bool {
	at := o.find(warp, reg)
	if at < 0 {
		return false
	}
	ln := &o.lines[at]
	o.Stats.Hits++
	o.clock++
	o.rec.OSULine(events.KindOSUActivate, o.shard, warp, uint32(reg), lineState(ln.state))
	ln.state = StateActive
	ln.lru = o.clock
	return true
}

// Victim describes a dirty line displaced by Install that must be written
// back toward the L1.
type Victim struct {
	Warp int
	Reg  isa.Reg
}

// Install allocates an active line for (warp, reg) — a preload arrival or
// an interior register's first write. Allocation takes a free slot if one
// exists, then drops the LRU clean line, then displaces the LRU dirty
// line (returned for writeback). It fails only if every line in the bank
// is active, which the capacity manager's reservations must prevent.
func (o *OSU) Install(warp int, reg isa.Reg) (Victim, bool, error) {
	s := o.slot(warp, reg)
	if s == nil {
		return Victim{}, false, fmt.Errorf("osu: install of w%d %v outside the unit's %d warps x %d registers",
			warp, reg, o.cfg.Warps, o.cfg.NumRegs)
	}
	if o.find(warp, reg) >= 0 {
		return Victim{}, false, fmt.Errorf("osu: install of resident line w%d %v", warp, reg)
	}
	b := o.Bank(warp, reg)
	o.clock++
	o.Stats.Installs++
	o.rec.OSULine(events.KindOSUAlloc, o.shard, warp, uint32(reg), events.LineActive)
	nl := line{warp: int32(warp), reg: reg, state: StateActive, lru: o.clock}
	base := b * o.cfg.LinesPerBank
	if o.count[b] < o.cfg.LinesPerBank {
		o.lines[base+o.count[b]] = nl
		*s = uint16(base + o.count[b] + 1)
		o.count[b]++
		return Victim{}, false, nil
	}
	// Reclaim: LRU clean first, then LRU dirty.
	lines := o.resident(b)
	idx := lruOf(lines, StateClean)
	dirty := idx < 0
	if dirty {
		if idx = lruOf(lines, StateDirty); idx < 0 {
			return Victim{}, false, fmt.Errorf("osu: bank %d full of active lines installing w%d %v", b, warp, reg)
		}
	}
	v := Victim{Warp: int(lines[idx].warp), Reg: lines[idx].reg}
	o.reindex(&lines[idx], base+idx+1, 0)
	lines[idx] = nl
	*s = uint16(base + idx + 1)
	if !dirty {
		o.rec.OSULine(events.KindOSUErase, o.shard, v.Warp, uint32(v.Reg), events.LineClean)
		return Victim{}, false, nil
	}
	o.rec.OSULine(events.KindOSUEvict, o.shard, v.Warp, uint32(v.Reg), events.LineDirty)
	return v, true, nil
}

// lruOf returns the least recently used line in state st, or -1.
func lruOf(lines []line, st State) int {
	idx, oldest := -1, ^uint64(0)
	for i := range lines {
		if lines[i].state == st && lines[i].lru < oldest {
			oldest, idx = lines[i].lru, i
		}
	}
	return idx
}

// reindex moves ln's index cell from one value to another (0 clears it) —
// if the cell still holds the old value: a line whose tag was corrupted
// must not disturb the cell of the line that rightfully carries the tag.
func (o *OSU) reindex(ln *line, from, to int) {
	if s := o.slot(int(ln.warp), ln.reg); s != nil && *s == uint16(from) {
		*s = uint16(to)
	}
}

// remove frees the line at position at, moving its bank's last line into
// the hole.
func (o *OSU) remove(at int) {
	o.reindex(&o.lines[at], at+1, 0)
	b := at / o.cfg.LinesPerBank
	o.count[b]--
	last := b*o.cfg.LinesPerBank + o.count[b]
	if at != last {
		o.lines[at] = o.lines[last]
		o.reindex(&o.lines[at], last+1, at+1)
	}
	o.lines[last] = line{reg: isa.NoReg}
}

// Erase frees a line outright (dead value: interior last use, invalidating
// read completion, or cache invalidation of a resident register). It
// reports whether the line was present.
func (o *OSU) Erase(warp int, reg isa.Reg) bool {
	at := o.find(warp, reg)
	if at < 0 {
		return false
	}
	o.Stats.Erases++
	o.rec.OSULine(events.KindOSUErase, o.shard, warp, uint32(reg), lineState(o.lines[at].state))
	o.remove(at)
	return true
}

// MarkEvictable demotes an active line to the clean or dirty list. It
// reports whether the line was present and active.
func (o *OSU) MarkEvictable(warp int, reg isa.Reg, dirty bool) bool {
	at := o.find(warp, reg)
	if at < 0 || o.lines[at].state != StateActive {
		return false
	}
	ln := &o.lines[at]
	o.clock++
	if dirty {
		ln.state = StateDirty
	} else {
		ln.state = StateClean
	}
	o.rec.OSULine(events.KindOSUDemote, o.shard, warp, uint32(reg), lineState(ln.state))
	ln.lru = o.clock
	return true
}

// CountRead accounts one data-array read.
func (o *OSU) CountRead() { o.Stats.Reads++ }

// CountWrite accounts one data-array write.
func (o *OSU) CountWrite() { o.Stats.Writes++ }

// FreeWarp erases every line belonging to a finished warp and returns how
// many were freed.
func (o *OSU) FreeWarp(warp int) int {
	n := 0
	for b := range o.count {
		base := b * o.cfg.LinesPerBank
		for i := 0; i < o.count[b]; {
			if ln := &o.lines[base+i]; ln.warp == int32(warp) {
				o.rec.OSULine(events.KindOSUErase, o.shard, warp, uint32(ln.reg), lineState(ln.state))
				o.remove(base + i)
				n++
			} else {
				i++
			}
		}
	}
	return n
}

// ActiveLines returns the active-line count in a bank (capacity checks).
func (o *OSU) ActiveLines(bank int) int {
	n := 0
	for _, ln := range o.resident(bank) {
		if ln.state == StateActive {
			n++
		}
	}
	return n
}

// ResidentLines returns the total resident lines in a bank.
func (o *OSU) ResidentLines(bank int) int { return o.count[bank] }

// pickLine returns the pick-th resident line counting across banks, or
// nil when the unit is empty (fault injection retries next cycle).
func (o *OSU) pickLine(pick int) *line {
	total := 0
	for _, c := range o.count {
		total += c
	}
	if total == 0 {
		return nil
	}
	idx := pick % total
	for b, c := range o.count {
		if idx < c {
			return &o.lines[b*o.cfg.LinesPerBank+idx]
		}
		idx -= c
	}
	return nil
}

// CorruptTag bumps a resident line's register tag (fault injection: a
// tag-array bit flip). The line stays in its original bank and the index
// keeps its old name, so the bank placement invariant breaks and
// CheckInvariants names this unit. It reports what was corrupted, or
// false when no line is resident yet.
func (o *OSU) CorruptTag(pick int) (string, bool) {
	ln := o.pickLine(pick)
	if ln == nil {
		return "", false
	}
	old := ln.reg
	ln.reg++
	return fmt.Sprintf("line w%d tag %v -> %v (bank %d)", ln.warp, old, ln.reg, o.Bank(int(ln.warp), old)), true
}

// CorruptState flips a resident line between the active and evictable
// populations (fault injection: a state-array bit flip), breaking the
// active-lines vs staged-register agreement the core sanitizer checks.
// It reports what was corrupted, or false when no line is resident yet.
func (o *OSU) CorruptState(pick int) (string, bool) {
	ln := o.pickLine(pick)
	if ln == nil {
		return "", false
	}
	old := ln.state
	if ln.state == StateActive {
		ln.state = StateClean
	} else {
		ln.state = StateActive
	}
	return fmt.Sprintf("line w%d %v state %v -> %v", ln.warp, ln.reg, old, ln.state), true
}

// CheckInvariants verifies structural sanity (tests): per-bank occupancy
// within capacity, correct bank placement, and the tag index naming
// exactly the resident lines, each at its position — which also rules out
// two lines under one tag, since one cell names one position.
func (o *OSU) CheckInvariants() error {
	resident := 0
	for b, c := range o.count {
		if c > o.cfg.LinesPerBank {
			return fmt.Errorf("osu: bank %d holds %d lines (cap %d)", b, c, o.cfg.LinesPerBank)
		}
		resident += c
		for i, ln := range o.resident(b) {
			if o.Bank(int(ln.warp), ln.reg) != b {
				return fmt.Errorf("osu: line w%d %v in wrong bank %d", ln.warp, ln.reg, b)
			}
			if at := b*o.cfg.LinesPerBank + i; o.find(int(ln.warp), ln.reg) != at {
				return fmt.Errorf("osu: line w%d %v at %d is not where the tag index says (duplicate or stale tag)",
					ln.warp, ln.reg, at)
			}
		}
	}
	indexed := 0
	for _, v := range o.index {
		if v != 0 {
			indexed++
		}
	}
	if indexed != resident {
		return fmt.Errorf("osu: tag index names %d lines but %d are resident", indexed, resident)
	}
	return nil
}
