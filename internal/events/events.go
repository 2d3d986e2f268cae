// Package events is the simulation's structured event recorder: a
// cycle-stamped, typed log of what the machine did. Every consumer reads
// the recording of a finished run: the Perfetto exporter and the
// stall-attribution analyzer here, the warp-state timeline in
// internal/trace, the diagnostic bundle's last-events view (Tail).
//
// The design follows internal/metrics: a nil *Recorder is a valid no-op
// (every emit method checks the receiver), so instrumented code calls
// recorder methods unconditionally and pays one predictable branch when
// tracing is off. When tracing is on, events append to per-shard chunked
// buffers — no per-event allocation, no locking (each shard's emitters
// run on the single simulation goroutine), no reordering (cycles only
// grow). A Mask selects event families, so a report that needs no OSU or
// memory events does not pay for them.
//
// Events are 24-byte structs with kind-specific payload fields; the
// emitting layer defines the encoding and the consumers in this package
// (Analyze, WriteChipPerfetto) and in internal/trace decode it:
//
//	Kind          Warp       A             B        Arg
//	Issue         issuer     -             group    global insn index
//	Stall         culprit†   StallReason   group    -
//	WarpState     warp       Phase         shard    region (^0 = none)
//	Barrier       warp       1=enter       group    -
//	Exit          warp       -             group    -
//	PreloadIssue  warp       -             shard    register
//	PreloadFill   warp       PreloadSrc    shard    register
//	OSU*          line warp  LineState     shard    register
//	Compress      evictee    Pattern id    shard    1 = compressor hit
//	L1Access      -1         bit0 hit,     -        line address
//	                         bit1 write
//
// † the stalled warp closest to issuing, -1 when the group is idle.
package events

import "sort"

// Kind identifies an event type.
type Kind uint8

const (
	// KindIssue: a scheduler group issued one instruction.
	KindIssue Kind = iota
	// KindStall: a scheduler group had no eligible warp this cycle.
	KindStall
	// KindWarpState: a capacity-manager state transition (RegLess).
	KindWarpState
	// KindBarrier: a warp arrived at (A=1) or left (A=0) a CTA barrier.
	KindBarrier
	// KindExit: a warp retired.
	KindExit
	// KindPreloadIssue: a region activation enqueued one input fetch.
	KindPreloadIssue
	// KindPreloadFill: the input fetch resolved (A tells from where).
	KindPreloadFill
	// KindOSUAlloc: an OSU line was allocated for (warp, reg).
	KindOSUAlloc
	// KindOSUActivate: an evictable resident line was re-activated
	// (A is the state it was found in).
	KindOSUActivate
	// KindOSUDemote: an active line became evictable (A: clean/dirty).
	KindOSUDemote
	// KindOSUEvict: a dirty line was displaced toward the L1.
	KindOSUEvict
	// KindOSUErase: a line was dropped (A is its state at erase).
	KindOSUErase
	// KindCompress: the compressor classified an evicted value
	// (A = compress.Pattern, Arg = 1 on a hit).
	KindCompress
	// KindL1Access: the backing-store L1 accepted an access.
	KindL1Access

	numKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindIssue:
		return "issue"
	case KindStall:
		return "stall"
	case KindWarpState:
		return "warp-state"
	case KindBarrier:
		return "barrier"
	case KindExit:
		return "exit"
	case KindPreloadIssue:
		return "preload-issue"
	case KindPreloadFill:
		return "preload-fill"
	case KindOSUAlloc:
		return "osu-alloc"
	case KindOSUActivate:
		return "osu-activate"
	case KindOSUDemote:
		return "osu-demote"
	case KindOSUEvict:
		return "osu-evict"
	case KindOSUErase:
		return "osu-erase"
	case KindCompress:
		return "compress"
	case KindL1Access:
		return "l1-access"
	default:
		return "unknown"
	}
}

// StallReason classifies why a scheduler group issued nothing. Values are
// ordered by proximity to issue: when several warps are blocked for
// different reasons, attribution charges the cycle to the highest reason
// present (the warp that came closest to issuing).
type StallReason uint8

const (
	// StallIdle: no live warp in the group (all finished or none exist).
	StallIdle StallReason = iota
	// StallBarrier: the nearest warp waits at a CTA barrier.
	StallBarrier
	// StallConflict: the nearest warp is paying an issue penalty (OSU
	// bank conflict, metadata instructions, two-level promotion refill).
	StallConflict
	// StallScoreboard: blocked on a pending ALU/SFU/shared write.
	StallScoreboard
	// StallMemory: blocked on an outstanding global-load destination.
	StallMemory
	// StallSFU: the group's SFU issue interval has not elapsed.
	StallSFU
	// StallLSU: the load-store queue is full.
	StallLSU
	// StallCapacity: the provider refused issue (RegLess: the warp's
	// region is not staged — the paper's capacity cost).
	StallCapacity

	// NumStallReasons sizes per-reason tables.
	NumStallReasons
)

// String names the reason.
func (r StallReason) String() string {
	switch r {
	case StallIdle:
		return "idle"
	case StallBarrier:
		return "barrier"
	case StallConflict:
		return "conflict"
	case StallScoreboard:
		return "scoreboard"
	case StallMemory:
		return "memory"
	case StallSFU:
		return "sfu"
	case StallLSU:
		return "lsu"
	case StallCapacity:
		return "capacity"
	default:
		return "unknown"
	}
}

// Phase mirrors the capacity manager's warp states (cm.State values)
// without importing package cm from this leaf package.
type Phase uint8

const (
	PhaseInactive Phase = iota
	PhasePreloading
	PhaseActive
	PhaseDraining
	PhaseFinished
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseInactive:
		return "inactive"
	case PhasePreloading:
		return "preloading"
	case PhaseActive:
		return "active"
	case PhaseDraining:
		return "draining"
	default:
		return "finished"
	}
}

// LineState mirrors osu.State for OSU line events.
type LineState uint8

const (
	LineActive LineState = iota
	LineClean
	LineDirty
)

// String names the line state.
func (s LineState) String() string {
	switch s {
	case LineActive:
		return "active"
	case LineClean:
		return "clean"
	default:
		return "dirty"
	}
}

// PreloadSrc tells which level satisfied a preload — the provenance the
// paper's Figure 17 reports.
type PreloadSrc uint8

const (
	SrcOSU PreloadSrc = iota
	SrcCompressor
	SrcL1
	SrcL2DRAM

	// NumPreloadSrcs sizes per-source tables.
	NumPreloadSrcs
)

// String names the source.
func (s PreloadSrc) String() string {
	switch s {
	case SrcOSU:
		return "osu"
	case SrcCompressor:
		return "compressor"
	case SrcL1:
		return "L1"
	default:
		return "L2/DRAM"
	}
}

// Mask selects which event families a recorder keeps.
type Mask uint32

const (
	// MaskSched keeps per-cycle issue and stall-attribution events.
	MaskSched Mask = 1 << iota
	// MaskStates keeps warp state transitions, barriers, and exits.
	MaskStates
	// MaskPreloads keeps preload issue/fill spans.
	MaskPreloads
	// MaskOSU keeps OSU line lifecycle events.
	MaskOSU
	// MaskCompress keeps compressor pattern decisions.
	MaskCompress
	// MaskMem keeps backing-store L1 access events.
	MaskMem

	// MaskAll keeps everything.
	MaskAll = MaskSched | MaskStates | MaskPreloads | MaskOSU | MaskCompress | MaskMem
	// MaskTimeline is what the warp-state timeline needs: the states, and
	// the issues its ipc row counts.
	MaskTimeline = MaskStates | MaskSched
)

// NoRegion is the Arg encoding for "no region" in WarpState events.
const NoRegion = ^uint32(0)

// Event is one recorded occurrence. Field meaning is per-Kind (see the
// package comment); the struct is fixed-size so buffers are flat arrays.
type Event struct {
	Cycle uint64
	Arg   uint32
	Warp  int32
	Kind  Kind
	A     uint8
	B     uint8
}

// Region decodes a WarpState event's region (-1 when none).
func (e Event) Region() int {
	if e.Arg == NoRegion {
		return -1
	}
	return int(e.Arg)
}

// chunkEvents sizes buffer chunks: emits allocate only when a chunk
// fills (every 8192 events), keeping the hot path allocation-free.
const chunkEvents = 1 << 13

// shardBuf is an append-only chunked event buffer.
type shardBuf struct {
	chunks [][]Event
}

func (b *shardBuf) append(e Event) {
	n := len(b.chunks)
	if n == 0 || len(b.chunks[n-1]) == chunkEvents {
		b.chunks = append(b.chunks, make([]Event, 0, chunkEvents))
		n++
	}
	b.chunks[n-1] = append(b.chunks[n-1], e)
}

func (b *shardBuf) len() int {
	n := 0
	for _, c := range b.chunks {
		n += len(c)
	}
	return n
}

func (b *shardBuf) forEach(fn func(Event)) {
	for _, c := range b.chunks {
		for i := range c {
			fn(c[i])
		}
	}
}

// Recorder collects events for one simulated SM. One buffer per shard
// (scheduler group) plus a trailing buffer for machine-global sources
// (the memory hierarchy) keeps appends cache-local and lock-free on the
// single simulation goroutine. The zero value of *Recorder (nil) is a
// valid disabled recorder.
type Recorder struct {
	mask   Mask
	cycle  uint64
	bufs   []shardBuf
	counts [numKinds]uint64
}

// NewRecorder builds a recorder for `shards` scheduler groups keeping
// the families in mask.
func NewRecorder(shards int, mask Mask) *Recorder {
	if shards < 1 {
		shards = 1
	}
	return &Recorder{mask: mask, bufs: make([]shardBuf, shards+1)}
}

// Enabled reports whether any family in m is recorded. Nil-safe; hot
// paths use it to skip argument computation when tracing is off.
func (r *Recorder) Enabled(m Mask) bool { return r != nil && r.mask&m != 0 }

// SetCycle stamps subsequent events; the simulator calls it once at the
// top of each cycle. Nil-safe.
func (r *Recorder) SetCycle(c uint64) {
	if r != nil {
		r.cycle = c
	}
}

// NumShards returns the per-shard buffer count (excluding the global
// buffer, which ShardEvents exposes at index NumShards()).
func (r *Recorder) NumShards() int {
	if r == nil {
		return 0
	}
	return len(r.bufs) - 1
}

// Len returns the total recorded event count.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.bufs {
		n += r.bufs[i].len()
	}
	return n
}

// Count returns how many events of kind k were recorded.
func (r *Recorder) Count(k Kind) uint64 {
	if r == nil {
		return 0
	}
	return r.counts[k]
}

// ForEach visits every event, shard-major (within a shard, events are in
// cycle order; across shards they are not interleaved).
func (r *Recorder) ForEach(fn func(Event)) {
	if r == nil {
		return
	}
	for i := range r.bufs {
		r.bufs[i].forEach(fn)
	}
}

// ShardEvents visits one shard's events in order; index NumShards()
// holds machine-global events (L1 accesses).
func (r *Recorder) ShardEvents(shard int, fn func(Event)) {
	if r == nil || shard < 0 || shard >= len(r.bufs) {
		return
	}
	r.bufs[shard].forEach(fn)
}

// tail returns the buffer's last n events in order.
func (b *shardBuf) tail(n int) []Event {
	out := make([]Event, 0, n)
	for ci := len(b.chunks) - 1; ci >= 0 && len(out) < n; ci-- {
		c := b.chunks[ci]
		for i := len(c) - 1; i >= 0 && len(out) < n; i-- {
			out = append(out, c[i])
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Tail returns the last n recorded events across all shards, ordered by
// cycle (events from the same cycle keep their per-shard order). It is
// the diagnostic bundle's "last K events" view; the scan is O(n *
// shards), independent of run length. Nil-safe.
func (r *Recorder) Tail(n int) []Event {
	if r == nil || n <= 0 {
		return nil
	}
	var cand []Event
	for i := range r.bufs {
		cand = append(cand, r.bufs[i].tail(n)...)
	}
	sort.SliceStable(cand, func(a, b int) bool { return cand[a].Cycle < cand[b].Cycle })
	if len(cand) > n {
		cand = cand[len(cand)-n:]
	}
	return cand
}

func (r *Recorder) emit(shard int, e Event) {
	if shard < 0 || shard >= len(r.bufs)-1 {
		shard = len(r.bufs) - 1
	}
	e.Cycle = r.cycle
	r.bufs[shard].append(e)
	r.counts[e.Kind]++
}

// Issue records one issued instruction (gi = global instruction index).
func (r *Recorder) Issue(group, warp, gi int) {
	if !r.Enabled(MaskSched) {
		return
	}
	r.emit(group, Event{Kind: KindIssue, Warp: int32(warp), B: uint8(group), Arg: uint32(gi)})
}

// Stall records an empty issue slot with its attributed reason; warp is
// the blocked warp closest to issuing (-1 when the group is idle).
func (r *Recorder) Stall(group int, reason StallReason, warp int) {
	if !r.Enabled(MaskSched) {
		return
	}
	r.emit(group, Event{Kind: KindStall, Warp: int32(warp), A: uint8(reason), B: uint8(group)})
}

// State records a capacity-manager transition for a (global) warp.
func (r *Recorder) State(shard, warp int, ph Phase, region int) {
	if !r.Enabled(MaskStates) {
		return
	}
	arg := NoRegion
	if region >= 0 {
		arg = uint32(region)
	}
	r.emit(shard, Event{Kind: KindWarpState, Warp: int32(warp), A: uint8(ph), B: uint8(shard), Arg: arg})
}

// Barrier records a warp arriving at (enter) or leaving a CTA barrier.
func (r *Recorder) Barrier(group, warp int, enter bool) {
	if !r.Enabled(MaskStates) {
		return
	}
	var a uint8
	if enter {
		a = 1
	}
	r.emit(group, Event{Kind: KindBarrier, Warp: int32(warp), A: a, B: uint8(group)})
}

// Exit records a warp retiring.
func (r *Recorder) Exit(group, warp int) {
	if !r.Enabled(MaskStates) {
		return
	}
	r.emit(group, Event{Kind: KindExit, Warp: int32(warp), B: uint8(group)})
}

// PreloadIssue records one input fetch enqueued at region activation.
func (r *Recorder) PreloadIssue(shard, warp int, reg uint32) {
	if !r.Enabled(MaskPreloads) {
		return
	}
	r.emit(shard, Event{Kind: KindPreloadIssue, Warp: int32(warp), B: uint8(shard), Arg: reg})
}

// PreloadFill records the fetch resolving from src.
func (r *Recorder) PreloadFill(shard, warp int, reg uint32, src PreloadSrc) {
	if !r.Enabled(MaskPreloads) {
		return
	}
	r.emit(shard, Event{Kind: KindPreloadFill, Warp: int32(warp), A: uint8(src), B: uint8(shard), Arg: reg})
}

// OSULine records a line lifecycle event (kind one of the KindOSU*).
func (r *Recorder) OSULine(k Kind, shard, warp int, reg uint32, st LineState) {
	if !r.Enabled(MaskOSU) {
		return
	}
	r.emit(shard, Event{Kind: k, Warp: int32(warp), A: uint8(st), B: uint8(shard), Arg: reg})
}

// Compress records a compressor pattern decision on an evicted value.
func (r *Recorder) Compress(shard, warp int, pattern uint8, hit bool) {
	if !r.Enabled(MaskCompress) {
		return
	}
	var arg uint32
	if hit {
		arg = 1
	}
	r.emit(shard, Event{Kind: KindCompress, Warp: int32(warp), A: pattern, B: uint8(shard), Arg: arg})
}

// L1 records an accepted backing-store L1 access.
func (r *Recorder) L1(write, hit bool, addr uint32) {
	if !r.Enabled(MaskMem) {
		return
	}
	var a uint8
	if hit {
		a |= 1
	}
	if write {
		a |= 2
	}
	r.emit(-1, Event{Kind: KindL1Access, Warp: -1, A: a, Arg: addr})
}
