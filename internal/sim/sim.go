// Package sim is the cycle-level streaming-multiprocessor model: 64 warps
// across 4 scheduler groups (Table 1's GTX 980 SM), GTO or two-level warp
// scheduling, a scoreboard, latency-modelled execution pipes, CTA barriers,
// an LSU with address coalescing over the bypassing L2 path, and a
// pluggable register scheme: a Provider register file (baseline RF / RFV /
// RFH) or a Stager staging unit (RegLess).
//
// The simulator co-simulates function and timing: issuing an instruction
// executes it functionally (package exec), so values, divergence, and
// memory addresses are real; the surrounding machinery decides only *when*
// each instruction issues and completes.
//
// Every count is a plain field of a statistics struct the SM owns — Stats,
// Prov (the register scheme's, written by the provider through the
// pointer it takes at Attach), one groupStats per scheduler — and a
// `metric` tag on the field is what puts it on the SM's metrics registry.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/arena"
	"repro/internal/calendar"
	"repro/internal/cfg"
	"repro/internal/events"
	"repro/internal/exec"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sanitizer"
)

// SchedKind selects the warp scheduling policy.
type SchedKind int

const (
	// SchedGTO is greedy-then-oldest (the baseline; Table 1).
	SchedGTO SchedKind = iota
	// SchedTwoLevel is the two-level scheduler of Gebhart et al. [9],
	// used by the RFH and Figure 2 experiments.
	SchedTwoLevel
)

func (s SchedKind) String() string {
	if s == SchedTwoLevel {
		return "2-level"
	}
	return "GTO"
}

// Config parameterizes the SM (defaults follow Table 1).
type Config struct {
	Warps      int
	Schedulers int
	Sched      SchedKind
	// ActiveSet is the two-level scheduler's active warps per scheduler.
	ActiveSet int
	// PromoteLatency is the pipeline-refill delay a warp pays when the
	// two-level scheduler promotes it into the active set.
	PromoteLatency int

	// Execution latencies (cycles from issue to writeback).
	ALULat   int
	FMALat   int
	SFULat   int
	ShmemLat int
	// SFUIssueInterval throttles SFU issue per scheduler group.
	SFUIssueInterval int
	// LSUQueue bounds in-flight memory instructions per SM.
	LSUQueue int

	Mem mem.Config

	// WarpIDBase offsets the global warp/thread IDs of this SM's warps
	// (multi-SM simulation: SM i hosts warps [i*Warps, (i+1)*Warps)).
	// Must be a multiple of the kernel's WarpsPerCTA.
	WarpIDBase int

	// WindowSize is the sampling window for working-set and traffic
	// series (100 cycles in Figures 2 and 3).
	WindowSize int
	// MaxCycles aborts runaway simulations.
	MaxCycles uint64
	// WatchdogCycles trips the forward-progress watchdog when no warp
	// issues for this many cycles while warps remain unfinished (0
	// disables). It fires far sooner than MaxCycles and produces a full
	// Diagnostic instead of a bare overrun error.
	WatchdogCycles uint64

	// NoFastForward disables the cycle-skip fast-forward (fastforward.go),
	// stepping every cycle even when the machine is provably frozen. The
	// results are identical either way; the switch exists for differential
	// validation and for profiling the stepped path.
	NoFastForward bool
}

// DefaultConfig returns the Table 1 SM configuration.
func DefaultConfig() Config {
	return Config{
		Warps:            64,
		Schedulers:       4,
		Sched:            SchedGTO,
		ActiveSet:        3,
		PromoteLatency:   4,
		ALULat:           6,
		FMALat:           6,
		SFULat:           24,
		ShmemLat:         26,
		SFUIssueInterval: 4,
		LSUQueue:         16,
		Mem:              mem.DefaultConfig(),
		WindowSize:       100,
		MaxCycles:        30_000_000,
		WatchdogCycles:   1_000_000,
	}
}

// Stats aggregates SM-level counters.
type Stats struct {
	// Cycles is the clock, not a cell: a window carries it as its end.
	Cycles      uint64
	DynInsns    uint64 `metric:"dyn_insns"`
	IssueStalls uint64 `metric:"issue_stalls"`

	ALUOps       uint64 `metric:"alu_ops"`
	FMAOps       uint64 `metric:"fma_ops"`
	SFUOps       uint64 `metric:"sfu_ops"`
	GlobalLoads  uint64 `metric:"global_loads"`
	GlobalStores uint64 `metric:"global_stores"`
	SharedOps    uint64 `metric:"shared_ops"`
	Branches     uint64 `metric:"branches"`
	Barriers     uint64 `metric:"barriers"`

	// MemLines counts coalesced line requests issued by the LSU.
	MemLines uint64 `metric:"mem_lines"`

	// ActiveLanes sums the active-lane count over issued instructions;
	// ActiveLanes / (DynInsns*32) is SIMT lane efficiency.
	ActiveLanes uint64 `metric:"active_lanes"`

	// WorkingSetKB is the average distinct register bytes touched per
	// window (Figure 2).
	WorkingSetKB float64
	// BackingSeries samples the provider's backing-store accesses per
	// window over time (Figure 3).
	BackingSeries []uint64

	// FFSkippedCycles counts cycles covered by fast-forward jumps and
	// FFJumps the jumps themselves (fastforward.go). Deliberately
	// untagged: a fast-forwarded run must export byte-identical window
	// snapshots to a stepped one.
	FFSkippedCycles uint64
	FFJumps         uint64
}

// groupStats is one scheduler group's issue accounting: cycles with an
// issue, cycles without, scoreboard rejections, provider staging
// rejections.
type groupStats struct {
	Issued        uint64 `metric:"issue_cycles"`
	NoIssue       uint64 `metric:"stall_cycles"`
	Scoreboard    uint64 `metric:"scoreboard_rejects"`
	ProviderStall uint64 `metric:"provider_rejects"`
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.DynInsns) / float64(s.Cycles)
}

// SIMTEfficiency returns the mean fraction of active lanes per issued
// instruction (1.0 = fully convergent).
func (s *Stats) SIMTEfficiency() float64 {
	if s.DynInsns == 0 {
		return 0
	}
	return float64(s.ActiveLanes) / float64(s.DynInsns*isa.WarpWidth)
}

// SM is one streaming multiprocessor.
type SM struct {
	Cfg      Config
	K        *isa.Kernel
	G        *cfg.Graph
	Mem      *mem.Hierarchy
	Provider Provider
	Warps    []*Warp

	Stats Stats
	// Prov is the register scheme's event counters. The SM owns the
	// storage (and counts StallCycles, the refusals its picks read off the
	// issue mask); the provider writes the rest through the pointer it
	// takes at Attach.
	Prov ProviderStats

	// Metrics is the simulation's observability registry: every layer
	// (SM, provider, OSU/CM/compressor shards, memory hierarchy)
	// registers its counters here at construction. Attach a sink
	// (Metrics.SetSink) before Run to stream per-window snapshots.
	Metrics *metrics.Registry

	// Rec, when attached (AttachRecorder), receives cycle-stamped typed
	// events from every layer; nil (the default) costs one branch per
	// emission site.
	Rec *events.Recorder

	// stager is Provider as a Stager, resolved once at construction; nil
	// for a register file, which is passive, always issuable and always
	// drained, so the SM makes none of those calls.
	stager Stager

	groups [][]*Warp
	sched  scheduler
	lsu    *lsu

	// pickFn is the concrete scheduler's pick, resolved once at
	// construction (no itab lookup per group per cycle).
	pickFn func(int, *SM) *Warp

	grp []groupStats // per scheduler group

	cycle uint64
	wheel calendar.Ring[wheelEntry]

	// a is the arena the SM and everything under it were made from and
	// grow in (nil: the heap).
	a *arena.Arena

	// Struct-of-arrays warp hot state, indexed by warp ID (see Warp).
	// wPending and wNeed are maskWords 64-bit words per warp; wInsn and
	// wClass cache the decoded next instruction so pick never re-derives
	// it.
	wFlags      []uint8
	wStallUntil []uint64
	wClass      []isa.Class
	wInsn       []*isa.Instruction
	wPending    []uint64
	wNeed       []uint64
	maskWords   int

	// Per-group ready masks over that state, grpWords words per group,
	// the provider's issue mask (one slice per group, the provider's own
	// words), and the count of warps yet to finish (readymask.go).
	mLive, mSB, mStall []uint64
	mGlobal, mSFU      []uint64
	mProv              [][]uint64
	grpWords           int
	unfinished         int

	// stepInfo is issue's one StepInfo: providers read it during OnIssue
	// and keep no pointer, so every issue reuses it instead of letting a
	// fresh one escape to the heap.
	stepInfo exec.StepInfo

	// Per-cycle pick tallies (zeroed each step): how many scoreboard
	// and provider rejections each group's pick charged
	// this cycle. The cycle-skip fast-forward replays these for skipped
	// cycles so counters stay byte-identical with a stepped run.
	scanSB   []uint32
	scanProv []uint32

	// CTA barrier accounting: warps waiting / alive per CTA, plus the
	// CTAs whose counters changed this cycle (barrier release is only
	// re-evaluated for those, replacing the per-cycle full scan).
	ctaAt       []int32
	ctaLive     []int32
	ctaDirty    []int32
	ctaDirtyFlg []bool

	// Fast-forward stall-replay scratch (allocated on first use; only a
	// recorder-attached run needs it).
	ffReason  []events.StallReason
	ffCulprit []int

	// Sanitizer / fault-injection state (nil when disabled; the healthy
	// path costs two nil checks and one compare per cycle).
	san          *sanitizer.Sanitizer
	flt          *faults.Injector
	fault        *sanitizer.Diagnostic
	lastProgress uint64

	sfuNextIssue []uint64

	// Working-set window tracking: a per-warp register bitmask (maskWords
	// words per warp) plus a running distinct count — the same
	// (warp, register) set the map it replaced held, without the hashing.
	windowMask     []uint64
	windowDistinct int
	windowSum      float64
	windowCount    uint64
	lastBackingCt  uint64
	// nextWindow is the cycle the open window closes at (never, with
	// windows off): the per-cycle test is one compare.
	nextWindow uint64
}

// The element types an SM is made of (package arena).
var (
	smT         = arena.Of[SM]()
	warpT       = arena.Of[Warp]()
	warpPtrT    = arena.Of[*Warp]()
	groupT      = arena.Of[[]*Warp]()
	wordT       = arena.Of[uint64]()
	wordsT      = arena.Of[[]uint64]()
	u32T        = arena.Of[uint32]()
	i32T        = arena.Of[int32]()
	intT        = arena.Of[int]()
	byteT       = arena.Of[uint8]()
	boolT       = arena.Of[bool]()
	classT      = arena.Of[isa.Class]()
	insnT       = arena.Of[*isa.Instruction]()
	groupStatsT = arena.Of[groupStats]()
	reasonT     = arena.Of[events.StallReason]()
)

// The cells of the SM's statistics structs (their tagged fields).
var (
	statCells  = metrics.FieldsOf[Stats]("sim/", "lsu_queue_depth")
	groupCells = metrics.FieldsOf[groupStats]("sim/sched/g%d/")
	provCells  = metrics.FieldsOf[ProviderStats]("provider/")
)

// New builds an SM running kernel k under the given provider. The memory
// image mm may be nil for the default deterministic contents.
func New(cfgv Config, k *isa.Kernel, p Provider, mm *exec.Memory) (*SM, error) {
	return NewWithHierarchy(cfgv, k, p, mm, nil)
}

// NewWithHierarchy is New with an injected memory hierarchy (multi-SM
// simulation attaches per-SM hierarchies to a shared L2). A nil hierarchy
// builds a private one from cfgv.Mem.
func NewWithHierarchy(cfgv Config, k *isa.Kernel, p Provider, mm *exec.Memory, hier *mem.Hierarchy) (*SM, error) {
	return NewWithHierarchyIn(nil, cfgv, k, p, mm, hier)
}

// NewWithHierarchyIn is NewWithHierarchy with the SM and everything it
// builds — warps, scoreboards, masks, calendar, registry, a default
// memory or hierarchy, and what the provider attaches (Arena) —
// allocated from a. It is for a caller that puts the arena back once the
// run's results are read out (experiments.runPoint); nil is the heap.
func NewWithHierarchyIn(a *arena.Arena, cfgv Config, k *isa.Kernel, p Provider, mm *exec.Memory, hier *mem.Hierarchy) (*SM, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	if cfgv.Warps%cfgv.Schedulers != 0 {
		return nil, fmt.Errorf("sim: %d warps not divisible into %d schedulers", cfgv.Warps, cfgv.Schedulers)
	}
	if cfgv.WarpIDBase%k.WarpsPerCTA != 0 {
		return nil, fmt.Errorf("sim: warp ID base %d not aligned to CTA size %d", cfgv.WarpIDBase, k.WarpsPerCTA)
	}
	// A writeback lands on a later cycle than its issue: the timing
	// calendar drains a cycle's slot before that cycle's picks.
	maxLat := max(cfgv.ALULat, cfgv.FMALat, cfgv.SFULat, cfgv.ShmemLat)
	if min(cfgv.ALULat, cfgv.FMALat, cfgv.SFULat, cfgv.ShmemLat) < 1 {
		return nil, fmt.Errorf("sim: execution latencies must be at least one cycle")
	}
	if mm == nil {
		mm = exec.NewMemoryIn(a, nil)
	}
	if hier == nil {
		hier = mem.NewIn(a, cfgv.Mem)
	}
	g, _ := cfg.For(k)
	sm := smT.New(a)
	*sm = SM{
		Cfg:          cfgv,
		K:            k,
		G:            g,
		Mem:          hier,
		Provider:     p,
		Metrics:      metrics.NewRegistryIn(a),
		a:            a,
		sfuNextIssue: wordT.Make(a, cfgv.Schedulers),
		wheel:        calendar.New(a, wheelCellT, maxLat),
		nextWindow:   noWake,
	}
	if cfgv.WindowSize > 0 {
		sm.nextWindow = uint64(cfgv.WindowSize)
	}
	sm.maskWords = (k.NumRegs + 63) / 64
	if sm.maskWords < 1 {
		sm.maskWords = 1
	}
	sm.wFlags = byteT.Make(a, cfgv.Warps)
	sm.wStallUntil = wordT.Make(a, cfgv.Warps)
	sm.wClass = classT.Make(a, cfgv.Warps)
	sm.wInsn = insnT.Make(a, cfgv.Warps)
	sm.wPending = wordT.Make(a, cfgv.Warps*sm.maskWords)
	sm.wNeed = wordT.Make(a, cfgv.Warps*sm.maskWords)
	sm.windowMask = wordT.Make(a, cfgv.Warps*sm.maskWords)
	sm.scanSB = u32T.Make(a, cfgv.Schedulers)
	sm.scanProv = u32T.Make(a, cfgv.Schedulers)
	numCTAs := (cfgv.Warps + k.WarpsPerCTA - 1) / k.WarpsPerCTA
	sm.ctaAt = i32T.Make(a, numCTAs)
	sm.ctaLive = i32T.Make(a, numCTAs)
	sm.ctaDirtyFlg = boolT.Make(a, numCTAs)
	sm.ctaDirty = i32T.Make(a, numCTAs)[:0]
	sm.registerMetrics()
	sm.initMasks()
	regs := exec.NewRegFile(a, cfgv.Warps, k.NumRegs)
	warps := warpT.Make(a, cfgv.Warps)
	sm.Warps = warpPtrT.Make(a, cfgv.Warps)
	sm.groups = groupT.Make(a, cfgv.Schedulers)
	for i := range sm.groups {
		sm.groups[i] = warpPtrT.Make(a, cfgv.Warps/cfgv.Schedulers)[:0]
	}
	for i := 0; i < cfgv.Warps; i++ {
		gid := cfgv.WarpIDBase + i
		pos := i / cfgv.Schedulers
		w := &warps[i]
		*w = Warp{
			ID:    i,
			Group: i % cfgv.Schedulers,
			Exec:  exec.NewWarpOn(a, regs.Warp(i), k, g, gid, gid/k.WarpsPerCTA, mm),
			sm:    sm,
			mword: (i%cfgv.Schedulers)*sm.grpWords + pos>>6,
			mbit:  1 << (uint(pos) & 63),
		}
		sm.Warps[i] = w
		sm.groups[w.Group] = append(sm.groups[w.Group], w)
		sm.ctaLive[i/k.WarpsPerCTA]++
		sm.unfinished++
		sm.setLive(w)
		sm.refreshInsn(w)
	}
	if cfgv.Sched == SchedTwoLevel {
		s := newTwoLevel(a, sm.groups, cfgv.ActiveSet)
		sm.sched, sm.pickFn = s, s.pick
	} else {
		s := newGTO(a, sm.groups)
		sm.sched, sm.pickFn = s, s.pick
	}
	sm.lsu = newLSU(sm, cfgv.LSUQueue)
	if err := p.Attach(sm); err != nil {
		return nil, err
	}
	sm.stager, _ = p.(Stager)
	if err := sm.bindIssueMask(); err != nil {
		return nil, err
	}
	return sm, nil
}

// registerMetrics puts the SM's cells on the registry, in the order the
// window stream carries them: its own Stats, the LSU backlog gauge, each
// scheduler group's accounting, the memory hierarchy's, the register
// scheme's. What the provider is made of adds its cells at Attach.
func (sm *SM) registerMetrics() {
	r := sm.Metrics
	r.Gauges((*lsuDepth)(sm), statCells.Bind(r, &sm.Stats)...)
	sm.grp = groupStatsT.Make(sm.a, sm.Cfg.Schedulers)
	for g := range sm.grp {
		groupCells.BindAt(r, g, &sm.grp[g])
	}
	sm.Mem.BindMetrics(r)
	provCells.Bind(r, &sm.Prov)
}

// lsuDepth is the SM as a metrics.Sampler: memory instructions queued at
// the LSU (which is built after the registry, so the SM is what is held).
type lsuDepth SM

func (sm *lsuDepth) Sample(int) uint64 { return uint64(len(sm.lsu.queue)) }

// Cycle returns the current cycle.
func (sm *SM) Cycle() uint64 { return sm.cycle }

// Arena returns what the SM was built from, for the provider to build its
// own state from in Attach and grow it in at run time (nil: the heap).
func (sm *SM) Arena() *arena.Arena { return sm.a }

// After fires t delay cycles from now; providers use it for fixed-latency
// internal operations (e.g. compressor decompress delay). The delay must
// be at least one cycle — this cycle's events have already fired when a
// provider runs — so anything less is reported as a fault (the run ends
// with a Diagnostic) and t is dropped.
func (sm *SM) After(delay int, t Timer) {
	if delay < 1 {
		sm.ReportFault("sim/after", fmt.Sprintf("event scheduled %d cycles ahead, want at least 1", delay), -1)
		return
	}
	sm.wheel.Push(sm.cycle, sm.cycle+uint64(delay), wheelEntry{t: t})
}

// Run simulates to completion and returns the statistics: the lockstep
// cycle loop over this one SM (see RunLockstep for the abnormal
// terminations it reports).
func (sm *SM) Run() (*Stats, error) {
	if _, err := RunLockstep(context.Background(), []*SM{sm}, nil); err != nil {
		return nil, err
	}
	return sm.Finalize(), nil
}

// Done reports whether every warp finished and all machinery drained.
func (sm *SM) Done() bool {
	return sm.allDone() && (sm.stager == nil || sm.stager.Drained()) && sm.Mem.Drained() && sm.lsu.empty()
}

// Finalize closes the statistics windows and returns the stats. Call once
// after RunLockstep. What it returns is a detached copy: a result
// that keeps it keeps these numbers, not the machine they were counted
// on (a pointer into sm.Stats would hold every warp's registers, the
// caches and the provider reachable for as long as the result lives).
func (sm *SM) Finalize() *Stats {
	sm.finishWindows()
	sm.Stats.Cycles = sm.cycle
	st := sm.Stats
	st.BackingSeries = slices.Clone(st.BackingSeries)
	return &st
}

func (sm *SM) allDone() bool { return sm.unfinished == 0 }

// step advances the SM one cycle.
func (sm *SM) step() {
	sm.cycle++
	sm.Rec.SetCycle(sm.cycle)
	sm.Mem.Tick()
	for sm.wheel.Due(sm.cycle) {
		if e := sm.wheel.Pop(sm.cycle); e.t != nil {
			e.t.Fire()
		} else {
			sm.Warps[e.warp].completePending(e.reg, e.mem)
		}
	}
	if sm.stager != nil {
		sm.stager.Tick()
	}
	sm.lsu.tick()
	for g := range sm.scanSB {
		sm.scanSB[g] = 0
		sm.scanProv[g] = 0
	}
	for g := 0; g < sm.Cfg.Schedulers; g++ {
		if w := sm.pickFn(g, sm); w != nil {
			sm.grp[g].Issued++
			if sm.Rec.Enabled(events.MaskSched) {
				sm.Rec.Issue(g, w.ID, w.NextGI())
			}
			sm.issue(w)
		} else {
			sm.grp[g].NoIssue++
			if sm.Rec.Enabled(events.MaskSched) {
				reason, culprit := sm.stallReason(g)
				sm.Rec.Stall(g, reason, culprit)
			}
		}
	}
	sm.releaseBarriers()
	sm.sampleWindow()
}

// issue executes one instruction from w and models its timing.
func (sm *SM) issue(w *Warp) {
	id := w.ID
	cls := sm.wClass[id] // the issuing instruction's class (pre-refresh)
	info := &sm.stepInfo
	w.Exec.StepInto(info)
	w.lastIssue = sm.cycle
	sm.lastProgress = sm.cycle
	sm.Stats.DynInsns++
	sm.Stats.ActiveLanes += uint64(bits.OnesCount32(info.Mask))
	sm.trackWindow(id)

	penalty := sm.Provider.OnIssue(w, info)
	if penalty > 0 {
		sm.armStall(w, sm.cycle+uint64(penalty))
	}

	in := info.Insn
	switch cls {
	case isa.ClassALU:
		sm.Stats.ALUOps++
		sm.retire(w, in, sm.Cfg.ALULat, false)
	case isa.ClassFMA:
		sm.Stats.FMAOps++
		sm.retire(w, in, sm.Cfg.FMALat, false)
	case isa.ClassSFU:
		sm.Stats.SFUOps++
		sm.sfuNextIssue[w.Group] = sm.cycle + uint64(sm.Cfg.SFUIssueInterval)
		sm.retire(w, in, sm.Cfg.SFULat, false)
	case isa.ClassMemShared:
		sm.Stats.SharedOps++
		sm.retire(w, in, sm.Cfg.ShmemLat, false)
	case isa.ClassMemGlobal:
		if in.Op.IsStore() {
			sm.Stats.GlobalStores++
			sm.lsu.submit(w, isa.NoReg, info.Addrs, true)
		} else {
			sm.Stats.GlobalLoads++
			w.addPending(in.Dst, true)
			sm.lsu.submit(w, in.Dst, info.Addrs, false)
		}
	case isa.ClassControl:
		sm.Stats.Branches++
	case isa.ClassBarrier:
		sm.Stats.Barriers++
		sm.wFlags[id] |= warpAtBarrier
		sm.setLive(w)
		sm.markCTADirty(id)
		sm.ctaAt[id/sm.K.WarpsPerCTA]++
		sm.Rec.Barrier(w.Group, id, true)
	case isa.ClassExit:
		if info.Exited {
			sm.wFlags[id] |= warpFinished
			sm.setLive(w)
			sm.unfinished--
			sm.markCTADirty(id)
			sm.ctaLive[id/sm.K.WarpsPerCTA]--
			sm.Rec.Exit(w.Group, id)
			sm.Provider.OnWarpFinish(w)
		}
	}
	sm.refreshInsn(w)
	sm.refreshSB(w)
}

// retire schedules the scoreboard release for a fixed-latency op.
func (sm *SM) retire(w *Warp, in *isa.Instruction, lat int, memOp bool) {
	if !in.Op.HasDst() || !in.Dst.Valid() {
		return
	}
	dst := in.Dst
	w.addPending(dst, memOp)
	sm.wheel.Push(sm.cycle, sm.cycle+uint64(lat), wheelEntry{warp: int32(w.ID), reg: dst, mem: memOp})
}

// markCTADirty queues warp id's CTA for a barrier-release check at the
// end of the cycle.
func (sm *SM) markCTADirty(id int) {
	cta := id / sm.K.WarpsPerCTA
	if !sm.ctaDirtyFlg[cta] {
		sm.ctaDirtyFlg[cta] = true
		sm.ctaDirty = append(sm.ctaDirty, int32(cta))
	}
}

// releaseBarriers frees CTAs whose live warps have all arrived. Only CTAs
// whose arrival/live counts changed this cycle are examined; they are
// visited in ascending CTA order, matching the full scan it replaced.
func (sm *SM) releaseBarriers() {
	if len(sm.ctaDirty) == 0 {
		return
	}
	// Insertion sort: at most Schedulers CTAs go dirty per cycle.
	d := sm.ctaDirty
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
	per := sm.K.WarpsPerCTA
	for _, cta := range d {
		sm.ctaDirtyFlg[cta] = false
		if sm.ctaAt[cta] == 0 || sm.ctaAt[cta] != sm.ctaLive[cta] {
			continue
		}
		lo := int(cta) * per
		hi := lo + per
		if hi > len(sm.Warps) {
			hi = len(sm.Warps)
		}
		for i := lo; i < hi; i++ {
			if sm.wFlags[i]&warpAtBarrier != 0 {
				sm.wFlags[i] &^= warpAtBarrier
				sm.setLive(sm.Warps[i])
				sm.Rec.Barrier(sm.Warps[i].Group, i, false)
			}
		}
		sm.ctaAt[cta] = 0
	}
	sm.ctaDirty = sm.ctaDirty[:0]
}

// trackWindow records the issuing instruction's registers for the
// working-set series: the cached need mask, folded into the per-warp
// window mask with a running distinct count.
func (sm *SM) trackWindow(id int) {
	base := id * sm.maskWords
	for i := 0; i < sm.maskWords; i++ {
		if fresh := sm.wNeed[base+i] &^ sm.windowMask[base+i]; fresh != 0 {
			sm.windowMask[base+i] |= fresh
			sm.windowDistinct += bits.OnesCount64(fresh)
		}
	}
}

// sampleWindow closes a window at each WindowSize boundary.
func (sm *SM) sampleWindow() {
	if sm.cycle == sm.nextWindow {
		sm.closeWindow()
	}
}

// closeWindow performs the per-boundary sampling work: the working-set
// point, the backing-traffic series point, and the metrics window, at the
// boundary sampleWindow found — a stepped cycle, or each one a
// fast-forward skip crosses.
func (sm *SM) closeWindow() {
	sm.nextWindow = sm.cycle + uint64(sm.Cfg.WindowSize)
	sm.windowSum += float64(sm.windowDistinct) * mem.LineSize / 1024.0
	sm.windowCount++
	if sm.windowDistinct > 0 {
		for i := range sm.windowMask {
			sm.windowMask[i] = 0
		}
		sm.windowDistinct = 0
	}
	cur := sm.Prov.BackingAccesses
	sm.Stats.BackingSeries = append(wordT.Grow(sm.a, sm.Stats.BackingSeries, 1), cur-sm.lastBackingCt)
	sm.lastBackingCt = cur
	if sm.Metrics.HasSink() {
		sm.Metrics.CloseWindow(sm.cycle)
	}
}

func (sm *SM) finishWindows() {
	if sm.windowCount > 0 {
		sm.Stats.WorkingSetKB = sm.windowSum / float64(sm.windowCount)
	}
	// Close the final partial window so exported deltas always sum to the
	// run's counter totals (CloseWindow skips empty intervals itself).
	if sm.Metrics.HasSink() {
		sm.Metrics.CloseWindow(sm.cycle)
	}
}
