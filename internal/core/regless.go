// Package core is the RegLess system itself: the sim.Stager that
// replaces the register file with per-shard operand staging units managed
// by capacity managers and compressors, all driven by the compiler
// annotations from package regions (paper §3, §5).
//
// Each of the SM's four warp schedulers owns an independent shard (CM +
// OSU + compressor); only the L1 port is shared. Warps issue only while
// their current region is staged: the CM activates the top warp of its
// LIFO stack when the region's per-bank reservation fits, preloads stream
// through the per-bank queues (OSU tag hit -> compressor bit vector ->
// L1 -> L2/DRAM), last-use annotations erase or demote lines as the region
// runs, and displaced dirty lines flow through the compressor toward the
// L1 lazily.
package core

import (
	"fmt"
	"sync"

	"repro/internal/arena"
	"repro/internal/cm"
	"repro/internal/compress"
	"repro/internal/events"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/osu"
	"repro/internal/regions"
	"repro/internal/sim"
)

// Config parameterizes RegLess.
type Config struct {
	// Shards is the number of independent RegLess instances (one per
	// warp scheduler; 4 on the GTX 980).
	Shards int
	// LinesPerBank sizes each shard's OSU, isa.NumBanks banks of it. The
	// paper's chosen design point, 512 registers/SM, is 4 shards x 8
	// banks x 16 lines.
	LinesPerBank int
	// CompressorLines is each shard compressor's internal line storage
	// (Table 1: 48 per SM = 12 per shard).
	CompressorLines int
	// EnableCompressor switches the compressor on (Figure 16 ablates it).
	EnableCompressor bool
	// CompressorPatterns restricts the pattern matcher (ablations).
	CompressorPatterns compress.PatternSet
	// MetadataOverhead charges issue slots for metadata instructions.
	MetadataOverhead bool
	// FIFOStack activates warps oldest-first instead of LIFO (ablation).
	FIFOStack bool
	// AddrOffset shifts this SM's register and compressed-line backing
	// store addresses (multi-SM simulation keeps per-SM spaces disjoint
	// in the shared L2).
	AddrOffset uint32
	// Regions configures the compiler (bank capacity must match).
	Regions regions.Config
}

// DefaultConfig returns the paper's 512-entry design point.
func DefaultConfig() Config {
	return Config{
		Shards:           4,
		LinesPerBank:     16,
		CompressorLines:  12,
		EnableCompressor: true,
		MetadataOverhead: true,
		Regions:          regions.DefaultConfig(),
	}
}

// ConfigForCapacity returns the configuration for a given total OSU
// capacity per SM in registers (Figure 11-13 sweep: 128..2048).
func ConfigForCapacity(regsPerSM int) Config {
	c := DefaultConfig()
	c.LinesPerBank = regsPerSM / (c.Shards * isa.NumBanks)
	if c.LinesPerBank < 1 {
		c.LinesPerBank = 1
	}
	c.Regions.BankLines = c.LinesPerBank
	maxRegs := c.Shards * isa.NumBanks * c.LinesPerBank / 4
	if maxRegs > 32 {
		maxRegs = 32
	}
	if maxRegs < 4 {
		maxRegs = 4
	}
	c.Regions.MaxRegsPerRegion = maxRegs
	return c
}

// CheckCapacity rejects a capacity ConfigForCapacity would round to whole
// lines per bank: a run is labelled, keyed and stored by what its OSU holds.
func CheckCapacity(regsPerSM int) error {
	if cells := DefaultConfig().Shards * isa.NumBanks; regsPerSM < cells || regsPerSM%cells != 0 {
		return fmt.Errorf("capacity must be a positive multiple of %d registers (shards x banks), got %d", cells, regsPerSM)
	}
	return nil
}

// CapacityRegisters returns total OSU registers per SM for this config.
func (c Config) CapacityRegisters() int { return c.Shards * isa.NumBanks * c.LinesPerBank }

type preloadReq struct {
	warp       int // global warp id
	reg        isa.Reg
	invalidate bool
}

type l1op struct {
	addr  uint32
	write bool
	inval bool
	w     mem.Waiter
}

// queueRoom is the capacity a shard's queues start with: deeper than the
// suite's kernels drive them, so a queue's first use — which may come
// thousands of cycles into a run — does not allocate.
const queueRoom = 16

type shard struct {
	a   *arena.Arena // what the queues grow in (nil: the heap)
	cm  *cm.CM
	osu *osu.OSU
	cmp *compress.Compressor

	// preloadQ[b] is bank b's preload queue (one tag lookup per bank per
	// cycle); preloadsQueued is their total length, so a shard with none
	// skips the bank walk.
	preloadQ       [][]preloadReq
	preloadsQueued int
	// invalQ holds cache-invalidation annotations awaiting processing.
	invalQ []preloadReq
	// evictQ holds displaced dirty lines awaiting compression/writeback
	// (a victim buffer: preloads check it).
	evictQ []preloadReq
	// l1ops holds L1 requests awaiting the shared port; l1Queued points
	// at the provider's count of them over all shards.
	l1ops    []l1op
	l1Queued *int

	// noFit is the CM epoch at which the stack's top warp was found not
	// to fit (0: no such verdict). Until the epoch moves the answer
	// stands, so tryActivate and TickIdle do not rebuild it every cycle.
	noFit uint64
}

// pushL1 queues an L1 request for the shared port.
func (sh *shard) pushL1(op l1op) {
	sh.l1ops = append(arena.Grow(sh.a, sh.l1ops, 1), op)
	*sh.l1Queued++
}

// push appends r to one of the shard's request queues.
func (sh *shard) push(q *[]preloadReq, r preloadReq) { *q = append(arena.Grow(sh.a, *q, 1), r) }

// backlog is the work queued in the shard: preloads, invalidations,
// evictions and L1 operations.
func (sh *shard) backlog() int {
	return sh.preloadsQueued + len(sh.invalQ) + len(sh.evictQ) + len(sh.l1ops)
}

// Sample implements metrics.Sampler: the shard's one gauge, its backlog.
func (sh *shard) Sample(int) uint64 { return uint64(sh.backlog()) }

type warpState struct {
	shard int
	local int
	// staged marks registers currently held active for the region.
	staged regSet
	// dirty marks staged registers written since staging.
	dirty regSet
	// deferred last-use flags applied at writeback (flag was on the
	// write itself, §5.2.2); deferErase distinguishes erase from evict.
	deferred   regSet
	deferErase regSet
	// activePerBank counts this warp's active OSU lines per bank.
	activePerBank []int
}

// Provider is the RegLess register scheme.
type Provider struct {
	cfg  Config
	comp *regions.Compiled
	sm   *sim.SM
	st   *sim.ProviderStats
	rec  *events.Recorder // nil-safe event recorder (AttachRecorder)

	a      *arena.Arena // the SM's: what Attach builds from (nil: the heap)
	shards []*shard
	warps  []*warpState

	// flt is the fault injector (nil outside injection runs; every
	// consult costs one branch).
	flt *faults.Injector

	// regionActivations[id] counts dynamic executions of each region.
	regionActivations []uint64

	rrShard  int // round-robin start for L1 port arbitration
	l1Queued int // L1 operations queued over all shards (Tick skips the port at 0)

	freeFills *fill // preload-fetch record pool (runtime.go)

	// usageScratch is the bank-rotated usage vector tryActivate and
	// TickIdle rebuild each attempt; the CM copies values out, so one
	// reusable buffer replaces a per-cycle allocation.
	usageScratch []int
}

var _ sim.Stager = (*Provider)(nil)

// compileCache memoizes the RegLess compiler output per (kernel, region
// config). Region creation depends only on the kernel and regions.Config
// (not on the compressor, scheduler, or other Config knobs), and the
// compiled result — including the metadata costs stamped by
// metadata.Apply — is read-only once built, so providers across schemes,
// capacities sharing a bank geometry, and concurrent simulations all share
// one compile. Entries carry a sync.Once so concurrent first compiles of
// the same key do the work exactly once.
var compileCache = struct {
	sync.Mutex
	m map[compileKey]*compileEntry
}{m: map[compileKey]*compileEntry{}}

type compileKey struct {
	k   *isa.Kernel
	cfg regions.Config
}

type compileEntry struct {
	once sync.Once
	comp *regions.Compiled
	err  error
}

func compileCached(k *isa.Kernel, cfg regions.Config) (*regions.Compiled, error) {
	key := compileKey{k, cfg}
	compileCache.Lock()
	e, ok := compileCache.m[key]
	if !ok {
		e = &compileEntry{}
		compileCache.m[key] = e
	}
	compileCache.Unlock()
	e.once.Do(func() {
		comp, err := regions.Compile(k, cfg)
		if err != nil {
			e.err = err
			return
		}
		if _, err := metadata.Apply(comp); err != nil {
			e.err = err
			return
		}
		e.comp = comp
	})
	return e.comp, e.err
}

// New compiles k and builds the provider. The same compiled result is
// exposed via Compiled for experiments. Compilation is memoized per
// (kernel, region config); the shared *regions.Compiled is read-only, and
// each provider keeps its own runtime state and counters. The provider is
// allocated from a (nil: the heap), the arena of the SM it will attach to.
func New(a *arena.Arena, cfgv Config, k *isa.Kernel) (*Provider, error) {
	comp, err := compileCached(k, cfgv.Regions)
	if err != nil {
		return nil, err
	}
	if lines := isa.NumBanks * cfgv.LinesPerBank; lines > osu.MaxLines {
		return nil, fmt.Errorf("core: %d OSU lines per shard exceed the %d a unit can index", lines, osu.MaxLines)
	}
	// Safety: every region must fit a shard's banks or the CM could
	// never activate it.
	for _, r := range comp.Regions {
		for b, u := range r.BankUsage {
			if u > cfgv.LinesPerBank {
				return nil, fmt.Errorf("core: region %d needs %d lines in bank %d (capacity %d)",
					r.ID, u, b, cfgv.LinesPerBank)
			}
		}
	}
	p := arena.New[Provider](a)
	p.cfg, p.comp = cfgv, comp
	return p, nil
}

// RegionActivations returns the region-activation profile: entry id counts
// the dynamic executions of compiled region id — what
// regions.Compiled.DynamicStats folds for Figure 19 and Table 2. It is the
// provider's own, made where the provider was: read it, and copy what
// must outlive the provider's arena.
func (p *Provider) RegionActivations() []uint64 {
	return p.regionActivations
}

// Compiled exposes the compiler output (region statistics experiments).
func (p *Provider) Compiled() *regions.Compiled { return p.comp }

// Name implements sim.Provider.
func (p *Provider) Name() string { return "regless" }

// shardCells names the one cell a shard registers itself — a gauge; a
// shard has no counters of its own, hence no fields.
var shardCells = metrics.FieldsOf[struct{}]("core/s%d/", "preload_backlog")

// Attach implements sim.Provider. Everything the run mutates is built
// here, from the SM's arena.
func (p *Provider) Attach(smv *sim.SM) error {
	if smv.K != p.comp.Kernel {
		return fmt.Errorf("core: provider compiled for kernel %q attached to %q", p.comp.Kernel.Name, smv.K.Name)
	}
	if smv.Cfg.Schedulers != p.cfg.Shards {
		return fmt.Errorf("core: %d shards but %d schedulers", p.cfg.Shards, smv.Cfg.Schedulers)
	}
	a := smv.Arena()
	p.sm, p.a = smv, a
	p.st = &smv.Prov
	p.regionActivations = arena.Make[uint64](a, len(p.comp.Regions))
	p.usageScratch = arena.Make[int](a, isa.NumBanks)
	warpsPerShard := smv.Cfg.Warps / p.cfg.Shards
	shards := arena.Make[shard](a, p.cfg.Shards)
	p.shards = arena.Make[*shard](a, p.cfg.Shards)
	for s := range p.shards {
		sh := &shards[s]
		*sh = shard{
			a: a,
			cm: cm.New(a, cm.Config{
				Banks:        isa.NumBanks,
				LinesPerBank: p.cfg.LinesPerBank,
				FIFOStack:    p.cfg.FIFOStack,
			}, warpsPerShard),
			osu: osu.New(a, osu.Config{
				Banks:        isa.NumBanks,
				LinesPerBank: p.cfg.LinesPerBank,
				Warps:        smv.Cfg.Warps,
				Shards:       p.cfg.Shards,
				NumRegs:      smv.K.NumRegs,
			}),
			cmp: compress.New(a, compress.Config{
				CacheLines: p.cfg.CompressorLines,
				NumRegs:    smv.K.NumRegs,
				Warps:      smv.Cfg.Warps,
				Patterns:   p.cfg.CompressorPatterns,
			}),
			preloadQ: arena.Make[[]preloadReq](a, isa.NumBanks),
			invalQ:   arena.Make[preloadReq](a, queueRoom)[:0],
			evictQ:   arena.Make[preloadReq](a, queueRoom)[:0],
			l1ops:    arena.Make[l1op](a, queueRoom)[:0],
			l1Queued: &p.l1Queued,
		}
		for b := range sh.preloadQ {
			sh.preloadQ[b] = arena.Make[preloadReq](a, queueRoom)[:0]
		}
		p.shards[s] = sh
		sh.cm.BindMetrics(smv.Metrics, s)
		sh.osu.BindMetrics(smv.Metrics, s)
		sh.cmp.BindMetrics(smv.Metrics, s)
		smv.Metrics.Gauges(sh, shardCells.BindAt(smv.Metrics, s, &struct{}{})...)
	}
	warps := arena.Make[warpState](a, smv.Cfg.Warps)
	p.warps = arena.Make[*warpState](a, smv.Cfg.Warps)
	for w := range p.warps {
		warps[w] = warpState{
			shard:         w % p.cfg.Shards,
			local:         w / p.cfg.Shards,
			staged:        newRegSet(a, smv.K.NumRegs),
			dirty:         newRegSet(a, smv.K.NumRegs),
			deferred:      newRegSet(a, smv.K.NumRegs),
			deferErase:    newRegSet(a, smv.K.NumRegs),
			activePerBank: arena.Make[int](a, isa.NumBanks),
		}
		p.warps[w] = &warps[w]
	}
	return nil
}

// regAddr returns the backing-store address of (warp, reg): all copies of
// R0 are sequential, then R1, ... (§5.2.3).
func (p *Provider) regAddr(warp int, reg isa.Reg) uint32 {
	return mem.RegSpaceBase + p.cfg.AddrOffset + uint32(int(reg)*p.sm.Cfg.Warps+warp)*mem.LineSize
}

// IssueMask implements sim.Stager: a warp issues only while Active,
// so scheduler group g's issue mask is shard g's Active set itself — a
// shard's local warp index is the warp's position in its group, because
// Attach requires one shard per scheduler.
func (p *Provider) IssueMask(g int) []uint64 { return p.shards[g].cm.ActiveMask() }

// CanIssueQuiet implements sim.Stager: the per-warp reading of the
// issue mask, for stall attribution and the checks that hold the mask to
// it.
func (p *Provider) CanIssueQuiet(w *sim.Warp) bool {
	ws := p.warps[w.ID]
	return p.shards[ws.shard].cm.StateOf(ws.local) == cm.Active
}

// AttachRecorder implements sim.Stager: forward the recorder into
// each shard's machinery. Capacity-manager transitions and OSU line
// events flow out via hooks; the initial all-Inactive states are seeded
// here so consumers reconstruct full lifecycles (warps begin on the
// stack without a transition event). Call after Attach (sim.New runs
// Attach during construction).
func (p *Provider) AttachRecorder(rec *events.Recorder) {
	p.rec = rec
	warpsPerShard := len(p.warps) / p.cfg.Shards
	for s, sh := range p.shards {
		s, sh := s, sh
		for local := 0; local < warpsPerShard; local++ {
			rec.State(s, local*p.cfg.Shards+s, sh.cm.StateOf(local), sh.cm.RegionOf(local))
		}
		// Chain rather than overwrite: the sanitizer's transition checker
		// may already be hooked in (either attach order works).
		prev := sh.cm.OnTransition
		sh.cm.OnTransition = func(local int, to cm.State, region int) {
			if prev != nil {
				prev(local, to, region)
			}
			rec.State(s, local*p.cfg.Shards+s, to, region)
		}
		sh.osu.SetRecorder(rec, s)
	}
}

// Drained implements sim.Stager.
func (p *Provider) Drained() bool {
	for _, sh := range p.shards {
		if sh.backlog() > 0 {
			return false
		}
	}
	return true
}
