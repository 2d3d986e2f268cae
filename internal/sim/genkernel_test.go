package sim_test

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"repro/internal/arena"
	"repro/internal/asm"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/isa"
	"repro/internal/regalloc"
)

// genKernel is internal/gen's program for seed, allocated.
func genKernel(seed int64) (*isa.Kernel, error) {
	res, err := regalloc.Allocate(gen.Kernel(seed))
	if err != nil {
		return nil, err
	}
	return res.Kernel, nil
}

// TestGeneratedKernelDifferential holds the maintained state — ready
// masks, class masks, the provider's issue mask, the timing calendar,
// the tag index, the activation memo — to three references over
// internal/gen's kernels, at the nine points that differ in how picks are
// made and gated (every scheme, RegLess at four capacities): for each
// seed and scheme, the mask pick must equal the linear oracle pick for
// pick (with Stats, ProviderStats and mem.Stats), a run with
// fast-forward off must equal the run with it on, a run under the
// sanitizer must stay silent and equal too, and the stored words must be
// the functional reference's. A failure prints the seed and the kernel
// as assembly, which internal/asm (and `kernelinfo`) read back.
//
// A fourth relation rides along: recycled ≡ fresh. Each point's first
// run is built in the arena the previous point — another scheme, or the
// previous seed's kernel with its own register count and pages — was
// built and run in, poisoned on its way back; the point's other runs are
// built on the heap, the recycled run is held to them, and then its
// arena goes back for the next point to build in.
func TestGeneratedKernelDifferential(t *testing.T) {
	arena.Drop()
	arena.SetPoison(true)
	defer arena.SetPoison(false)
	defer arena.Drop()
	const seeds, warps = 50, 8
	points := []struct {
		scheme   experiments.Scheme
		capacity int
	}{
		{experiments.SchemeBaseline, experiments.DefaultCapacity},
		{experiments.SchemeBaseline2L, experiments.DefaultCapacity},
		{experiments.SchemeRFV, experiments.DefaultCapacity},
		{experiments.SchemeRFH, experiments.DefaultCapacity},
		{experiments.SchemeRegLessNC, experiments.DefaultCapacity},
		{experiments.SchemeRegLess, 128},
		{experiments.SchemeRegLess, 192},
		{experiments.SchemeRegLess, 256},
		{experiments.SchemeRegLess, 512},
	}
	under, over := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		k, err := genKernel(seed)
		if err != nil {
			t.Fatalf("seed %d: the generated kernel does not allocate: %v", seed, err)
		}
		if k.NumRegs*warps < 128 {
			under++
		} else {
			over++
		}
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: %s\n%s", seed, fmt.Sprintf(format, args...), asm.Format(k))
		}
		ref, err := exec.Run(k, warps, exec.NewMemory(nil))
		if err != nil {
			fail("functional reference: %v", err)
		}
		for _, p := range points {
			where := fmt.Sprintf("%s@%d", p.scheme, p.capacity)
			runIn := func(a *arena.Arena, what string, oracle bool, tweak func(*experiments.SimSetup)) maskedRun {
				t.Helper()
				su := experiments.SimSetup{Capacity: p.capacity, Warps: warps, MaxCycles: 5_000_000,
					Memory: exec.NewMemoryIn(a, nil)}
				if tweak != nil {
					tweak(&su)
				}
				out, err := runPick(a, k, p.scheme, su, nil, oracle)
				if err != nil {
					fail("%s, %s: %v", where, what, err)
				}
				if got := su.Memory.GlobalStores(); !maps.Equal(got, ref.Stores) {
					fail("%s, %s: %d words stored differ from the reference's %d", where, what, len(got), len(ref.Stores))
				}
				return out
			}
			run := func(what string, oracle bool, tweak func(*experiments.SimSetup)) maskedRun {
				t.Helper()
				return runIn(nil, what, oracle, tweak)
			}
			same := func(what string, got, want maskedRun, ffCounters bool) {
				t.Helper()
				for i := range want.picks {
					if i >= len(got.picks) || got.picks[i] != want.picks[i] {
						fail("%s, %s: pick %d diverges: %+v vs %+v", where, what, i,
							got.picks[min(i, len(got.picks)-1)], want.picks[i])
					}
				}
				if len(got.picks) != len(want.picks) {
					fail("%s, %s: %d picks vs %d", where, what, len(got.picks), len(want.picks))
				}
				if !ffCounters {
					got.stats.FFSkippedCycles, got.stats.FFJumps = want.stats.FFSkippedCycles, want.stats.FFJumps
				}
				if !reflect.DeepEqual(got.stats, want.stats) {
					fail("%s, %s: Stats diverge:\n%+v\n%+v", where, what, got.stats, want.stats)
				}
				if got.prov != want.prov {
					fail("%s, %s: ProviderStats diverge:\n%+v\n%+v", where, what, got.prov, want.prov)
				}
				if got.mem != want.mem {
					fail("%s, %s: mem.Stats diverge:\n%+v\n%+v", where, what, got.mem, want.mem)
				}
				if !bytes.Equal(got.jsonl, want.jsonl) {
					fail("%s, %s: JSONL metric streams differ", where, what)
				}
			}
			a := arena.Take()
			recycled := runIn(a, "in a recycled arena", false, nil)
			arena.Put(a)
			masks := run("mask pick", false, nil)
			if len(masks.picks) == 0 {
				fail("%s: no picks logged", where)
			}
			same("recycled arena vs the heap", recycled, masks, true)
			same("mask pick vs linear oracle", masks, run("linear oracle", true, nil), true)
			same("fast-forward on vs off", masks,
				run("fast-forward off", false, func(su *experiments.SimSetup) { su.NoFastForward = true }), false)
			same("plain vs sanitized", masks,
				run("sanitized", false, func(su *experiments.SimSetup) { su.Sanitize = true }), true)
			if arena.Held() != 1 {
				fail("%s: %d arenas parked; the heap runs must neither take nor put one", where, arena.Held())
			}
		}
	}
	if under < 5 || over < 5 {
		t.Errorf("%d kernels under the 128-register point and %d over it: the generator must cover both sides", under, over)
	}
}
