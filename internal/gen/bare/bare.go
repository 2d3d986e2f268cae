// Package bare is the reference machine the differential tests hold the
// assembled one to: a lone SM from sim.New, with each scheme's register
// provider and scheduler said by hand — no gpu, no Assemble, no arena.
//
// A scheme is named by its string value and sized by the paper's numbers
// written out (RFV's half-size 1024-entry file, RFH's 8-entry ORF) or by
// the caller (RegLess's capacity), not by experiments' table and
// constants: experiments' own tests use it, and a reference read from
// what it checks checks nothing.
// Run is the same machine over a launch sequence. Only tests import it.
package bare

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rf"
	"repro/internal/sim"
)

// SM builds k under scheme on cfg, with the scheme's scheduler in place of
// cfg's, over mm and hier (nil: the SM's own). capacity sizes RegLess's
// OSU; the other schemes ignore it.
func SM(scheme string, capacity int, k *isa.Kernel, cfg sim.Config, mm *exec.Memory, hier *mem.Hierarchy) (*sim.SM, error) {
	var p sim.Provider
	switch scheme {
	case "baseline":
		p = rf.NewBaseline(nil)
	case "baseline-2level":
		cfg.Sched, p = sim.SchedTwoLevel, rf.NewBaseline(nil)
	case "rfv":
		cfg.Sched, p = sim.SchedTwoLevel, rf.NewRFV(nil, 1024)
	case "rfh":
		cfg.Sched, p = sim.SchedTwoLevel, rf.NewRFH(nil, 8)
	case "regless", "regless-nocomp":
		c := core.ConfigForCapacity(capacity)
		c.EnableCompressor = scheme == "regless"
		rl, err := core.New(nil, c, k)
		if err != nil {
			return nil, err
		}
		p = rl
	default:
		return nil, fmt.Errorf("no bare reference for scheme %q", scheme)
	}
	return sim.New(nil, cfg, k, p, mm, hier)
}

// Run is the launch loop as it read before every launch was a chip: ks
// in order, each over a grid of grid warps in waves of at most resident,
// one SM per wave over mm and hier (nil: each SM's own), whose timing
// restarts with the SM. It returns the waves' SMs, run.
func Run(scheme string, capacity int, ks []*isa.Kernel, grid, resident int, mm *exec.Memory, hier *mem.Hierarchy) ([]*sim.SM, error) {
	var sms []*sim.SM
	cfg := sim.DefaultConfig()
	cfg.MaxCycles = 20_000_000 // a bound only a hang reaches
	for _, k := range ks {
		for base := 0; base < grid; base += resident {
			cfg.Warps, cfg.WarpIDBase = min(resident, grid-base), base
			if hier != nil {
				hier.ResetTiming() // the new SM's clock starts at zero
			}
			smv, err := SM(scheme, capacity, k, cfg, mm, hier)
			if err == nil {
				_, err = smv.Run()
			}
			if err != nil {
				return nil, err
			}
			sms = append(sms, smv)
		}
	}
	return sms, nil
}
