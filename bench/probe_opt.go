package main

import (
	"fmt"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/search"
)

// replayCost is what the replay probe measured over a set of functions.
type replayCost struct {
	attempts, active int
	clone, attempt   time.Duration
	summarize        time.Duration
	encBytes         int
	byPhase          map[byte]*phaseCost
}

type phaseCost struct {
	n int
	d time.Duration
}

func (c *replayCost) total() time.Duration { return c.clone + c.attempt + c.summarize }

// probeReplay prices the three layers under the engine one call at a
// time: it enumerates each function keeping every instance, then for
// every node and every phase the engine would have attempted there it
// times Func.CloneReusing, opt.Attempt and fingerprint.SummarizeInto,
// single-threaded. The replay makes exactly the engine's attempts (the
// counts are checked), so run_w1 minus the replayed total is what the
// engine itself costs: index probe, in-order commit and the ring.
func (r *run) probeReplay(parent *span, names []string) (*replayCost, error) {
	sp := r.tr.begin(parent, "bench", "probe:replay", "")
	defer sp.end()
	cost := &replayCost{byPhase: make(map[byte]*phaseCost)}
	desc := machine.StrongARM()
	phases := opt.All()
	for _, p := range phases {
		cost.byPhase[p.ID()] = &phaseCost{}
	}
	for _, name := range names {
		keep := r.tr.begin(sp, "search", "search.Run(KeepFuncs):"+name, "")
		res := search.Run(r.corp[name], search.Options{Workers: 1, KeepFuncs: true})
		keep.end()
		if res.Aborted {
			return nil, fmt.Errorf("replay probe: %s aborted: %s", name, res.AbortReason)
		}
		fsp := r.tr.begin(sp, "bench", "replay:"+name, "")
		var fn replayCost
		var scratch *rtl.Func
		for _, n := range res.Nodes {
			if n.Quarantine != "" {
				continue
			}
			inst := res.Instance(n)
			for _, p := range phases {
				if !opt.Enabled(p, n.State) || (len(n.Seq) > 0 && n.Seq[len(n.Seq)-1] == p.ID()) {
					continue
				}
				t0 := time.Now()
				child := inst.CloneReusing(scratch)
				t1 := time.Now()
				st := n.State
				active := opt.Attempt(child, &st, p, desc)
				t2 := time.Now()
				fn.attempts++
				fn.clone += t1.Sub(t0)
				fn.attempt += t2.Sub(t1)
				pc := cost.byPhase[p.ID()]
				pc.n++
				pc.d += t2.Sub(t1)
				if active {
					buf := fingerprint.GetBuffer()
					fingerprint.SummarizeInto(buf, child)
					fn.summarize += time.Since(t2)
					fn.encBytes += len(buf.Enc)
					fingerprint.PutBuffer(buf)
					fn.active++
				}
				scratch = child
			}
		}
		fsp.end()
		if fn.attempts != res.AttemptedPhases || fn.active != res.Stats.Active {
			return nil, fmt.Errorf("replay probe: %s: replayed %d attempts (%d active), the engine made %d (%d active)",
				name, fn.attempts, fn.active, res.AttemptedPhases, res.Stats.Active)
		}
		var off time.Duration
		r.tr.aggregate(fsp, "rtl", "Func.CloneReusing", fn.attempts, fn.clone, &off)
		r.tr.aggregate(fsp, "opt", "opt.Attempt", fn.attempts, fn.attempt, &off)
		r.tr.aggregate(fsp, "fingerprint", "fingerprint.SummarizeInto", fn.active, fn.summarize, &off)
		cost.attempts += fn.attempts
		cost.active += fn.active
		cost.clone += fn.clone
		cost.attempt += fn.attempt
		cost.summarize += fn.summarize
		cost.encBytes += fn.encBytes
	}
	return cost, nil
}

func (c *replayCost) report(rep *report) {
	per := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }
	rep.set("rtl.clone_ns", per(c.clone, c.attempts))
	rep.set("opt.attempt_ns", per(c.attempt, c.attempts))
	rep.set("opt.active_ratio", float64(c.active)/float64(max(c.attempts, 1)))
	rep.set("fingerprint.summarize_ns", per(c.summarize, c.active))
	rep.set("fingerprint.bytes_per_instance", float64(c.encBytes)/float64(max(c.active, 1)))
	for id, pc := range c.byPhase {
		rep.set("opt.attempt_ns."+string(id), per(pc.d, pc.n))
	}
}
