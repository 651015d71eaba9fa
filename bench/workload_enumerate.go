package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/search"
)

// enumerateWorkload calls search.Run in-process: opt, rtl, fingerprint
// and the search engine do all the work, server and distcl none. An
// engine gain shows here; a server gain must not.
type enumerateWorkload struct{}

// setup compiles the corpus and enumerates the small set once untimed,
// so the clone and fingerprint pools and the heap are at their working
// size before the first timed call.
func (*enumerateWorkload) setup(r *run, parent *span) error {
	if err := r.prepare(parent); err != nil {
		return err
	}
	for _, name := range r.small {
		if _, _, err := r.runInProcess(parent, name, false, r.width); err != nil {
			return err
		}
	}
	return nil
}

// runInProcess enumerates one corpus function and returns the result
// and how long search.Run took. Hashing and the gate are the caller's,
// outside the timed call.
func (r *run) runInProcess(parent *span, name string, equiv bool, workers int) (*search.Result, time.Duration, error) {
	f, ok := r.corp[name]
	if !ok {
		return nil, 0, fmt.Errorf("no corpus function %q", name)
	}
	sp := r.tr.begin(parent, "search", "search.Run:"+name, "")
	start := time.Now()
	res := search.Run(f, search.Options{Workers: workers, Equiv: equiv})
	lat := time.Since(start)
	sp.end()
	return res, lat, nil
}

// identify hashes a result for the gate.
func identify(res *search.Result) (spaceID, error) {
	if res.Aborted {
		return spaceID{}, fmt.Errorf("%s: aborted: %s", res.FuncName, res.AbortReason)
	}
	h, err := res.CanonicalHash()
	if err != nil {
		return spaceID{}, err
	}
	return spaceID{Hash: h, Nodes: len(res.Nodes), Attempts: res.AttemptedPhases}, nil
}

// gateResult counts one in-process answer as an operation.
func (r *run) gateResult(name string, equiv bool, res *search.Result) {
	id, err := identify(res)
	if err == nil {
		err = r.man.check(name, equiv, id)
	}
	r.op(err)
}

func (*enumerateWorkload) round(r *run, parent *span) (roundStats, error) {
	var rs roundStats
	// Results are hashed after the pass, so the allocation delta is the
	// enumeration's alone. A small pass is scaled by one reference walk,
	// the others by one per call.
	pass := func(names []string, equiv, small bool) (latencyBy, error) {
		lats := make(latencyBy, len(names))
		results := make([]*search.Result, len(names))
		var scale float64
		for i, name := range names {
			if i == 0 || !small {
				scale = r.hostScale()
			}
			res, lat, err := r.runInProcess(parent, name, equiv, r.width)
			if err != nil {
				return nil, err
			}
			results[i], lats[name] = res, sample{lat, scale}
			r.rowf("in-process", name, equiv, lats[name], res.AttemptedPhases)
		}
		for i, name := range names {
			r.gateResult(name, equiv, results[i])
		}
		return lats, nil
	}
	var before, after runtime.MemStats
	var err error
	settle()
	runtime.ReadMemStats(&before)
	if rs.def, err = pass(shuffled(r.rng, r.defaultSet()), false, false); err != nil {
		return rs, err
	}
	runtime.ReadMemStats(&after)
	rs.defAlloc = after.TotalAlloc - before.TotalAlloc
	settle()
	if rs.equiv, err = pass(shuffled(r.rng, r.equivSet()), true, false); err != nil {
		return rs, err
	}
	settle()
	for v := 0; v < r.smallPasses(); v++ {
		lats, err := pass(shuffled(r.rng, r.small), false, true)
		if err != nil {
			return rs, err
		}
		rs.small = append(rs.small, lats)
	}
	return rs, nil
}
