package search

import "repro/internal/rtl"

// IndependencePrior supplies the probability that two phases are
// independent (produce identical code in either order), as mined by
// the analysis package from previously enumerated spaces. Implemented
// by analysis.Interactions via its Independence matrix; the indirection
// keeps the package dependency one-way.
type IndependencePrior interface {
	// Independent reports the observed independence probability of the
	// two phases, or -1 when never observed.
	Independent(x, y byte) float64
}

// PruneStats reports what independence pruning did.
type PruneStats struct {
	// Skipped counts phase evaluations replaced by diamond completion.
	// The Result's Stats tally each one as an attempt answered active
	// and merged — it commits like any other answer — while
	// Result.AttemptedPhases, which counts evaluations, leaves them out.
	Skipped int
	// Fallbacks counts prunable candidates that had to be evaluated
	// anyway because the diamond's other path was missing.
	Fallbacks int
}

// RunWithIndependencePruning enumerates the space like Run, using the
// Section 7 future-work idea: when phase x is attempted at a node m
// that was first reached by phase y from node n, and the prior says x
// and y are always independent, the result of x at m must equal the
// result of y at n's x-successor — a diamond that can be completed
// without applying either phase. Every completed diamond saves one
// full phase evaluation (clone + analysis + transformation).
//
// The enumeration is exact when the prior is exact for this function;
// with a prior mined from *other* functions it is an approximation, and
// the returned space may (rarely) diverge from Run's. Tests quantify
// the divergence; the threshold chooses how certain the prior must be
// (1.0 = only pairs never once observed dependent). Every option means
// what it means to Run: the engine is the same, only its evaluator
// differs.
func RunWithIndependencePruning(f *rtl.Func, opts Options, prior IndependencePrior, threshold float64) (*Result, PruneStats) {
	p := &priorEvaluator{prior: prior, threshold: threshold}
	res, _ := newRun(f, opts, p.level).run() // the live path answers every attempt
	return res, p.stats
}

// priorEvaluator is the prior-filtered evaluator: the attempts the
// prior calls prunable wait until the rest of the level is committed,
// are then answered from committed edges where the diamond's other
// path exists, and evaluated one by one where it does not.
type priorEvaluator struct {
	prior     IndependencePrior
	threshold float64
	stats     PruneStats
	// expanded holds the previous level's frontier by Seq: a node's
	// first-discovery parent is the one whose Seq is its own less the
	// last phase.
	expanded map[string]*Node
}

func (p *priorEvaluator) level(e *engine, work []attempt) error {
	var direct, deferred []attempt
	for _, a := range work {
		// Prunable? m reached via (parent, y); x independent of y.
		if m := a.node; p.prior != nil && m.Seq != "" && p.prior.Independent(a.phase.ID(), m.Seq[len(m.Seq)-1]) >= p.threshold {
			deferred = append(deferred, a)
		} else {
			direct = append(direct, a)
		}
	}
	if err := e.runLevel(direct); err != nil || e.res.Aborted {
		return err
	}
	// Resolve the deferred diamonds, in order, now that this level's
	// direct evaluations are in place. One that cannot complete is
	// evaluated on the spot, so the edge it commits is there for the
	// diamonds after it.
	for _, a := range deferred {
		if e.checkAbort() {
			return nil
		}
		m, x := a.node, a.phase.ID()
		y := m.Seq[len(m.Seq)-1]
		to := -1
		if m1 := edgeTarget(p.expanded[m.Seq[:len(m.Seq)-1]], x); m1 >= 0 {
			to = edgeTarget(e.res.Nodes[m1], y)
		}
		if to >= 0 && e.res.Nodes[to].Quarantine == "" {
			// Diamond complete: x after y equals y after x.
			e.commitOutcome(a, &outcome{active: true, slot: &slot{id: int32(to)}})
			e.res.AttemptedPhases-- // answered, not evaluated
			p.stats.Skipped++
			continue
		}
		p.stats.Fallbacks++
		o := e.evaluate(a)
		e.commitOutcome(a, &o)
	}
	p.expanded = make(map[string]*Node)
	for _, a := range work {
		p.expanded[a.node.Seq] = a.node
	}
	return nil
}

// edgeTarget returns where n's edge of phase leads, -1 without one.
func edgeTarget(n *Node, phase byte) int {
	for _, e := range n.Edges {
		if e.Phase == phase {
			return e.To
		}
	}
	return -1
}
