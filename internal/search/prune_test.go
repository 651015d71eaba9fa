package search_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/search"
)

// TestIndependencePruningWithSelfPrior: when the prior is mined from
// the function's own exhaustive space (so every independence entry of
// 1.0 is exact), the pruned enumeration must find the same set of
// instances while skipping evaluations.
func TestIndependencePruningWithSelfPrior(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	exact := search.Run(f, search.Options{MaxNodes: 50000})
	if exact.Aborted {
		t.Skip("space exceeds the test budget")
	}
	x := analysis.NewInteractions()
	x.Accumulate(exact)

	pruned, ps := search.RunWithIndependencePruning(f, search.Options{MaxNodes: 50000}, x, 1.0)
	if pruned.Aborted {
		t.Fatalf("pruned run aborted: %s", pruned.AbortReason)
	}

	if ps.Skipped == 0 {
		t.Error("no evaluations skipped despite fully-independent pairs in the prior")
	}
	if pruned.AttemptedPhases >= exact.AttemptedPhases {
		t.Errorf("pruning saved nothing: %d vs %d attempts",
			pruned.AttemptedPhases, exact.AttemptedPhases)
	}

	// Same instances: compare the sets of canonical keys.
	exactKeys := make(map[string]bool, len(exact.Nodes))
	for _, n := range exact.Nodes {
		exactKeys[exact.NodeKey(n)] = true
	}
	missing := 0
	for _, n := range pruned.Nodes {
		if !exactKeys[pruned.NodeKey(n)] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("pruned space contains %d instances not in the exact space", missing)
	}
	lost := len(exact.Nodes) - len(pruned.Nodes)
	if lost != 0 {
		// With a self-prior at threshold 1.0 the diamonds are exact:
		// the space must be identical.
		t.Errorf("pruning lost %d of %d instances", lost, len(exact.Nodes))
	}
	t.Logf("attempts %d -> %d (%d diamonds completed, %d fallbacks)",
		exact.AttemptedPhases, pruned.AttemptedPhases, ps.Skipped, ps.Fallbacks)
}

// TestIndependencePruningCrossFunction quantifies the approximation
// when the prior comes from a different function, as Section 7
// envisions: most of the space survives, and the attempt count drops.
func TestIndependencePruningCrossFunction(t *testing.T) {
	_, train := compileFunc(t, smallSrc, "clamp")
	trainSpace := search.Run(train, search.Options{})
	x := analysis.NewInteractions()
	x.Accumulate(trainSpace)

	_, f := compileFunc(t, sumSrc, "sum")
	exact := search.Run(f, search.Options{MaxNodes: 50000})
	if exact.Aborted {
		t.Skip("space exceeds the test budget")
	}
	pruned, ps := search.RunWithIndependencePruning(f, search.Options{MaxNodes: 50000}, x, 1.0)
	coverage := float64(len(pruned.Nodes)) / float64(len(exact.Nodes))
	t.Logf("cross-function prior: coverage %.1f%%, %d skipped, %d fallbacks, attempts %d -> %d",
		100*coverage, ps.Skipped, ps.Fallbacks, exact.AttemptedPhases, pruned.AttemptedPhases)
	if coverage < 0.5 {
		t.Errorf("cross-function pruning lost more than half the space (%.1f%%)", 100*coverage)
	}
}

// TestIndependencePruningIsAFirstClassResult pins what running the
// pruned enumeration through the engine bought: the Result carries a
// real effort summary that accounts for every attempt and every edge
// (completed diamonds included) and survives Save/Load, a panicking
// phase is quarantined instead of taking the process down, and
// Options.Ctx cancels the run like any other.
func TestIndependencePruningIsAFirstClassResult(t *testing.T) {
	// The prior is mined from sum's own exact space, so pruning at
	// threshold 1.0 completes only exact diamonds.
	_, f := compileFunc(t, sumSrc, "sum")
	exact := search.Run(f, search.Options{})
	if exact.Aborted {
		t.Fatalf("exact run aborted: %s", exact.AbortReason)
	}
	x := analysis.NewInteractions()
	x.Accumulate(exact)
	accounted := func(t *testing.T, r *search.Result, ps search.PruneStats) {
		t.Helper()
		st := r.Stats
		if st.Attempts == 0 || st.Attempts != st.Active+st.Dormant+st.Quarantined {
			t.Errorf("attempt accounting broken: %d != %d active + %d dormant + %d quarantined",
				st.Attempts, st.Active, st.Dormant, st.Quarantined)
		}
		edges := 0
		for _, n := range r.Nodes {
			edges += len(n.Edges)
		}
		if st.Edges != edges {
			t.Errorf("Stats.Edges = %d, the node table holds %d", st.Edges, edges)
		}
		if st.Attempts-r.AttemptedPhases != ps.Skipped {
			t.Errorf("%d attempts answered, %d evaluated, but %d diamonds completed",
				st.Attempts, r.AttemptedPhases, ps.Skipped)
		}
	}

	t.Run("stats", func(t *testing.T) {
		r, ps := search.RunWithIndependencePruning(f, search.Options{Workers: 4}, x, 1.0)
		if r.Aborted || ps.Skipped == 0 {
			t.Fatalf("aborted=%v, %d diamonds completed", r.Aborted, ps.Skipped)
		}
		accounted(t, r, ps)
		if got := saveLoad(t, r).Stats; got != r.Stats {
			t.Errorf("saved effort summary %+v, want %+v", got, r.Stats)
		}
	})
	t.Run("panic", func(t *testing.T) {
		// Every application of the root's first active phase panics;
		// root attempts have no diamond, so at least that one is evaluated.
		first := string(exact.Root().Edges[0].Phase)
		r, ps := search.RunWithIndependencePruning(f, search.Options{Faults: faultinject.MustParse("panic=" + first)}, x, 1.0)
		q := r.QuarantinedNodes()
		if r.Aborted || len(q) == 0 || r.Stats.Quarantined != len(q) {
			t.Fatalf("aborted=%v, %d quarantined nodes, Stats.Quarantined=%d", r.Aborted, len(q), r.Stats.Quarantined)
		}
		if !strings.Contains(q[0].Quarantine, "faultinject") {
			t.Errorf("Quarantine = %q, want the injected panic message", q[0].Quarantine)
		}
		accounted(t, r, ps)
	})
	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		r, _ := search.RunWithIndependencePruning(f, search.Options{Ctx: ctx}, x, 1.0)
		if !r.Aborted || !strings.HasPrefix(r.AbortReason, "canceled:") {
			t.Fatalf("aborted=%v reason %q, want a canceled: abort", r.Aborted, r.AbortReason)
		}
	})
}
