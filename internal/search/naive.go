package search

import (
	"math/big"

	"repro/internal/fingerprint"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// NaiveSpaceSize returns the number of attempted optimization phase
// sequences of length exactly n over k distinct phases — the k^n
// explosion of Figure 1 that makes naive enumeration infeasible (the
// paper's worst case is 15^32).
func NaiveSpaceSize(k, n int) *big.Int {
	return new(big.Int).Exp(big.NewInt(int64(k)), big.NewInt(int64(n)), nil)
}

// NaiveSpaceTotal returns the total number of attempted sequences of
// length 1..n over k phases.
func NaiveSpaceTotal(k, n int) *big.Int {
	total := new(big.Int)
	for l := 1; l <= n; l++ {
		total.Add(total, NaiveSpaceSize(k, l))
	}
	return total
}

// DormantPrunedCount counts the nodes of the search *tree* (no
// identical-instance merging) up to the given depth when dormant
// phases are pruned — the Figure 2 space. Identical subtrees are
// memoized on (instance, state, remaining depth), which keeps the
// count exact while avoiding exponential work. The root is not
// counted.
func DormantPrunedCount(f *rtl.Func, depth int, opts Options) *big.Int {
	opts.fill()
	root := f.Clone()
	rtl.Cleanup(root)
	memo := make(map[string]*big.Int)

	var walk func(fn *rtl.Func, st opt.State, lastActive byte, remaining int) *big.Int
	walk = func(fn *rtl.Func, st opt.State, lastActive byte, remaining int) *big.Int {
		if remaining == 0 {
			return new(big.Int)
		}
		// Gating state is part of the key: instances that look identical
		// but differ in phase legality have different subtrees.
		key := string(rune(remaining)) + string(lastActive) + string(stateBits(st)) + string(fingerprint.Encode(fn))
		if v, ok := memo[key]; ok {
			return v
		}
		total := new(big.Int)
		for _, p := range opts.Phases {
			if !opt.Enabled(p, st) || p.ID() == lastActive {
				continue
			}
			child := fn.Clone()
			cst := st
			if !opt.Attempt(child, &cst, p, opts.Machine) {
				continue
			}
			total.Add(total, big.NewInt(1))
			total.Add(total, walk(child, cst, p.ID(), remaining-1))
		}
		memo[key] = total
		return total
	}
	return walk(root, opt.State{}, 0, depth)
}

// NodesPerLevel returns, for a completed DAG search, how many distinct
// instances were first reached at each level — the Figure 4 view of
// the space.
func NodesPerLevel(r *Result) []int {
	max := 0
	for _, n := range r.Nodes {
		if n.Level > max {
			max = n.Level
		}
	}
	out := make([]int, max+1)
	for _, n := range r.Nodes {
		out[n.Level]++
	}
	return out
}
