package rtl

import (
	"cmp"
	"slices"
)

// Loop is a natural loop: the set of blocks (layout positions) from
// which the back-edge tails can reach the header without passing
// through the header. Loops are detected from back edges t->h where h
// dominates t.
type Loop struct {
	Header int      // layout position of the loop header
	Blocks BlockSet // members, including the header
	Tails  []int    // back-edge sources
	Depth  int      // nesting depth, outermost = 1
}

// Contains reports whether the loop contains the block at layout
// position i.
func (l *Loop) Contains(i int) bool { return l.Blocks.Has(i) }

// Exits returns the in-loop blocks that have a successor outside the
// loop, in layout order.
func (l *Loop) Exits(g *CFG) []int {
	var out []int
	l.Blocks.ForEach(func(b int) {
		for _, s := range g.Succs[b] {
			if !l.Blocks.Has(s) {
				out = append(out, b)
				break
			}
		}
	})
	return out
}

// FindLoops detects all natural loops in the CFG, merging loops that
// share a header, and computes nesting depths. Loops are returned
// ordered by decreasing depth (innermost first), which is the order the
// loop transformation phase processes them in ("ordered by loop nesting
// level", Table 1).
func (g *CFG) FindLoops() []*Loop { return g.loops.get(g.findLoops) }

func (g *CFG) findLoops() []*Loop {
	reach := g.Reachable()
	var loops []*Loop
	var stack []int
	for t := range g.Succs {
		if !reach[t] {
			continue
		}
		for _, h := range g.Succs[t] {
			if !g.Dominates(h, t) {
				continue
			}
			var l *Loop
			for _, known := range loops {
				if known.Header == h {
					l = known
				}
			}
			if l == nil {
				l = &Loop{Header: h, Blocks: NewSet[int](len(g.Succs))}
				l.Blocks.Add(h)
				loops = append(loops, l)
			}
			l.Tails = append(l.Tails, t)
			// Collect the loop body: walk backwards from the tail.
			stack = append(stack[:0], t)
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks.Has(b) {
					continue
				}
				l.Blocks.Add(b)
				for _, p := range g.Preds[b] {
					if reach[p] {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	// Nesting depth: a loop's depth is 1 plus the number of other
	// loops that strictly contain its header and body.
	for _, l := range loops {
		l.Depth = 1
		for _, other := range loops {
			if other != l && other.Blocks.Len() > l.Blocks.Len() && l.Blocks.SubsetOf(other.Blocks) {
				l.Depth++
			}
		}
	}
	slices.SortFunc(loops, func(a, b *Loop) int {
		return cmp.Or(cmp.Compare(b.Depth, a.Depth), cmp.Compare(a.Header, b.Header))
	})
	return loops
}

// NumLoops returns the number of natural loops in the function,
// matching the paper's "Loop" statistic.
func NumLoops(f *Func) int {
	return len(ComputeCFG(f).FindLoops())
}
