package rtl

import "sort"

// Loop is a natural loop: the set of blocks (layout positions) from
// which the back-edge tails can reach the header without passing
// through the header. Loops are detected from back edges t->h where h
// dominates t.
type Loop struct {
	Header int          // layout position of the loop header
	Blocks map[int]bool // members, including the header
	Tails  []int        // back-edge sources
	Depth  int          // nesting depth, outermost = 1
}

// Contains reports whether the loop contains the block at layout
// position i.
func (l *Loop) Contains(i int) bool { return l.Blocks[i] }

// Exits returns the in-loop blocks that have a successor outside the
// loop, in layout order.
func (l *Loop) Exits(g *CFG) []int {
	var out []int
	for b := range l.Blocks {
		for _, s := range g.Succs[b] {
			if !l.Blocks[s] {
				out = append(out, b)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// FindLoops detects all natural loops in the CFG, merging loops that
// share a header, and computes nesting depths. Loops are returned
// ordered by decreasing depth (innermost first), which is the order the
// loop transformation phase processes them in ("ordered by loop nesting
// level", Table 1).
func (g *CFG) FindLoops() []*Loop { return g.loops.get(g.findLoops) }

func (g *CFG) findLoops() []*Loop {
	idom := g.Dominators()
	reach := g.Reachable()
	byHeader := make(map[int]*Loop)
	for t := range g.Succs {
		if !reach[t] {
			continue
		}
		for _, h := range g.Succs[t] {
			if !Dominates(idom, h, t) {
				continue
			}
			l := byHeader[h]
			if l == nil {
				l = &Loop{Header: h, Blocks: map[int]bool{h: true}}
				byHeader[h] = l
			}
			l.Tails = append(l.Tails, t)
			// Collect the loop body: walk backwards from the tail.
			stack := []int{t}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Blocks[b] {
					continue
				}
				l.Blocks[b] = true
				for _, p := range g.Preds[b] {
					if reach[p] {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	loops := make([]*Loop, 0, len(byHeader))
	for _, l := range byHeader {
		loops = append(loops, l)
	}
	// Nesting depth: a loop's depth is 1 plus the number of other
	// loops that strictly contain its header and body.
	for _, l := range loops {
		l.Depth = 1
		for _, other := range loops {
			if other == l || len(other.Blocks) <= len(l.Blocks) {
				continue
			}
			contained := true
			for b := range l.Blocks {
				if !other.Blocks[b] {
					contained = false
					break
				}
			}
			if contained && other.Header != l.Header {
				l.Depth++
			}
		}
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Depth != loops[j].Depth {
			return loops[i].Depth > loops[j].Depth
		}
		return loops[i].Header < loops[j].Header
	})
	return loops
}

// NumLoops returns the number of natural loops in the function,
// matching the paper's "Loop" statistic.
func NumLoops(f *Func) int {
	return len(ComputeCFG(f).FindLoops())
}
