package rtl

// domTree is the graph's dominator analysis: every reachable block's
// strict dominators as a set of layout positions (words words per block,
// the top states of a kernel solution) and the immediate dominators read
// off them.
type domTree struct {
	idom   []int
	strict []uint64
	words  int
}

// Dominators returns the immediate-dominator array of the CFG: idom[i]
// is the layout position of the immediate dominator of block i; the
// entry block is its own idom; unreachable blocks get idom -1.
func (g *CFG) Dominators() []int { return g.dom.get(g.dominators).idom }

// Dominates reports whether block a dominates block b (both layout
// positions; a block dominates itself), in constant time. Unreachable
// blocks are dominated by nothing and dominate nothing but themselves.
func (g *CFG) Dominates(a, b int) bool {
	t := g.dom.get(g.dominators)
	return a == b || t.strict[b*t.words+a>>6]>>(a&63)&1 != 0
}

// dominators solves Dom(b) = {b} ∪ ⋂ Dom(p) over the reachable
// predecessors p — forward, intersection, nothing dominating the entry
// but itself — through the kernel. A block's top state is then its
// strict dominators, which form a chain: the immediate one is the
// member with every other member above it, one fewer than the block
// has.
func (g *CFG) dominators() *domTree {
	n := len(g.Succs)
	fl := Flow{
		Words:    (n + 63) / 64,
		Marks:    make([]bool, 2*n),
		Only:     g.Reachable(),
		Meet:     Intersect,
		Transfer: func(b int, s []uint64) { s[b>>6] |= 1 << (b & 63) },
	}
	fl.State = make([]uint64, (2*n+1)*fl.Words)
	g.Solve(&fl)
	t := &domTree{idom: make([]int, n), strict: fl.State, words: fl.Words}
	above := make([]int, n) // by block: how many blocks strictly dominate it
	for b := range above {
		above[b] = SetOver[int](fl.At(b)).Len()
	}
	for b := range t.idom {
		t.idom[b] = -1
		if b == 0 {
			t.idom[b] = 0
		}
		SetOver[int](fl.At(b)).ForEach(func(d int) {
			if above[d] == above[b]-1 {
				t.idom[b] = d
			}
		})
	}
	return t
}
