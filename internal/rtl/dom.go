package rtl

// Dominators computes the immediate-dominator array for the CFG using
// the iterative algorithm of Cooper, Harvey and Kennedy. idom[i] is the
// layout position of the immediate dominator of block i; the entry
// block is its own idom; unreachable blocks get idom -1.
func (g *CFG) Dominators() []int { return g.idom.get(g.dominators) }

func (g *CFG) dominators() []int {
	n := len(g.Succs)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	if n == 0 {
		return idom
	}
	rpo := g.RPO()
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	reach := g.Reachable()
	pos := 0
	for _, b := range rpo {
		if reach[b] {
			rpoNum[b] = pos
			pos++
		}
	}
	idom[0] = 0
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 || !reach[b] {
				continue
			}
			newIdom := -1
			for _, p := range g.Preds[b] {
				if !reach[p] || idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b given the idom
// array (both layout positions; a block dominates itself). Unreachable
// blocks are dominated by nothing and dominate nothing but themselves.
func Dominates(idom []int, a, b int) bool {
	if a == b {
		return true
	}
	if idom[b] == -1 || idom[a] == -1 {
		return false
	}
	for b != 0 {
		b = idom[b]
		if b == a {
			return true
		}
	}
	return false
}
