package opt

import "repro/internal/rtl"

// interference is the graph both register colourings work over: the
// compulsory assignment's (RegAssign) and phase k's. Its nodes are the
// registers index numbers; each pass numbers its own (pseudo registers,
// candidate slots' shadow registers) densely from 0. Everything else is
// indexed by node: the interference among nodes is a bit matrix, the
// hardware registers each interferes with a mask.
type interference struct {
	index     []int32  // by register: its node, or -1
	forbidden []uint32 // by node: the hardware registers it interferes with
	adj       []uint64 // by node: the nodes it interferes with, rowWords each
	rowWords  int
	live      []uint64 // build's running set, over the registers index covers
}

// reset empties the graph for n nodes.
func (g *interference) reset(n int) {
	g.rowWords = (n + 63) / 64
	g.adj = rtl.Resize(g.adj, n*g.rowWords)
	clear(g.adj)
	g.forbidden = rtl.Resize(g.forbidden, n)
	clear(g.forbidden)
}

// row returns node p's row of the interference matrix.
func (g *interference) row(p int) []uint64 {
	return g.adj[p*g.rowWords : (p+1)*g.rowWords]
}

// build adds f's interference to the graph: a definition interferes
// with everything live immediately after it. A move's source is
// excluded so copies may share a register. Only node and hardware
// neighbours of a node count; registers index does not cover are
// never live.
func (g *interference) build(f *rtl.Func) {
	ls := rtl.NewLiveSolver()
	defer ls.Release()
	lv := ls.Solve(rtl.ComputeCFG(f))
	node := func(r rtl.Reg) int {
		if int(r) < len(g.index) {
			return int(g.index[r])
		}
		return -1
	}
	g.live = rtl.Resize(g.live, (len(g.index)+63)/64)
	live := g.live
	var buf [8]rtl.Reg
	for bpos, b := range f.Blocks {
		clear(live)
		copy(live, lv.Out[bpos].Words())
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			moveSrc := rtl.RegNone
			if in.Op == rtl.OpMov && in.A.Kind == rtl.OperReg {
				moveSrc = in.A.Reg
			}
			for _, d := range in.Defs(buf[:0]) {
				dp := node(d)
				if dp < 0 && !d.IsHard() {
					continue // interferes with nothing a node may be given
				}
				rtl.SetOver[rtl.Reg](live).ForEach(func(l rtl.Reg) {
					if l == moveSrc || l == d {
						return
					}
					lp := node(l)
					switch {
					case dp >= 0 && lp >= 0:
						g.row(dp)[lp>>6] |= 1 << (lp & 63)
						g.row(lp)[dp>>6] |= 1 << (dp & 63)
					case dp >= 0 && l.IsHard():
						g.forbidden[dp] |= 1 << l
					case lp >= 0 && d.IsHard():
						g.forbidden[lp] |= 1 << d
					}
				})
			}
			for _, d := range in.Defs(buf[:0]) {
				live[d>>6] &^= 1 << (d & 63)
			}
			for _, u := range in.Uses(buf[:0]) {
				if int(u) < len(g.index) {
					live[u>>6] |= 1 << (u & 63)
				}
			}
		}
	}
}

// pick returns the first register of palette that neither node p's
// hardware neighbours nor its coloured node neighbours hold, or RegNone.
// colours is by node: its colour, or RegNone.
func (g *interference) pick(p int, colours, palette []rtl.Reg) rtl.Reg {
	used := g.forbidden[p]
	rtl.SetOver[int](g.row(p)).ForEach(func(n int) {
		if c := colours[n]; c != rtl.RegNone {
			used |= 1 << c
		}
	})
	for _, hw := range palette {
		if used&(1<<hw) == 0 {
			return hw
		}
	}
	return rtl.RegNone
}
