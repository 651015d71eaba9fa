package dataflow

import "repro/internal/rtl"

// NumberValues is the tests' way to the value numbering under
// EquivEncode: it numbers every reachable instruction of g, visiting
// blocks in reverse postorder (a block's dominators come before it),
// and returns per block the value number of each instruction's
// destination, -1 where it defines no single register. Unreachable
// blocks have nil rows.
func NumberValues(g *rtl.CFG) [][]int {
	v := newVNBuilder(g)
	vn := make([][]int, len(g.Succs))
	for _, bpos := range g.RPO() {
		if !v.reach[bpos] {
			continue
		}
		parent := v.effectiveParent(bpos, func(p int) bool { return v.states[p] != nil })
		st := v.entryState(bpos, parent)
		b := g.F.Blocks[bpos]
		vn[bpos] = make([]int, len(b.Instrs))
		for i := range b.Instrs {
			vn[bpos][i], _, _ = v.instrVN(st, &b.Instrs[i])
		}
		v.states[bpos] = st
	}
	return vn
}
