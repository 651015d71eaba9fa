package dataflow

import "repro/internal/rtl"

// RefEquivEncode is the map-based canonicalizer EquivEncode replaced
// (equiv_ref_test.go), for the tests that hold the two byte-equal.
var RefEquivEncode = refEquivEncode

// NumberValues is the tests' way to the value numbering under
// EquivEncode: it numbers every reachable instruction of g, visiting
// blocks in reverse postorder (a block's dominators come before it),
// and returns per block the value number of each instruction's
// destination, -1 where it defines no single register. Unreachable
// blocks have nil rows.
func NumberValues(g *rtl.CFG) [][]int {
	v := new(vnBuilder)
	v.reset(g)
	vn := make([][]int, len(g.Succs))
	for _, bpos := range g.RPO() {
		if !v.reach[bpos] {
			continue
		}
		st := v.enter(bpos, v.effectiveParent(bpos))
		b := g.F.Blocks[bpos]
		vn[bpos] = make([]int, len(b.Instrs))
		for i := range b.Instrs {
			d, _, _ := v.instrVN(st, &b.Instrs[i])
			vn[bpos][i] = int(d)
		}
		v.done[bpos] = true
	}
	return vn
}
