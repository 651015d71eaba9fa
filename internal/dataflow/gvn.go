package dataflow

import (
	"encoding/binary"

	"repro/internal/rtl"
)

// vnState is the register→value-number map flowing through one block.
type vnState map[rtl.Reg]int

// vnBuilder assigns dominator-scoped value numbers. Expressions are
// hash-consed globally; a register's number is inherited from the
// closest processed dominator only when every definition of that
// register dominates the inheriting block, which makes the carried
// value unambiguous without SSA construction. Registers without an
// inheritable number get a fresh one at first use, scoped to the
// block that introduced it.
type vnBuilder struct {
	g         *rtl.CFG
	reach     []bool
	reachTo   []rtl.BlockSet // transitive successor closure per block
	defBlocks map[rtl.Reg][]int
	exprs     map[string]int
	next      int
	states    []vnState // per-block exit state, nil until processed
	key       []byte
}

func newVNBuilder(g *rtl.CFG) *vnBuilder {
	v := &vnBuilder{
		g:         g,
		reach:     g.Reachable(),
		defBlocks: make(map[rtl.Reg][]int),
		exprs:     make(map[string]int),
		states:    make([]vnState, len(g.Succs)),
	}
	// Transitive closure of the successor relation, a backward union
	// problem over sets of blocks: a block's top state is itself plus
	// its bottom state, everything its successors' top states hold.
	n := len(g.Succs)
	fl := rtl.Flow{
		Backward: true,
		Words:    (n + 63) / 64,
		Marks:    make([]bool, 2*n),
		Transfer: func(b int, s []uint64) { s[b>>6] |= 1 << (b & 63) },
	}
	fl.State = make([]uint64, (2*n+1)*fl.Words)
	g.Solve(&fl)
	v.reachTo = make([]rtl.BlockSet, n)
	for b := range v.reachTo {
		v.reachTo[b] = rtl.SetOver[int](fl.At(n + b))
	}
	var buf [8]rtl.Reg
	for bpos, b := range g.F.Blocks {
		if !v.reach[bpos] {
			continue // definitions in dead code never execute
		}
		seen := make(map[rtl.Reg]bool)
		for i := range b.Instrs {
			for _, r := range b.Instrs[i].Defs(buf[:0]) {
				if !seen[r] {
					seen[r] = true
					v.defBlocks[r] = append(v.defBlocks[r], bpos)
				}
			}
		}
	}
	return v
}

func (v *vnBuilder) fresh() int {
	n := v.next
	v.next++
	return n
}

// exprVN hash-conses an expression key built in v.key.
func (v *vnBuilder) exprVN() int {
	if n, ok := v.exprs[string(v.key)]; ok {
		return n
	}
	n := v.fresh()
	v.exprs[string(v.key)] = n
	return n
}

func (v *vnBuilder) keyReset(tag byte) { v.key = append(v.key[:0], tag) }
func (v *vnBuilder) keyInt(n int) {
	v.key = binary.AppendVarint(v.key, int64(n))
}
func (v *vnBuilder) keySym(s string) {
	v.key = binary.AppendVarint(v.key, int64(len(s)))
	v.key = append(v.key, s...)
}

// inheritable reports whether register r's value number may flow from
// a dominator into block bpos. Two conditions make the carried value
// unambiguous without SSA construction: every (reachable) definition
// of r must dominate bpos, so exactly one definition is live on
// entry; and no defining block may be reachable again from bpos, or a
// back edge could re-execute the definition with different operand
// values before control returns.
func (v *vnBuilder) inheritable(r rtl.Reg, bpos int) bool {
	for _, d := range v.defBlocks[r] {
		if !v.g.Dominates(d, bpos) || v.reachTo[bpos].Has(d) {
			return false
		}
	}
	return true
}

// entryState builds the value-number map entering bpos from the exit
// state of parent (the closest processed dominator; -1 for none).
func (v *vnBuilder) entryState(bpos, parent int) vnState {
	st := make(vnState)
	if parent >= 0 {
		for r, vn := range v.states[parent] {
			if v.inheritable(r, bpos) {
				st[r] = vn
			}
		}
	}
	return st
}

// useVN returns the value number of reading register r in state st.
// An unknown register gets a fresh number on first use.
func (v *vnBuilder) useVN(st vnState, r rtl.Reg) int {
	if vn, ok := st[r]; ok {
		return vn
	}
	vn := v.fresh()
	st[r] = vn
	return vn
}

func (v *vnBuilder) operandVN(st vnState, o rtl.Operand) int {
	switch o.Kind {
	case rtl.OperReg:
		return v.useVN(st, o.Reg)
	case rtl.OperImm:
		v.keyReset('i')
		v.keyInt(int(o.Imm))
		return v.exprVN()
	}
	return -1
}

// instrVN numbers one instruction in state st, updating st with its
// definitions. It returns the destination's value number (-1 when the
// instruction defines nothing or clobbers several registers) and the
// numbers of the A and B operands (-1 when absent).
func (v *vnBuilder) instrVN(st vnState, in *rtl.Instr) (dst, aVN, bVN int) {
	dst, aVN, bVN = -1, -1, -1
	switch {
	case in.Op == rtl.OpMov:
		aVN = v.operandVN(st, in.A)
		dst = aVN
	case in.Op == rtl.OpMovHi:
		v.keyReset('h')
		v.keySym(in.Sym)
		dst = v.exprVN()
	case in.Op == rtl.OpAddLo:
		aVN = v.operandVN(st, in.A)
		v.keyReset('a')
		v.keyInt(aVN)
		v.keySym(in.Sym)
		dst = v.exprVN()
	case in.Op == rtl.OpNeg || in.Op == rtl.OpNot:
		aVN = v.operandVN(st, in.A)
		v.keyReset(byte(in.Op))
		v.keyInt(aVN)
		dst = v.exprVN()
	case in.Op.IsALU():
		aVN = v.operandVN(st, in.A)
		bVN = v.operandVN(st, in.B)
		x, y := aVN, bVN
		if in.Op.Commutative() && y < x {
			x, y = y, x
		}
		v.keyReset(byte(in.Op))
		v.keyInt(x)
		v.keyInt(y)
		dst = v.exprVN()
	case in.Op == rtl.OpCmp:
		aVN = v.operandVN(st, in.A)
		bVN = v.operandVN(st, in.B)
		v.keyReset('c')
		v.keyInt(aVN)
		v.keyInt(bVN)
		st[rtl.RegIC] = v.exprVN()
		return -1, aVN, bVN
	case in.Op == rtl.OpLoad:
		// Memory is not modeled: every load produces a fresh value.
		aVN = v.operandVN(st, in.A)
		dst = v.fresh()
	case in.Op == rtl.OpStore:
		aVN = v.operandVN(st, in.A)
		bVN = v.operandVN(st, in.B)
		return -1, aVN, bVN
	case in.Op == rtl.OpCall:
		for _, r := range rtl.CallerSave {
			st[r] = v.fresh()
		}
		return -1, -1, -1
	default: // Nop, Branch, Jmp, Ret
		if in.Op == rtl.OpRet && in.A.Kind == rtl.OperReg {
			aVN = v.operandVN(st, in.A)
		}
		return -1, aVN, -1
	}
	if in.Dst != rtl.RegNone {
		if dst >= 0 {
			st[in.Dst] = dst
		} else {
			delete(st, in.Dst) // malformed operand: value unknown
		}
	}
	return dst, aVN, bVN
}

// effectiveParent walks the idom chain of bpos up to the closest
// block accepted by ok (a processed, encodable block). It returns -1
// when none exists (the entry, or a chain of skipped blocks).
func (v *vnBuilder) effectiveParent(bpos int, ok func(int) bool) int {
	idom := v.g.Dominators()
	for b := bpos; b != 0; {
		p := idom[b]
		if p < 0 {
			return -1
		}
		if ok(p) {
			return p
		}
		b = p
	}
	return -1
}
