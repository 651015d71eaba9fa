package dataflow

import (
	"math/bits"

	"repro/internal/rtl"
)

// vnState is the register→value-number map flowing through one block:
// the registers something is known of, as a bit mask, and the number of
// each, which means nothing while the register's bit is clear — so
// forgetting a register is one bit operation. It is a view of one
// block's rows of the builder's two arrays.
type vnState struct {
	known []uint64
	val   []int32
}

func (s vnState) get(r rtl.Reg) (int32, bool) {
	if s.known[r>>6]>>(r&63)&1 == 0 {
		return 0, false
	}
	return s.val[r], true
}

func (s vnState) set(r rtl.Reg, vn int32) {
	s.known[r>>6] |= 1 << (r & 63)
	s.val[r] = vn
}

func (s vnState) kill(r rtl.Reg) { s.known[r>>6] &^= 1 << (r & 63) }

// exprKey is one hash-consed expression: its tag — an opcode, or 'i'
// for an immediate, 'h' and 'a' for the two halves of a symbol's
// address, 'c' for a comparison — the value numbers of its operands (the
// immediate itself for 'i') and its interned symbol. The fields a tag
// does not use are zero, so two keys are equal exactly when the
// expressions are.
type exprKey struct {
	tag  byte
	x, y int32
	sym  int32
}

func (k exprKey) hash() uint32 {
	h := uint32(k.tag)*0x9e3779b1 ^ uint32(k.x)*0x85ebca77 ^ uint32(k.y)*0xc2b2ae3d ^ uint32(k.sym)*0x27d4eb2f
	h ^= h >> 15
	h *= 0x2c1b3c6d
	return h ^ h>>12
}

// exprTable is an open-addressed hash-consing table, sized when it is
// reset for every expression the function can produce, so it never
// fills and never grows.
type exprTable struct {
	cells []exprCell
	mask  uint32
}

type exprCell struct {
	key exprKey
	vn  int32 // value number + 1; 0 marks an empty cell
}

// reset empties the table for up to n expressions.
func (t *exprTable) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	t.cells = rtl.Resize(t.cells, size)
	clear(t.cells)
	t.mask = uint32(size - 1)
}

// find returns the cell holding k, or the empty cell k belongs in.
func (t *exprTable) find(k exprKey) *exprCell {
	for i := k.hash() & t.mask; ; i = (i + 1) & t.mask {
		if c := &t.cells[i]; c.vn == 0 || c.key == k {
			return c
		}
	}
}

// vnBuilder assigns dominator-scoped value numbers. Expressions are
// hash-consed globally; a register's number is inherited from the
// closest processed dominator only when every definition of that
// register dominates the inheriting block, which makes the carried
// value unambiguous without SSA construction. Registers without an
// inheritable number get a fresh one at first use, scoped to the
// block that introduced it.
//
// All of its storage is reused from one function to the next (it lives
// in a pooled equivEncoder): a reset sizes the arrays, and every array
// a pass reads is (re)initialized by the pass that writes it.
type vnBuilder struct {
	g     *rtl.CFG
	reach []bool
	// n blocks; width registers, one past the highest the function
	// references; words mask words per state.
	n, width, words int
	// closure is the transitive closure of the successor relation, a
	// backward union problem over sets of blocks: a block's top state is
	// itself plus its bottom state, everything its successors' top
	// states hold. Bottom state n+b is the blocks reachable from b.
	closure rtl.Flow
	// The reachable blocks defining register r, in layout order, are
	// defs[defAt[r]:defAt[r+1]]; mark is the counting passes' scratch.
	defAt, defs, mark []int32
	exprs             exprTable
	syms              []string // interned symbols, by number
	next              int32
	// Each block's exit state, a row of words mask words and a row of
	// width numbers; done marks the blocks whose rows hold one.
	known []uint64
	val   []int32
	done  []bool
}

// reset readies v to number the function of g.
func (v *vnBuilder) reset(g *rtl.CFG) {
	f := g.F
	n := len(f.Blocks)
	width, instrs := int(rtl.RegIC)+1, 0 // Cmp and Call write IC
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst != rtl.RegNone {
				width = max(width, int(in.Dst)+1)
			}
			if in.A.Kind == rtl.OperReg {
				width = max(width, int(in.A.Reg)+1)
			}
			if in.B.Kind == rtl.OperReg {
				width = max(width, int(in.B.Reg)+1)
			}
		}
	}
	v.g, v.reach, v.n, v.width, v.words, v.next = g, g.Reachable(), n, width, (width+63)/64, 0

	v.closure = rtl.Flow{Backward: true, Words: (n + 63) / 64, Transfer: addSelf,
		State: rtl.Resize(v.closure.State, (2*n+1)*((n+63)/64)), Marks: rtl.Resize(v.closure.Marks, 2*n)}
	g.Solve(&v.closure)

	// Definitions in dead code never execute. Count each register's
	// defining blocks, then fill them in from the last block back, so
	// each register's list ends up in layout order.
	v.defAt, v.mark = rtl.Resize(v.defAt, width+1), rtl.Resize(v.mark, width)
	clear(v.defAt)
	clear(v.mark)
	var buf [8]rtl.Reg
	for bpos, b := range f.Blocks {
		if v.reach[bpos] {
			for i := range b.Instrs {
				for _, r := range b.Instrs[i].Defs(buf[:0]) {
					if v.mark[r] != int32(bpos+1) {
						v.mark[r] = int32(bpos + 1)
						v.defAt[r]++
					}
				}
			}
		}
	}
	for r := 1; r <= width; r++ {
		v.defAt[r] += v.defAt[r-1]
	}
	v.defs = rtl.Resize(v.defs, int(v.defAt[width]))
	for bpos := n - 1; bpos >= 0; bpos-- {
		if v.reach[bpos] {
			b := f.Blocks[bpos]
			for i := range b.Instrs {
				for _, r := range b.Instrs[i].Defs(buf[:0]) {
					if v.mark[r] != -int32(bpos+1) {
						v.mark[r] = -int32(bpos + 1)
						v.defAt[r]--
						v.defs[v.defAt[r]] = int32(bpos)
					}
				}
			}
		}
	}

	// An instruction hash-conses at most its two immediates and itself.
	v.exprs.reset(3 * instrs)
	v.syms = v.syms[:0]
	v.known, v.val = rtl.Resize(v.known, n*v.words), rtl.Resize(v.val, n*width)
	v.done = rtl.Resize(v.done, n)
	clear(v.done)
}

// addSelf is the closure's transfer: a block reaches itself from its top.
func addSelf(b int, s []uint64) { s[b>>6] |= 1 << (b & 63) }

// release drops what v points into outside its own storage, so a pooled
// builder does not keep a function alive.
func (v *vnBuilder) release() {
	v.g, v.reach = nil, nil
	clear(v.syms)
}

func (v *vnBuilder) state(b int) vnState {
	return vnState{known: v.known[b*v.words : (b+1)*v.words], val: v.val[b*v.width : (b+1)*v.width]}
}

func (v *vnBuilder) fresh() int32 {
	n := v.next
	v.next++
	return n
}

// exprVN hash-conses expression k.
func (v *vnBuilder) exprVN(k exprKey) int32 {
	c := v.exprs.find(k)
	if c.vn == 0 {
		c.key, c.vn = k, v.fresh()+1
	}
	return c.vn - 1
}

// symbol interns s. A function names a handful of symbols at most.
func (v *vnBuilder) symbol(s string) int32 {
	for i, t := range v.syms {
		if t == s {
			return int32(i)
		}
	}
	v.syms = append(v.syms, s)
	return int32(len(v.syms) - 1)
}

// inheritable reports whether register r's value number may flow from
// a dominator into block bpos, whose successor closure is reachTo. Two
// conditions make the carried value unambiguous without SSA
// construction: every (reachable) definition of r must dominate bpos,
// so exactly one definition is live on entry; and no defining block may
// be reachable again from bpos, or a back edge could re-execute the
// definition with different operand values before control returns.
func (v *vnBuilder) inheritable(r, bpos int, reachTo []uint64) bool {
	for _, d := range v.defs[v.defAt[r]:v.defAt[r+1]] {
		if !v.g.Dominates(int(d), bpos) || reachTo[d>>6]>>(d&63)&1 != 0 {
			return false
		}
	}
	return true
}

// enter builds the state entering bpos, in bpos's rows, from the exit
// state of parent (the closest processed dominator; -1 for none).
func (v *vnBuilder) enter(bpos, parent int) vnState {
	st := v.state(bpos)
	if parent < 0 {
		clear(st.known)
		return st
	}
	ps := v.state(parent)
	copy(st.val, ps.val)
	reachTo := v.closure.At(v.n + bpos)
	for w, m := range ps.known {
		keep := m
		for ; m != 0; m &= m - 1 {
			if !v.inheritable(w<<6|bits.TrailingZeros64(m), bpos, reachTo) {
				keep &^= m & -m
			}
		}
		st.known[w] = keep
	}
	return st
}

// useVN returns the value number of reading register r in state st.
// An unknown register gets a fresh number on first use.
func (v *vnBuilder) useVN(st vnState, r rtl.Reg) int32 {
	if vn, ok := st.get(r); ok {
		return vn
	}
	vn := v.fresh()
	st.set(r, vn)
	return vn
}

func (v *vnBuilder) operandVN(st vnState, o rtl.Operand) int32 {
	switch o.Kind {
	case rtl.OperReg:
		return v.useVN(st, o.Reg)
	case rtl.OperImm:
		return v.exprVN(exprKey{tag: 'i', x: o.Imm})
	}
	return -1
}

// instrVN numbers one instruction in state st, updating st with its
// definitions. It returns the destination's value number (-1 when the
// instruction defines nothing or clobbers several registers) and the
// numbers of the A and B operands (-1 when absent).
func (v *vnBuilder) instrVN(st vnState, in *rtl.Instr) (dst, aVN, bVN int32) {
	dst, aVN, bVN = -1, -1, -1
	switch {
	case in.Op == rtl.OpMov:
		aVN = v.operandVN(st, in.A)
		dst = aVN
	case in.Op == rtl.OpMovHi:
		dst = v.exprVN(exprKey{tag: 'h', sym: v.symbol(in.Sym)})
	case in.Op == rtl.OpAddLo:
		aVN = v.operandVN(st, in.A)
		dst = v.exprVN(exprKey{tag: 'a', x: aVN, sym: v.symbol(in.Sym)})
	case in.Op == rtl.OpNeg || in.Op == rtl.OpNot:
		aVN = v.operandVN(st, in.A)
		dst = v.exprVN(exprKey{tag: byte(in.Op), x: aVN})
	case in.Op.IsALU():
		aVN = v.operandVN(st, in.A)
		bVN = v.operandVN(st, in.B)
		x, y := aVN, bVN
		if in.Op.Commutative() && y < x {
			x, y = y, x
		}
		dst = v.exprVN(exprKey{tag: byte(in.Op), x: x, y: y})
	case in.Op == rtl.OpCmp:
		aVN = v.operandVN(st, in.A)
		bVN = v.operandVN(st, in.B)
		st.set(rtl.RegIC, v.exprVN(exprKey{tag: 'c', x: aVN, y: bVN}))
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
			st.set(r, v.fresh())
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
			st.set(in.Dst, dst)
		} else {
			st.kill(in.Dst) // malformed operand: value unknown
		}
	}
	return dst, aVN, bVN
}

// effectiveParent walks the idom chain of bpos up to the closest
// processed block. It returns -1 when none exists (the entry, or a
// chain of skipped blocks).
func (v *vnBuilder) effectiveParent(bpos int) int {
	idom := v.g.Dominators()
	for b := bpos; b != 0; {
		p := idom[b]
		if p < 0 {
			return -1
		}
		if v.done[p] {
			return p
		}
		b = p
	}
	return -1
}
