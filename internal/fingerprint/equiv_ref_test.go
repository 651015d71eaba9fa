package fingerprint

// The map-based equivalence canonicalizer as it stood before its value
// numbering was deleted, kept verbatim — dominator-scoped value numbers
// order commutative operands — but for the RefNorm switches, which turn
// its normalizations off one at a time (RefAll leaves it as it was).
// Identifiers that would collide with EquivEncode's carry a ref prefix;
// the two share the terminator, label and position constants and
// fwdUnknown. EquivEncode's keys differ from these bytes, but the tests
// hold it to the same classes (TestEquivEncodeMatchesReference,
// FuzzEquivInvariance), and the ablation counts what each normalization
// merges (TestEquivNormalizationAblation).

import (
	"encoding/binary"

	"repro/internal/rtl"
)

// RefNorm selects the reference's normalizations. Off, Layout emits the
// kept blocks in layout order instead of the canonical DFS order;
// Spelling stops resolving forwarder blocks and encodes an explicit jump
// apart from a fall-through; Unreachable keeps the blocks no path
// reaches; ValueNumbers emits commutative operands as written.
type RefNorm struct{ Layout, Spelling, Unreachable, ValueNumbers bool }

// RefAll is every normalization: the relation EquivEncode reproduces.
var RefAll = RefNorm{Layout: true, Spelling: true, Unreachable: true, ValueNumbers: true}

// refTermJump is the terminator of an explicit jump with Spelling off.
const refTermJump = 4

// refVNState is the register→value-number map flowing through one block.
type refVNState map[rtl.Reg]int

// refVNBuilder assigns dominator-scoped value numbers. Expressions are
// hash-consed globally; a register's number is inherited from the
// closest processed dominator only when every definition of that
// register dominates the inheriting block, which makes the carried
// value unambiguous without SSA construction. Registers without an
// inheritable number get a fresh one at first use, scoped to the
// block that introduced it.
type refVNBuilder struct {
	g         *rtl.CFG
	reach     []bool
	reachTo   []rtl.BlockSet // transitive successor closure per block
	defBlocks map[rtl.Reg][]int
	exprs     map[string]int
	next      int
	states    []refVNState // per-block exit state, nil until processed
	key       []byte
}

func newRefVNBuilder(g *rtl.CFG) *refVNBuilder {
	v := &refVNBuilder{
		g:         g,
		reach:     g.Reachable(),
		defBlocks: make(map[rtl.Reg][]int),
		exprs:     make(map[string]int),
		states:    make([]refVNState, len(g.Succs)),
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

func (v *refVNBuilder) fresh() int {
	n := v.next
	v.next++
	return n
}

// exprVN hash-conses an expression key built in v.key.
func (v *refVNBuilder) exprVN() int {
	if n, ok := v.exprs[string(v.key)]; ok {
		return n
	}
	n := v.fresh()
	v.exprs[string(v.key)] = n
	return n
}

func (v *refVNBuilder) keyReset(tag byte) { v.key = append(v.key[:0], tag) }
func (v *refVNBuilder) keyInt(n int) {
	v.key = binary.AppendVarint(v.key, int64(n))
}
func (v *refVNBuilder) keySym(s string) {
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
func (v *refVNBuilder) inheritable(r rtl.Reg, bpos int) bool {
	for _, d := range v.defBlocks[r] {
		if !v.g.Dominates(d, bpos) || v.reachTo[bpos].Has(d) {
			return false
		}
	}
	return true
}

// entryState builds the value-number map entering bpos from the exit
// state of parent (the closest processed dominator; -1 for none).
func (v *refVNBuilder) entryState(bpos, parent int) refVNState {
	st := make(refVNState)
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
func (v *refVNBuilder) useVN(st refVNState, r rtl.Reg) int {
	if vn, ok := st[r]; ok {
		return vn
	}
	vn := v.fresh()
	st[r] = vn
	return vn
}

func (v *refVNBuilder) operandVN(st refVNState, o rtl.Operand) int {
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
func (v *refVNBuilder) instrVN(st refVNState, in *rtl.Instr) (dst, aVN, bVN int) {
	dst, aVN, bVN = -1, -1, -1
	switch {
	case in.Op == rtl.OpMov:
		aVN = v.operandVN(st, in.A)
		dst = aVN
	case in.Op == rtl.OpMovHi:
		v.keyReset('h')
		v.keySym(v.g.F.SymName(in.Sym))
		dst = v.exprVN()
	case in.Op == rtl.OpAddLo:
		aVN = v.operandVN(st, in.A)
		v.keyReset('a')
		v.keyInt(aVN)
		v.keySym(v.g.F.SymName(in.Sym))
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
func (v *refVNBuilder) effectiveParent(bpos int, ok func(int) bool) int {
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

// refEquivEncoder carries the per-function canonicalization state.
type refEquivEncoder struct {
	g        *rtl.CFG
	v        *refVNBuilder
	fwd      []int // forwarder resolution per block, labelNone until memoized
	order    []int // canonical visit order (layout positions)
	label    []int // layout position -> canonical label, -1 unassigned
	regs     map[rtl.Reg]uint16
	dst      []byte
	aVN, bVN []int // operand value numbers of the current block
	norm     RefNorm
}

// resolveForwarder follows chains of pure-forwarder blocks (a single
// unconditional jump) starting at layout position bpos, returning the
// first non-forwarder position or -1 for a forwarder cycle.
func (e *refEquivEncoder) resolveForwarder(bpos int) int {
	if !e.norm.Spelling {
		return bpos
	}
	if r := e.fwd[bpos]; r != fwdUnknown {
		return r
	}
	path := []int{}
	cur := bpos
	for {
		b := e.g.F.Blocks[cur]
		if len(b.Instrs) != 1 || b.Instrs[0].Op != rtl.OpJmp {
			break
		}
		e.fwd[cur] = -3 // visiting marker
		path = append(path, cur)
		next := e.g.MustPos(int(b.Instrs[0].Target))
		if e.fwd[next] == -3 {
			cur = -1 // jump cycle
			break
		}
		if e.fwd[next] != fwdUnknown {
			cur = e.fwd[next]
			break
		}
		cur = next
	}
	for _, p := range path {
		e.fwd[p] = cur
	}
	if e.fwd[bpos] == fwdUnknown || e.fwd[bpos] == -3 {
		e.fwd[bpos] = cur
	}
	return e.fwd[bpos]
}

// semanticTerm returns the terminator of the non-forwarder block at
// bpos with forwarder-resolved successor positions (-1 = cycle).
func (e *refEquivEncoder) semanticTerm(bpos int) (kind int, taken, fall int) {
	f := e.g.F
	b := f.Blocks[bpos]
	last := b.Last()
	next := func() int {
		if bpos+1 < len(f.Blocks) {
			return e.resolveForwarder(bpos + 1)
		}
		return posNone
	}
	switch {
	case last == nil || !last.Op.IsControl():
		if n := next(); n != posNone {
			return termGoto, n, posNone
		}
		return termNone, posNone, posNone
	case last.Op == rtl.OpJmp && !e.norm.Spelling:
		return refTermJump, e.g.MustPos(int(last.Target)), posNone
	case last.Op == rtl.OpJmp:
		return termGoto, e.resolveForwarder(e.g.MustPos(int(last.Target))), posNone
	case last.Op == rtl.OpRet:
		return termRet, posNone, posNone
	default: // OpBranch
		return termBranch, e.resolveForwarder(e.g.MustPos(int(last.Target))), next()
	}
}

// visit assigns canonical labels in DFS preorder over semantic
// successors: not-taken before taken, matching execution layout.
func (e *refEquivEncoder) visit(start int) {
	if start < 0 {
		return
	}
	stack := []int{start}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b < 0 || e.label[b] >= 0 {
			continue
		}
		e.label[b] = len(e.order)
		e.order = append(e.order, b)
		kind, taken, fall := e.semanticTerm(b)
		switch kind {
		case termGoto, refTermJump:
			stack = append(stack, taken)
		case termBranch:
			// Push taken first so not-taken is visited first.
			stack = append(stack, taken, fall)
		}
	}
}

func (e *refEquivEncoder) reg(r rtl.Reg) uint16 {
	if n, ok := e.regs[r]; ok {
		return n
	}
	n := uint16(len(e.regs))
	e.regs[r] = n
	return n
}

func (e *refEquivEncoder) u16(v uint16) { e.dst = binary.LittleEndian.AppendUint16(e.dst, v) }
func (e *refEquivEncoder) u32(v uint32) { e.dst = binary.LittleEndian.AppendUint32(e.dst, v) }
func (e *refEquivEncoder) sym(s string) {
	e.dst = append(e.dst, byte(len(s)))
	e.dst = append(e.dst, s...)
}

func (e *refEquivEncoder) targetLabel(pos int) uint16 {
	switch pos {
	case posCycle:
		return labelCycle
	case posNone:
		return labelNone
	}
	return uint16(e.label[pos])
}

// operand emits one operand.
func (e *refEquivEncoder) operand(o rtl.Operand) {
	e.dst = append(e.dst, byte(o.Kind))
	switch o.Kind {
	case rtl.OperReg:
		e.u16(e.reg(o.Reg))
	case rtl.OperImm:
		e.u32(uint32(o.Imm))
	}
}

// instr emits one non-terminator instruction. Commutative ALU
// operands are ordered by value number before register renumbering,
// so operand order differences between equivalent instances vanish.
func (e *refEquivEncoder) instr(in *rtl.Instr, idx int) {
	e.dst = append(e.dst, byte(in.Op))
	switch in.Op {
	case rtl.OpCall:
		e.dst = append(e.dst, in.NArgs)
		e.sym(e.g.F.SymName(in.Sym))
	case rtl.OpMovHi, rtl.OpAddLo:
		e.u16(e.reg(in.Dst))
		e.operand(in.A)
		e.sym(e.g.F.SymName(in.Sym))
	default:
		a, b := in.A, in.B
		if e.norm.ValueNumbers && in.Op.IsALU() && in.Op.Commutative() && e.bVN[idx] < e.aVN[idx] {
			a, b = b, a
		}
		e.u16(e.reg(in.Dst))
		e.operand(a)
		e.operand(b)
		e.u32(uint32(in.Disp))
	}
}

// refEquivEncode appends the equivalence-canonical encoding of f to dst
// and returns the extended slice. Instances with equal encodings are
// semantically equivalent (see the package comment on one-sidedness);
// the search's third index tier merges them into one node.
func refEquivEncode(dst []byte, f *rtl.Func) []byte { return refEquivEncodeWith(dst, f, RefAll) }

// refEquivEncodeWith is refEquivEncode with the normalizations norm
// selects.
func refEquivEncodeWith(dst []byte, f *rtl.Func, norm RefNorm) []byte {
	g := rtl.ComputeCFG(f)
	n := len(f.Blocks)
	e := &refEquivEncoder{
		g:     g,
		fwd:   make([]int, n),
		label: make([]int, n),
		regs:  make(map[rtl.Reg]uint16, 16),
		dst:   dst,
		norm:  norm,
	}
	for i := 0; i < n; i++ {
		e.fwd[i], e.label[i] = fwdUnknown, -1
	}
	// Mirror fingerprint's fixed codes for structural registers.
	e.regs[rtl.RegSP] = 0xFFF0
	e.regs[rtl.RegIC] = 0xFFF1
	e.regs[rtl.RegNone] = 0xFFFF

	e.dst = append(e.dst, byte(f.NArgs))
	if f.Returns {
		e.dst = append(e.dst, 1)
	} else {
		e.dst = append(e.dst, 0)
	}

	start := -1
	if n > 0 {
		start = e.resolveForwarder(0)
	}
	if start < 0 {
		// The whole function is an inescapable forwarder cycle.
		e.u16(labelCycle)
		return e.dst
	}
	e.visit(start)
	if !norm.Unreachable {
		for b := range f.Blocks {
			if e.resolveForwarder(b) == b {
				e.visit(b)
			}
		}
	}
	if !norm.Layout {
		e.order = e.order[:0]
		for b := range f.Blocks {
			if e.label[b] >= 0 {
				e.label[b] = len(e.order)
				e.order = append(e.order, b)
			}
		}
	}

	e.v = newRefVNBuilder(g)
	emitted := func(p int) bool { return e.v.states[p] != nil }
	for _, bpos := range e.order {
		parent := e.v.effectiveParent(bpos, emitted)
		st := e.v.entryState(bpos, parent)
		b := f.Blocks[bpos]
		instrs := b.Instrs
		kind, taken, fall := e.semanticTerm(bpos)
		if last := b.Last(); last != nil && last.Op.IsControl() {
			instrs = instrs[:len(instrs)-1]
		}
		// Value-number the block (terminator included, for IC).
		if cap(e.aVN) < len(b.Instrs) {
			e.aVN = make([]int, len(b.Instrs))
			e.bVN = make([]int, len(b.Instrs))
		}
		e.aVN, e.bVN = e.aVN[:len(b.Instrs)], e.bVN[:len(b.Instrs)]
		for i := range b.Instrs {
			_, e.aVN[i], e.bVN[i] = e.v.instrVN(st, &b.Instrs[i])
		}
		e.v.states[bpos] = st

		e.u16(uint16(e.label[bpos]))
		e.u16(uint16(len(instrs)))
		for i := range instrs {
			e.instr(&instrs[i], i)
		}
		e.dst = append(e.dst, 0xFF, byte(kind))
		switch kind {
		case termGoto, refTermJump:
			e.u16(e.targetLabel(taken))
		case termBranch:
			last := b.Last()
			e.dst = append(e.dst, byte(last.Rel))
			e.u16(e.targetLabel(taken))
			e.u16(e.targetLabel(fall))
		case termRet:
			last := b.Last()
			if last.A.Kind == rtl.OperReg {
				e.dst = append(e.dst, 1)
				e.u16(e.reg(last.A.Reg))
			} else {
				e.dst = append(e.dst, 0)
			}
		}
	}
	return e.dst
}
