// Package dataflow holds the two flow-sensitive consumers internal/search
// and internal/check import it for: the equivalence-class canonicalizer
// that collapses phase-order spaces beyond register/label renumbering
// (EquivEncode, equiv.go) with the dominator-scoped value numbering
// under it (gvn.go), and the CFG path witnesses that make
// internal/check's diagnostics actionable (PathTo, PathToExit,
// FormatIDPath; witness.go).
//
// The analyses themselves are not here: dominators, liveness and the one
// fixed-point solver are internal/rtl's, beside the graph they walk
// (CFG.Dominators, CFG.Liveness, CFG.Solve), and the verifier's
// must-problems are specs over that solver in internal/check. Blocks are
// identified by layout position (index into Func.Blocks), the
// convention rtl.CFG uses.
package dataflow

import (
	"encoding/binary"
	"sync"

	"repro/internal/rtl"
)

// The equivalence canonicalizer maps a function instance to a byte
// key such that two instances with equal keys are equivalent — they
// compute the same thing — even when their identical-instance
// encodings (package fingerprint) differ. It normalizes, on top of
// fingerprint's register/label renumbering:
//
//   - block layout: blocks are emitted in a dominator-consistent
//     canonical DFS order over *semantic* successors, so reordered
//     layouts of the same CFG encode identically;
//   - control transfer spelling: an explicit trailing jump and a
//     fall-through to the same block encode as the same terminator,
//     and chains of trivial forwarder blocks (a lone jump) are
//     resolved away;
//   - unreachable code: blocks no path reaches are dropped;
//   - commutative operand order: the operands of commutative ALU
//     instructions are ordered by dominator-scoped value number
//     (gvn.go), so "r3=r1+r2" and "r3=r2+r1" coincide;
//   - register names: registers are renumbered in first-encounter
//     order of the canonical traversal, after the operand reordering
//     above, mirroring fingerprint's fixed codes for SP/IC/none.
//
// The key is one-sided: equal keys imply equivalence-by-construction
// under the normalizations above, while distinct keys prove nothing.
// That is exactly the contract the search's third index tier needs —
// merging is sound, and missed merges only cost space.

// terminator kinds in the canonical encoding.
const (
	termGoto   = 0 // unconditional transfer (jump or fall-through)
	termBranch = 1 // conditional branch: taken + not-taken labels
	termRet    = 2 // function return
	termNone   = 3 // block falls off the end of the function
)

// label codes reserved for resolution failures.
const (
	// labelCycle marks a transfer into a cycle of pure forwarder
	// blocks: an inescapable, observation-free loop. Every such
	// transfer is equivalent, so they share one sentinel.
	labelCycle = 0xFFFE
	// labelNone marks an absent fall-through (a malformed function
	// whose last block does not end in control flow).
	labelNone = 0xFFFD
)

// successor positions carrying the sentinels above.
const (
	posCycle = -1
	posNone  = -2
)

// equivEncoder carries the per-function canonicalization state. An
// encoder is pooled with all of its storage, the value numbering's
// included, so a warm EquivEncode allocates only the graph it builds.
type equivEncoder struct {
	g           *rtl.CFG
	v           vnBuilder
	fwd         []int    // forwarder resolution per block, fwdUnknown until memoized
	order       []int    // canonical visit order (layout positions)
	label       []int    // layout position -> canonical label, -1 unassigned
	path, stack []int    // resolveForwarder's and visit's scratch
	regs        []uint32 // by register: canonical number + 1, 0 while it has none
	nextReg     uint32
	dst         []byte
	aVN, bVN    []int32 // operand value numbers of the current block
}

var encoders = sync.Pool{New: func() any { return new(equivEncoder) }}

const fwdUnknown = -2

// resolveForwarder follows chains of pure-forwarder blocks (a single
// unconditional jump) starting at layout position bpos, returning the
// first non-forwarder position or -1 for a forwarder cycle.
func (e *equivEncoder) resolveForwarder(bpos int) int {
	if r := e.fwd[bpos]; r != fwdUnknown {
		return r
	}
	path := e.path[:0]
	cur := bpos
	for {
		b := e.g.F.Blocks[cur]
		if len(b.Instrs) != 1 || b.Instrs[0].Op != rtl.OpJmp {
			break
		}
		e.fwd[cur] = -3 // visiting marker
		path = append(path, cur)
		next := e.g.MustPos(b.Instrs[0].Target)
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
	e.path = path
	if e.fwd[bpos] == fwdUnknown || e.fwd[bpos] == -3 {
		e.fwd[bpos] = cur
	}
	return e.fwd[bpos]
}

// semanticTerm returns the terminator of the non-forwarder block at
// bpos with forwarder-resolved successor positions (-1 = cycle).
func (e *equivEncoder) semanticTerm(bpos int) (kind int, taken, fall int) {
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
	case last.Op == rtl.OpJmp:
		return termGoto, e.resolveForwarder(e.g.MustPos(last.Target)), posNone
	case last.Op == rtl.OpRet:
		return termRet, posNone, posNone
	default: // OpBranch
		return termBranch, e.resolveForwarder(e.g.MustPos(last.Target)), next()
	}
}

// visit assigns canonical labels in DFS preorder over semantic
// successors: not-taken before taken, matching execution layout.
func (e *equivEncoder) visit(start int) {
	if start < 0 {
		return
	}
	stack := append(e.stack[:0], start)
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
		case termGoto:
			stack = append(stack, taken)
		case termBranch:
			// Push taken first so not-taken is visited first.
			stack = append(stack, taken, fall)
		}
	}
	e.stack = stack
}

// reg numbers registers in first-encounter order, mirroring
// fingerprint's fixed codes for the structural ones (SP, IC, none): the
// first other register is number 3.
func (e *equivEncoder) reg(r rtl.Reg) uint16 {
	if r == rtl.RegNone {
		return 0xFFFF
	}
	c := &e.regs[r]
	if *c == 0 {
		*c = e.nextReg + 1
		e.nextReg++
	}
	return uint16(*c - 1)
}

func (e *equivEncoder) u16(v uint16) { e.dst = binary.LittleEndian.AppendUint16(e.dst, v) }
func (e *equivEncoder) u32(v uint32) { e.dst = binary.LittleEndian.AppendUint32(e.dst, v) }
func (e *equivEncoder) sym(s string) {
	e.dst = append(e.dst, byte(len(s)))
	e.dst = append(e.dst, s...)
}

func (e *equivEncoder) targetLabel(pos int) uint16 {
	switch pos {
	case posCycle:
		return labelCycle
	case posNone:
		return labelNone
	}
	return uint16(e.label[pos])
}

// operand emits one operand.
func (e *equivEncoder) operand(o rtl.Operand) {
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
func (e *equivEncoder) instr(in *rtl.Instr, idx int) {
	e.dst = append(e.dst, byte(in.Op))
	switch in.Op {
	case rtl.OpCall:
		e.dst = append(e.dst, in.NArgs)
		e.sym(in.Sym)
	case rtl.OpMovHi, rtl.OpAddLo:
		e.u16(e.reg(in.Dst))
		e.operand(in.A)
		e.sym(in.Sym)
	default:
		a, b := in.A, in.B
		if in.Op.IsALU() && in.Op.Commutative() && e.bVN[idx] < e.aVN[idx] {
			a, b = b, a
		}
		e.u16(e.reg(in.Dst))
		e.operand(a)
		e.operand(b)
		e.u32(uint32(in.Disp))
	}
}

// EquivEncode appends the equivalence-canonical encoding of f to dst
// and returns the extended slice. Instances with equal encodings are
// semantically equivalent (see the package comment on one-sidedness);
// the search's third index tier merges them into one node.
func EquivEncode(dst []byte, f *rtl.Func) []byte {
	e := encoders.Get().(*equivEncoder)
	dst = e.encode(dst, f)
	e.g, e.dst = nil, nil
	e.v.release()
	encoders.Put(e)
	return dst
}

func (e *equivEncoder) encode(dst []byte, f *rtl.Func) []byte {
	g := rtl.ComputeCFG(f)
	n := len(f.Blocks)
	e.g, e.dst, e.order = g, dst, e.order[:0]
	e.fwd, e.label = rtl.Resize(e.fwd, n), rtl.Resize(e.label, n)
	for i := 0; i < n; i++ {
		e.fwd[i], e.label[i] = fwdUnknown, -1
	}

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

	v := &e.v
	v.reset(g)
	e.regs = rtl.Resize(e.regs, v.width)
	clear(e.regs)
	e.regs[rtl.RegSP], e.regs[rtl.RegIC], e.nextReg = 0xFFF0+1, 0xFFF1+1, 3
	for _, bpos := range e.order {
		st := v.enter(bpos, v.effectiveParent(bpos))
		b := f.Blocks[bpos]
		instrs := b.Instrs
		kind, taken, fall := e.semanticTerm(bpos)
		if last := b.Last(); last != nil && last.Op.IsControl() {
			instrs = instrs[:len(instrs)-1]
		}
		// Value-number the block (terminator included, for IC).
		e.aVN, e.bVN = rtl.Resize(e.aVN, len(b.Instrs)), rtl.Resize(e.bVN, len(b.Instrs))
		for i := range b.Instrs {
			_, e.aVN[i], e.bVN[i] = v.instrVN(st, &b.Instrs[i])
		}
		v.done[bpos] = true

		e.u16(uint16(e.label[bpos]))
		e.u16(uint16(len(instrs)))
		for i := range instrs {
			e.instr(&instrs[i], i)
		}
		e.dst = append(e.dst, 0xFF, byte(kind))
		switch kind {
		case termGoto:
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

// EquivKey returns the equivalence-canonical key of f as a string
// usable as a map key.
func EquivKey(f *rtl.Func) string { return string(EquivEncode(nil, f)) }
