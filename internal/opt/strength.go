package opt

import (
	"math/bits"

	"repro/internal/machine"
	"repro/internal/rtl"
)

// StrengthReduction is phase q: it replaces an expensive instruction
// with one or more cheaper ones. For this compiler — as for the
// version of VPO in the paper — that means rewriting a multiply by a
// constant into a sequence of shifts, adds and subtracts.
//
// The constant operand is recognized as a register defined by an
// immediate move earlier in the same block; the move itself is left in
// place and becomes dead once the multiply no longer reads it, which
// is one of the ways q enables dead assignment elimination (h).
type StrengthReduction struct{}

// ID returns the paper's designation for the phase.
func (StrengthReduction) ID() byte { return 'q' }

// Name returns the paper's name for the phase.
func (StrengthReduction) Name() string { return "strength reduction" }

// RequiresRegAssign reports that this dataflow phase runs after the
// compulsory register assignment.
func (StrengthReduction) RequiresRegAssign() bool { return true }

// Apply runs the phase: one rewrite at a time until none is left.
func (StrengthReduction) Apply(f *rtl.Func, d *machine.Desc) bool {
	q := strengthReducer{f: f}
	changed := false
	for q.reduceOnce(d) {
		changed = true
	}
	if q.ls != nil {
		q.ls.Release()
	}
	return changed
}

// strengthReducer is one application of q. A rewrite replaces a
// multiply with straight-line arithmetic and changes no edge, so one
// graph — normally the instance's, borrowed — serves the whole
// application. Liveness is not invariant, though: a multiply by zero
// becomes a move of zero and reads its other operand no more, which can
// end that register's upward exposure, so a search after a rewrite
// that needs liveness solves it again over that graph.
type strengthReducer struct {
	f         *rtl.Func
	g         *rtl.CFG
	ls        *rtl.LiveSolver
	lv        *rtl.Liveness // nil: not solved since the last rewrite
	rewritten bool
}

// reduceOnce rewrites one multiply-by-constant, returning whether it
// did.
func (q *strengthReducer) reduceOnce(d *machine.Desc) bool {
	for bpos, b := range q.f.Blocks {
		for j := 0; j < len(b.Instrs); j++ {
			in := b.Instrs[j]
			if in.Op != rtl.OpMul {
				continue
			}
			// Find a constant operand: a register defined by Mov #c
			// with no intervening redefinition. Either side works
			// since multiply commutes.
			for _, side := range [2]int{1, 0} {
				var constOp, valOp rtl.Operand
				if side == 1 {
					constOp, valOp = in.B, in.A
				} else {
					constOp, valOp = in.A, in.B
				}
				if constOp.Kind != rtl.OperReg || valOp.Kind != rtl.OperReg {
					continue
				}
				c, ok := constRegValue(b, j, constOp.Reg)
				if !ok {
					continue
				}
				// The constant's register can serve as a scratch only
				// when nothing reads it after the multiply.
				scratch := constOp.Reg
				if scratch == in.Dst || !q.deadAfter(bpos, j, scratch) {
					scratch = rtl.RegNone
				}
				seq := expandMulByConst(in.Dst, valOp.Reg, scratch, c)
				if seq == nil {
					continue
				}
				if seqCost(d, seq) >= d.Cost(&in) {
					continue
				}
				b.Remove(j)
				for k := len(seq) - 1; k >= 0; k-- {
					b.Insert(j, seq[k])
				}
				q.lv, q.rewritten = nil, true
				return true
			}
		}
	}
	return false
}

// deadAfter reports whether register r is dead immediately after
// position j of block bpos. Liveness is asked for only when the rest of
// the block does not settle it.
func (q *strengthReducer) deadAfter(bpos, j int, r rtl.Reg) bool {
	b := q.f.Blocks[bpos]
	for p := j + 1; p < len(b.Instrs); p++ {
		if b.Instrs[p].UsesReg(r) {
			return false
		}
		if b.Instrs[p].DefsReg(r) {
			return true
		}
	}
	out := q.liveOut(bpos)
	return !out.Has(r)
}

// liveOut returns the registers live out of block bpos of the function
// as it now stands.
func (q *strengthReducer) liveOut(bpos int) rtl.RegSet {
	if q.lv == nil {
		if q.g == nil {
			q.g = rtl.CFGOf(q.f)
		}
		if !q.rewritten {
			q.lv = q.g.Liveness() // the instance's own, memoized on a borrowed graph
		} else {
			if q.ls == nil {
				q.ls = rtl.NewLiveSolver()
			}
			q.lv = q.ls.Solve(q.g)
		}
	}
	return q.lv.Out[bpos]
}

func seqCost(d *machine.Desc, seq []rtl.Instr) int {
	n := 0
	for i := range seq {
		n += d.Cost(&seq[i])
	}
	return n
}

// constRegValue reports the constant held by register r at position j
// of the block, established by a Mov r,#c at an earlier position with
// no redefinition (and no call) in between.
func constRegValue(b *rtl.Block, j int, r rtl.Reg) (int32, bool) {
	for i := j - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		if in.DefsReg(r) {
			if in.Op == rtl.OpMov && in.A.Kind == rtl.OperImm {
				return in.A.Imm, true
			}
			return 0, false
		}
	}
	return 0, false
}

// expandMulByConst builds a shift/add/subtract sequence computing
// dst = src * c, using scratch (the register that held the constant,
// dead after the multiply) as a temporary. scratch may be RegNone when
// no temporary is available, which rules out the decompositions that
// need one. It returns nil when the decomposition would need more
// registers or instructions than profitable.
func expandMulByConst(dst, src, scratch rtl.Reg, c int32) []rtl.Instr {
	if scratch == src || scratch == rtl.RegSP || scratch == dst {
		scratch = rtl.RegNone
	}
	neg := false
	uc := uint32(c)
	if c < 0 {
		neg = true
		uc = uint32(-c)
	}
	var seq []rtl.Instr
	switch {
	case c == 0:
		return []rtl.Instr{rtl.NewMov(dst, rtl.Imm(0))}
	case c == 1:
		return []rtl.Instr{rtl.NewMov(dst, rtl.R(src))}
	case c == -1:
		return []rtl.Instr{{Op: rtl.OpNeg, Dst: dst, A: rtl.R(src)}}

	case bits.OnesCount32(uc) == 1:
		// Power of two: one shift.
		k := int32(bits.TrailingZeros32(uc))
		seq = []rtl.Instr{rtl.NewALU(rtl.OpShl, dst, rtl.R(src), rtl.Imm(k))}

	case bits.OnesCount32(uc+1) == 1:
		// 2^k - 1: shift then subtract.
		k := int32(bits.TrailingZeros32(uc + 1))
		t := dst
		if dst == src {
			if scratch == rtl.RegNone {
				return nil
			}
			t = scratch
		}
		seq = []rtl.Instr{
			rtl.NewALU(rtl.OpShl, t, rtl.R(src), rtl.Imm(k)),
			rtl.NewALU(rtl.OpSub, dst, rtl.R(t), rtl.R(src)),
		}

	case bits.OnesCount32(uc) == 2:
		// Two set bits: two shifts and an add, arranged so src is
		// fully read before dst is clobbered.
		hi := int32(31 - bits.LeadingZeros32(uc))
		lo := int32(bits.TrailingZeros32(uc))
		if dst != src {
			seq = []rtl.Instr{
				rtl.NewALU(rtl.OpShl, dst, rtl.R(src), rtl.Imm(hi)),
			}
			if lo == 0 {
				seq = append(seq, rtl.NewALU(rtl.OpAdd, dst, rtl.R(dst), rtl.R(src)))
			} else {
				if scratch == rtl.RegNone {
					return nil
				}
				seq = append(seq,
					rtl.NewALU(rtl.OpShl, scratch, rtl.R(src), rtl.Imm(lo)),
					rtl.NewALU(rtl.OpAdd, dst, rtl.R(dst), rtl.R(scratch)))
			}
		} else {
			if scratch == rtl.RegNone {
				return nil
			}
			if lo == 0 {
				seq = []rtl.Instr{
					rtl.NewALU(rtl.OpShl, scratch, rtl.R(src), rtl.Imm(hi)),
					rtl.NewALU(rtl.OpAdd, dst, rtl.R(scratch), rtl.R(src)),
				}
			} else {
				seq = []rtl.Instr{
					rtl.NewALU(rtl.OpShl, scratch, rtl.R(src), rtl.Imm(lo)),
					rtl.NewALU(rtl.OpShl, dst, rtl.R(src), rtl.Imm(hi)),
					rtl.NewALU(rtl.OpAdd, dst, rtl.R(dst), rtl.R(scratch)),
				}
			}
		}

	default:
		return nil
	}
	if neg {
		seq = append(seq, rtl.Instr{Op: rtl.OpNeg, Dst: dst, A: rtl.R(dst)})
	}
	return seq
}
