package opt

// Phase s as it stood before its search became one forward pass per
// block (instsel.go), kept verbatim — identifiers that would collide
// with their replacements carry a ref prefix, and the reference does not
// call the selectionLiveness hook; nothing else changed — as the
// reference TestPhaseSMatchesReference holds the replacement to. The two
// share only what neither rewrote: evalALU and the machine description.

import (
	"repro/internal/machine"
	"repro/internal/rtl"
)

// refInstructionSelection is InstructionSelection.Apply: it runs the
// phase, one combination at a time, each search starting over from the
// top, until none is left.
//
// No combination changes an edge (a control instruction is never a
// definition and is only ever rewritten in place, keeping its target),
// so one graph — normally the instance's, borrowed — serves the whole
// application. Liveness is asked for once and again only after an
// identity move is removed: a committed combination leaves every
// block's live-out set as it was (DESIGN.md §4 has the argument,
// TestPhaseSLivenessIsFresh holds it), and the live-out sets are all
// refSoleUseThenDead reads.
func refInstructionSelection(f *rtl.Func, d *machine.Desc) bool {
	g := rtl.CFGOf(f)
	ls := rtl.NewLiveSolver()
	defer ls.Release()
	var lv *rtl.Liveness // nil: not solved since the last identity move went
	changed := false
	for {
		if refRemoveIdentityMove(f) {
			changed, lv = true, nil
			continue
		}
		switch {
		case lv != nil:
		case changed:
			lv = ls.Solve(g)
		default:
			lv = g.Liveness()
		}
		if !refCombineOnce(f, d, lv) {
			return changed
		}
		changed = true
	}
}

// refRemoveIdentityMove deletes the first identity move (r = r) of f and
// reports whether there was one. They are vacuous combinations:
// register assignment frequently maps a value and its final copy onto
// the same register, and no other phase may delete the leftover.
func refRemoveIdentityMove(f *rtl.Func) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == rtl.OpMov && in.A.IsReg(in.Dst) {
				b.Remove(i)
				return true
			}
		}
	}
	return false
}

// refCombineOnce finds and applies one combination anywhere in the
// function, returning whether it did.
func refCombineOnce(f *rtl.Func, d *machine.Desc, lv *rtl.Liveness) bool {
	var buf [8]rtl.Reg
	for bpos, b := range f.Blocks {
		for j := 1; j < len(b.Instrs); j++ {
			for _, u := range b.Instrs[j].Uses(buf[:0]) {
				if u == rtl.RegSP || u == rtl.RegIC {
					continue
				}
				i := refLastDefBefore(b, j, u)
				if i < 0 {
					continue
				}
				if !refSoleUseThenDead(b, i, j, u, lv.Out[bpos]) {
					continue
				}
				if refTryCombine(f, d, b, i, j, u) {
					return true
				}
			}
		}
	}
	return false
}

// refLastDefBefore returns the index of the nearest instruction before j
// that defines u, or -1.
func refLastDefBefore(b *rtl.Block, j int, u rtl.Reg) int {
	for i := j - 1; i >= 0; i-- {
		if b.Instrs[i].DefsReg(u) {
			return i
		}
	}
	return -1
}

// refSoleUseThenDead reports whether the only use of u after its
// definition at i is at j, with u dead afterwards (redefined before
// any further use, or not live out of the block). Only then can the
// definition be folded away.
func refSoleUseThenDead(b *rtl.Block, i, j int, u rtl.Reg, liveOut rtl.RegSet) bool {
	for p := i + 1; p < j; p++ {
		if b.Instrs[p].UsesReg(u) || b.Instrs[p].DefsReg(u) {
			return false
		}
	}
	if b.Instrs[j].DefsReg(u) {
		return true // the user overwrites u, killing the old value
	}
	for p := j + 1; p < len(b.Instrs); p++ {
		if b.Instrs[p].UsesReg(u) {
			return false
		}
		if b.Instrs[p].DefsReg(u) {
			return true
		}
	}
	return !liveOut.Has(u)
}

// refRegsRedefinedBetween reports whether any register read by def is
// redefined in positions (i, j) of the block.
func refRegsRedefinedBetween(b *rtl.Block, i, j int, def *rtl.Instr) bool {
	var buf [8]rtl.Reg
	for p := i + 1; p < j; p++ {
		for _, r := range def.Uses(buf[:0]) {
			if b.Instrs[p].DefsReg(r) {
				return true
			}
		}
	}
	return false
}

// refMemoryClobberedBetween reports whether a store or call occurs in
// positions (i, j).
func refMemoryClobberedBetween(b *rtl.Block, i, j int) bool {
	for p := i + 1; p < j; p++ {
		if op := b.Instrs[p].Op; op == rtl.OpStore || op == rtl.OpCall {
			return true
		}
	}
	return false
}

// refTryCombine merges the definition of u at index i into its user at
// index j. On success it replaces instruction j with the combination,
// deletes instruction i, and returns true.
func refTryCombine(f *rtl.Func, d *machine.Desc, b *rtl.Block, i, j int, u rtl.Reg) bool {
	def := b.Instrs[i]
	user := b.Instrs[j] // copies

	commit := func(merged rtl.Instr) bool {
		if merged.UsesReg(u) {
			return false // substitution incomplete
		}
		if !d.Legal(&merged) {
			return false
		}
		b.Instrs[j] = merged
		b.Remove(i)
		return true
	}

	// Rule 1: the user is a plain move of u — transfer the whole
	// computation to the move's destination.
	if user.Op == rtl.OpMov && user.A.IsReg(u) && !def.HasSideEffects() && def.Op != rtl.OpNop {
		if !refRegsRedefinedBetween(b, i, j, &def) {
			if def.Op != rtl.OpLoad || !refMemoryClobberedBetween(b, i, j) {
				merged := def
				merged.Dst = user.Dst
				return commit(merged)
			}
		}
	}

	switch def.Op {
	case rtl.OpMov:
		switch def.A.Kind {
		case rtl.OperImm:
			return refCombineConst(d, b, i, j, u, def.A.Imm, commit)
		case rtl.OperReg:
			// Copy collapse: substitute the source for u everywhere.
			if def.A.Reg == rtl.RegSP {
				// Substituting SP into address arithmetic is legal and
				// common (frame address formation).
			}
			if refRegsRedefinedBetween(b, i, j, &def) {
				return false
			}
			merged := user
			merged.ReplaceUses(u, def.A)
			return commit(merged)
		}

	case rtl.OpAdd, rtl.OpSub:
		// Address-forming add/sub with an immediate folds into
		// displacements and further adds.
		if def.A.Kind != rtl.OperReg || def.B.Kind != rtl.OperImm {
			return false
		}
		if refRegsRedefinedBetween(b, i, j, &def) {
			return false
		}
		c := def.B.Imm
		if def.Op == rtl.OpSub {
			c = -c
		}
		rs := def.A.Reg
		merged := user
		switch {
		case merged.Op == rtl.OpLoad && merged.A.IsReg(u):
			merged.A = rtl.R(rs)
			merged.Disp += c
			return commit(merged)
		case merged.Op == rtl.OpStore && merged.B.IsReg(u) && !merged.A.IsReg(u):
			merged.B = rtl.R(rs)
			merged.Disp += c
			return commit(merged)
		case merged.Op == rtl.OpAdd && merged.A.IsReg(u) && merged.B.Kind == rtl.OperImm:
			merged.A = rtl.R(rs)
			merged.B = rtl.Imm(merged.B.Imm + c)
			return commit(merged)
		case merged.Op == rtl.OpSub && merged.A.IsReg(u) && merged.B.Kind == rtl.OperImm:
			// (rs + c) - c2  ==  rs + (c - c2)
			merged.Op = rtl.OpAdd
			merged.A = rtl.R(rs)
			merged.B = rtl.Imm(c - merged.B.Imm)
			return commit(merged)
		}
	}
	return false
}

// refCombineConst folds the constant c (the value of u) into the user
// instruction at index j.
func refCombineConst(d *machine.Desc, b *rtl.Block, i, j int, u rtl.Reg, c int32, commit func(rtl.Instr) bool) bool {
	user := b.Instrs[j]
	merged := user
	switch {
	case merged.Op == rtl.OpMov && merged.A.IsReg(u):
		merged.A = rtl.Imm(c)
		return commit(merged)

	case merged.Op == rtl.OpNeg && merged.A.IsReg(u):
		return commit(rtl.NewMov(merged.Dst, rtl.Imm(-c)))

	case merged.Op == rtl.OpNot && merged.A.IsReg(u):
		return commit(rtl.NewMov(merged.Dst, rtl.Imm(^c)))

	case merged.Op == rtl.OpCmp && merged.B.IsReg(u) && !merged.A.IsReg(u):
		merged.B = rtl.Imm(c)
		return commit(merged)

	case merged.Op.IsALU():
		if merged.B.IsReg(u) {
			merged.B = rtl.Imm(c)
		}
		if merged.A.IsReg(u) {
			if merged.B.Kind == rtl.OperImm {
				// Fully constant: fold to a move.
				if res, ok := evalALU(merged.Op, c, merged.B.Imm); ok {
					return commit(rtl.NewMov(merged.Dst, rtl.Imm(res)))
				}
				return false
			}
			switch {
			case merged.Op.Commutative():
				merged.A = merged.B
				merged.B = rtl.Imm(c)
			case merged.Op == rtl.OpSub:
				// c - r  ==  rsb r, #c
				merged.Op = rtl.OpRsb
				merged.A = merged.B
				merged.B = rtl.Imm(c)
			default:
				return false
			}
		}
		return commit(merged)
	}
	return false
}
