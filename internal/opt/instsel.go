package opt

import (
	"sync"

	"repro/internal/machine"
	"repro/internal/rtl"
)

// InstructionSelection is phase s: it combines pairs (and, through
// repeated application, triples) of instructions linked by set/use
// dependencies, symbolically merging their effects, performing
// constant folding, and checking that the result is a legal target
// instruction before committing — exactly the behaviour Table 1
// describes. Typical combinations: folding an immediate move into its
// user, collapsing register-to-register moves, and folding an address
// add into a load/store displacement.
type InstructionSelection struct{}

// ID returns the paper's designation for the phase.
func (InstructionSelection) ID() byte { return 's' }

// Name returns the paper's name for the phase.
func (InstructionSelection) Name() string { return "instruction selection" }

// RequiresRegAssign reports that this dataflow phase runs after the
// compulsory register assignment.
func (InstructionSelection) RequiresRegAssign() bool { return true }

// Apply runs the phase: one combination at a time until none is left,
// each found by one forward pass over a block (selScratch.combine).
//
// No combination changes an edge (a control instruction is never a
// definition and is only ever rewritten in place, keeping its target),
// so one graph — normally the instance's, borrowed — serves the whole
// application. Liveness is asked for once and again only after an
// identity move is removed: a committed combination leaves every
// block's live-out set as it was (DESIGN.md §4 has the argument,
// TestPhaseSLivenessIsFresh holds it), and the live-out sets are all
// the search reads besides the block itself. So after a combination in
// block b the search resumes at b: the blocks before it, and what it
// knows of them, are as they were when it found nothing there. The
// search runs only on a function without identity moves, and a
// combination rewrites one instruction, so the merged instruction is
// the one that can have become one; removing it can end an upward
// exposure, so liveness is solved again and the search starts over.
func (InstructionSelection) Apply(f *rtl.Func, d *machine.Desc) bool {
	g := rtl.CFGOf(f)
	ls := rtl.NewLiveSolver()
	defer ls.Release()
	sc := selScratchPool.Get().(*selScratch)
	defer selScratchPool.Put(sc)
	sc.reset(usedRegWidth(f))

	changed := removeIdentityMoves(f)
	var lv *rtl.Liveness
	if changed {
		lv = ls.Solve(g)
	} else {
		lv = g.Liveness()
	}
	if selectionLiveness != nil {
		selectionLiveness(f, lv)
	}
	for bpos, from := 0, 0; bpos < len(f.Blocks); {
		b := f.Blocks[bpos]
		i, j := sc.combine(b, d, lv.Out[bpos], from)
		if j < 0 {
			bpos, from = bpos+1, 0
			continue
		}
		changed, from = true, i
		if in := &b.Instrs[j]; in.Op == rtl.OpMov && in.A.IsReg(in.Dst) {
			b.Remove(j)
			lv, bpos, from = ls.Solve(g), 0, 0
		}
		if selectionLiveness != nil {
			selectionLiveness(f, lv)
		}
	}
	return changed
}

// selectionLiveness, when non-nil, is shown the liveness s is about to
// search for a combination with, and the function as it then stands.
// A test hook, in the style of rtl.Trace.
var selectionLiveness func(f *rtl.Func, lv *rtl.Liveness)

// removeIdentityMoves deletes every identity move (r = r) of f and
// reports whether there was one. They are vacuous combinations:
// register assignment frequently maps a value and its final copy onto
// the same register, and no other phase may delete the leftover.
func removeIdentityMoves(f *rtl.Func) bool {
	removed := false
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); {
			if in := &b.Instrs[i]; in.Op == rtl.OpMov && in.A.IsReg(in.Dst) {
				b.Remove(i)
				removed = true
				continue
			}
			i++
		}
	}
	return removed
}

// selScratch is the storage s's search works in, sized by the registers
// the function references (usedRegWidth): for the block being searched,
// which of each instruction's uses are live after it, and — as the
// search walks down the block — the nearest definition, the last use and
// the last memory write above the cursor. Scratch is pooled; an
// application takes one and returns it, so a warm pool makes the search
// allocation-free.
type selScratch struct {
	after   []uint8  // by instruction: bit k set when the k-th register Uses lists is live after it
	live    []uint64 // the backward pass's running set, ⌈width/64⌉ words
	lastDef []int32  // by register: position of its nearest definition, or -1
	lastUse []int32  // by register: position of its last use, or -1
	lastMem int      // position of the last store or call, or -1
}

var selScratchPool = sync.Pool{New: func() any { return new(selScratch) }}

// reset sizes the scratch for a function referencing registers [0, width).
func (sc *selScratch) reset(width int) {
	sc.live = rtl.Resize(sc.live, (width+63)/64)
	sc.lastDef = rtl.Resize(sc.lastDef, width)
	sc.lastUse = rtl.Resize(sc.lastUse, width)
}

// inRange reports whether r is one of the registers the scratch holds:
// every register the function references except RegNone, which no
// operand should name and no instruction defines.
func (sc *selScratch) inRange(r rtl.Reg) bool { return int(r) < len(sc.lastDef) }

// combine searches b for the first combination of a definition into its
// sole user, applies it and returns the positions of the definition it
// deleted and of the merged instruction, or returns -1, -1 when the
// block has none. The candidates, and the order they are tried in, are
// the same as when each use looked back for its definition and forward
// for another use: instruction j's use of u (not SP or IC) pairs with
// the nearest definition of u above j, at i, when nothing between reads
// u and u is dead after j or overwritten by it.
//
// Users above from are not tried: after a combination that deleted the
// definition at i, every candidate whose user lies above i reads what it
// read when it failed — the instructions up to its user, and which
// registers are live after it (DESIGN.md §4) — so the search resumes at
// i, having only walked the code above it for the definitions and uses
// it holds.
func (sc *selScratch) combine(b *rtl.Block, d *machine.Desc, liveOut rtl.RegSet, from int) (int, int) {
	if len(b.Instrs) < 2 {
		return -1, -1
	}
	sc.liveAfter(b, liveOut, from)
	for r := range sc.lastDef {
		sc.lastDef[r], sc.lastUse[r] = -1, -1
	}
	sc.lastMem = -1
	var buf [8]rtl.Reg
	for j := range b.Instrs {
		in := &b.Instrs[j]
		uses := in.Uses(buf[:0])
		for k, u := range uses {
			if j < from || u == rtl.RegSP || u == rtl.RegIC || !sc.inRange(u) {
				continue
			}
			i := int(sc.lastDef[u])
			if i < 0 || int(sc.lastUse[u]) > i {
				continue
			}
			if !in.DefsReg(u) && sc.after[j]>>k&1 != 0 {
				continue // u lives on
			}
			if tryCombine(d, b, i, j, u, sc) {
				return i, j - 1
			}
		}
		for _, u := range uses {
			if sc.inRange(u) {
				sc.lastUse[u] = int32(j)
			}
		}
		for _, r := range in.Defs(buf[:0]) {
			sc.lastDef[r] = int32(j)
		}
		if in.Op == rtl.OpStore || in.Op == rtl.OpCall {
			sc.lastMem = j
		}
	}
	return -1, -1
}

// liveAfter fills sc.after for b's instructions from position from on,
// by one backward pass from its live-out set.
func (sc *selScratch) liveAfter(b *rtl.Block, liveOut rtl.RegSet, from int) {
	sc.after = rtl.Resize(sc.after, len(b.Instrs))
	live := sc.live
	clear(live)
	copy(live, liveOut.Words())
	var ubuf, dbuf [8]rtl.Reg
	for p := len(b.Instrs) - 1; p >= from; p-- {
		in := &b.Instrs[p]
		uses := in.Uses(ubuf[:0])
		after := uint8(0)
		for k, r := range uses {
			if sc.inRange(r) && live[r>>6]>>(r&63)&1 != 0 {
				after |= 1 << k
			}
		}
		sc.after[p] = after
		for _, r := range in.Defs(dbuf[:0]) {
			live[r>>6] &^= 1 << (r & 63)
		}
		for _, r := range uses {
			if sc.inRange(r) {
				live[r>>6] |= 1 << (r & 63)
			}
		}
	}
}

// redefinedSince reports whether a register def reads is written
// between position i and the cursor.
func (sc *selScratch) redefinedSince(def *rtl.Instr, i int) bool {
	var buf [8]rtl.Reg
	for _, r := range def.Uses(buf[:0]) {
		if sc.inRange(r) && int(sc.lastDef[r]) > i {
			return true
		}
	}
	return false
}

// memoryClobberedSince reports whether a store or call lies between
// position i and the cursor.
func (sc *selScratch) memoryClobberedSince(i int) bool { return sc.lastMem > i }

// evalALU computes a constant binary operation with the target's
// 32-bit wrapping semantics. Division by zero is rejected.
func evalALU(op rtl.Op, a, b int32) (int32, bool) {
	switch op {
	case rtl.OpAdd:
		return a + b, true
	case rtl.OpSub:
		return a - b, true
	case rtl.OpRsb:
		return b - a, true
	case rtl.OpMul:
		return a * b, true
	case rtl.OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case rtl.OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case rtl.OpAnd:
		return a & b, true
	case rtl.OpOr:
		return a | b, true
	case rtl.OpXor:
		return a ^ b, true
	case rtl.OpShl:
		return a << (uint32(b) & 31), true
	case rtl.OpShr:
		return int32(uint32(a) >> (uint32(b) & 31)), true
	case rtl.OpSar:
		return a >> (uint32(b) & 31), true
	}
	return 0, false
}

// tryCombine merges the definition of u at index i into its user at
// index j, the cursor of the search sc is running over b. On success it
// replaces instruction j with the combination, deletes instruction i,
// and returns true.
func tryCombine(d *machine.Desc, b *rtl.Block, i, j int, u rtl.Reg, sc *selScratch) bool {
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
		if !sc.redefinedSince(&def, i) {
			if def.Op != rtl.OpLoad || !sc.memoryClobberedSince(i) {
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
			return combineConst(d, b, i, j, u, def.A.Imm, commit)
		case rtl.OperReg:
			// Copy collapse: substitute the source for u everywhere.
			if def.A.Reg == rtl.RegSP {
				// Substituting SP into address arithmetic is legal and
				// common (frame address formation).
			}
			if sc.redefinedSince(&def, i) {
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
		if sc.redefinedSince(&def, i) {
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

// combineConst folds the constant c (the value of u) into the user
// instruction at index j.
func combineConst(d *machine.Desc, b *rtl.Block, i, j int, u rtl.Reg, c int32, commit func(rtl.Instr) bool) bool {
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
