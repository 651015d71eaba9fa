package opt_test

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// These tests exercise each phase on hand-built RTL where the expected
// transformation is known exactly, complementing the differential
// suite (which checks behaviour but not the specific rewrite).

func newAssigned(name string) *rtl.Func {
	f := rtl.NewFunc(name, 0, false)
	f.RegAssigned = true
	return f
}

func ret() rtl.Instr { return rtl.Instr{Op: rtl.OpRet} }

// --- b: branch chaining ---------------------------------------------------

func TestBranchChainingFollowsChains(t *testing.T) {
	f := newAssigned("chain")
	b0 := f.Entry()
	j1 := f.AddBlock()
	j2 := f.AddBlock()
	end := f.AddBlock()
	b0.Instrs = append(b0.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelEQ, j1.ID))
	// j1 and j2 are a jump chain ending at end.
	j1.Instrs = append(j1.Instrs, rtl.NewJmp(j2.ID))
	j2.Instrs = append(j2.Instrs, rtl.NewJmp(end.ID))
	end.Instrs = append(end.Instrs, ret())

	if !(opt.BranchChaining{}).Apply(f, machine.StrongARM()) {
		t.Fatal("dormant on a jump chain")
	}
	if f.Entry().Last().Target != end.ID {
		t.Fatalf("branch not retargeted to the chain end:\n%s", f)
	}
	// The now-unreachable jump blocks were removed by the phase itself
	// (Section 5.1), so d stays dormant.
	if (opt.RemoveUnreachable{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("b left unreachable code behind:\n%s", f)
	}
}

func TestBranchChainingHandlesCycles(t *testing.T) {
	f := newAssigned("cycle")
	b0 := f.Entry()
	a := f.AddBlock()
	b := f.AddBlock()
	end := f.AddBlock()
	b0.Instrs = append(b0.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelEQ, a.ID))
	a.Instrs = append(a.Instrs, rtl.NewJmp(b.ID))
	b.Instrs = append(b.Instrs, rtl.NewJmp(a.ID)) // empty infinite loop
	end.Instrs = append(end.Instrs, ret())

	// Must not hang; the cyclic chain cannot be shortened.
	(opt.BranchChaining{}).Apply(f, machine.StrongARM())
	if err := rtl.Validate(f); err != nil {
		t.Fatal(err)
	}
}

// --- u: useless jump removal ----------------------------------------------

func TestUselessJumpRemoval(t *testing.T) {
	f := newAssigned("uj")
	b0 := f.Entry()
	next := f.AddBlock()
	b0.Instrs = append(b0.Instrs,
		rtl.NewMov(rtl.RegR0, rtl.Imm(1)),
		rtl.NewJmp(next.ID)) // jump to the following block
	next.Instrs = append(next.Instrs, ret())

	if !(opt.UselessJumpRemoval{}).Apply(f, machine.StrongARM()) {
		t.Fatal("dormant on a jump-to-next")
	}
	if f.NumBranches() != 0 {
		t.Fatalf("jump survived:\n%s", f)
	}
}

func TestUselessBranchToFallThrough(t *testing.T) {
	f := newAssigned("ub")
	b0 := f.Entry()
	next := f.AddBlock()
	b0.Instrs = append(b0.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelEQ, next.ID)) // both arms reach next
	next.Instrs = append(next.Instrs, ret())

	if !(opt.UselessJumpRemoval{}).Apply(f, machine.StrongARM()) {
		t.Fatal("dormant on a branch-to-next")
	}
	if f.NumBranches() != 0 {
		t.Fatalf("branch survived:\n%s", f)
	}
}

// --- r: reverse branches ----------------------------------------------------

func TestReverseBranches(t *testing.T) {
	f := newAssigned("rb")
	b0 := f.Entry()
	jb := f.AddBlock()
	thenB := f.AddBlock()
	elseB := f.AddBlock()
	b0.Instrs = append(b0.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelLT, thenB.ID)) // branches over jb
	jb.Instrs = append(jb.Instrs, rtl.NewJmp(elseB.ID))
	thenB.Instrs = append(thenB.Instrs,
		rtl.NewMov(rtl.RegR0, rtl.Imm(1)),
		ret())
	elseB.Instrs = append(elseB.Instrs,
		rtl.NewMov(rtl.RegR0, rtl.Imm(2)),
		ret())

	if !(opt.ReverseBranches{}).Apply(f, machine.StrongARM()) {
		t.Fatal("dormant on a branch-over-jump")
	}
	last := f.Entry().Last()
	if last.Rel != rtl.RelGE || last.Target != elseB.ID {
		t.Fatalf("expected PC=IC>=0,L%d:\n%s", elseB.ID, f)
	}
	// One jump gone, block count reduced.
	if f.NumBranches() != 1 {
		t.Fatalf("jump not removed:\n%s", f)
	}
}

// --- i: block reordering -----------------------------------------------------

func TestBlockReorderingMovesSinglePredTarget(t *testing.T) {
	f := newAssigned("reorder")
	b0 := f.Entry()
	mid := f.AddBlock()
	tgt := f.AddBlock()
	b0.Instrs = append(b0.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelEQ, mid.ID))
	// fallthrough block jumping to tgt, with tgt elsewhere.
	ft := f.Blocks[1] // mid is position 1? ensure layout: entry, mid, tgt
	_ = ft
	mid.Instrs = append(mid.Instrs, ret())
	tgt.Instrs = append(tgt.Instrs, ret())
	// Rebuild with the pattern: entry ends Jmp tgt, tgt at the end
	// with a single predecessor and a Ret.
	f2 := newAssigned("reorder2")
	a := f2.Entry()
	bmid := f2.AddBlock()
	c := f2.AddBlock()
	a.Instrs = append(a.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelEQ, bmid.ID))
	// position 1: jump away to c
	j := f2.NewDetachedBlock()
	j.Instrs = append(j.Instrs, rtl.NewJmp(c.ID))
	f2.InsertBlockAfter(0, j)
	bmid.Instrs = append(bmid.Instrs, ret())
	c.Instrs = append(c.Instrs, rtl.NewMov(rtl.RegR0, rtl.Imm(7)), ret())

	if err := rtl.Validate(f2); err != nil {
		t.Fatal(err)
	}
	before := f2.NumBranches()
	if !(opt.BlockReordering{}).Apply(f2, machine.StrongARM()) {
		t.Fatalf("dormant:\n%s", f2)
	}
	if f2.NumBranches() != before-1 {
		t.Fatalf("no jump removed:\n%s", f2)
	}
	if err := rtl.Validate(f2); err != nil {
		t.Fatalf("%v:\n%s", err, f2)
	}
}

// --- j: minimize loop jumps --------------------------------------------------

func TestMinimizeLoopJumpsRotates(t *testing.T) {
	// while-loop shape: head tests, body jumps back.
	f := newAssigned("rot")
	entry := f.Entry()
	head := f.AddBlock()
	body := f.AddBlock()
	exit := f.AddBlock()
	entry.Instrs = append(entry.Instrs, rtl.NewMov(rtl.RegR1, rtl.Imm(0)))
	head.Instrs = append(head.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR1), rtl.R(rtl.RegR0)),
		rtl.NewBranch(rtl.RelGE, exit.ID))
	body.Instrs = append(body.Instrs,
		rtl.NewALU(rtl.OpAdd, rtl.RegR1, rtl.R(rtl.RegR1), rtl.Imm(1)),
		rtl.NewJmp(head.ID))
	exit.Instrs = append(exit.Instrs, ret())

	if !(opt.MinimizeLoopJumps{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("dormant on a rotatable loop:\n%s", f)
	}
	// The body must now end in a conditional branch, not a jump.
	s := f.String()
	if strings.Contains(s, "PC=L"+itoa(head.ID)+";") {
		t.Fatalf("back jump survived:\n%s", s)
	}
	if err := rtl.Validate(f); err != nil {
		t.Fatalf("%v:\n%s", err, f)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// --- n: code abstraction -----------------------------------------------------

func TestCrossJumping(t *testing.T) {
	// Two arms both end storing r0 to the same slot before joining.
	f := newAssigned("cj")
	f.AddSlot("x", 4, false)
	entry := f.Entry()
	arm1 := f.AddBlock()
	arm2 := f.AddBlock()
	join := f.AddBlock()
	entry.Instrs = append(entry.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelLT, arm2.ID))
	arm1.Instrs = append(arm1.Instrs,
		rtl.NewMov(rtl.RegR1, rtl.Imm(1)),
		rtl.NewStore(rtl.RegR1, rtl.RegSP, 0),
		rtl.NewJmp(join.ID))
	arm2.Instrs = append(arm2.Instrs,
		rtl.NewMov(rtl.RegR1, rtl.Imm(2)),
		rtl.NewStore(rtl.RegR1, rtl.RegSP, 0),
	) // falls through to join
	join.Instrs = append(join.Instrs, ret())

	before := f.NumInstrs()
	if !(opt.CodeAbstraction{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("dormant on identical suffixes:\n%s", f)
	}
	if f.NumInstrs() >= before {
		t.Fatalf("no instruction saved: %d -> %d\n%s", before, f.NumInstrs(), f)
	}
	// The store must now appear exactly once, in the join block.
	if n := strings.Count(f.String(), "M[r[sp]]=r[1];"); n != 1 {
		t.Fatalf("store appears %d times:\n%s", n, f)
	}
}

func TestCodeHoisting(t *testing.T) {
	// Both successors of a branch start with the same instruction.
	f := newAssigned("hoist")
	entry := f.Entry()
	arm1 := f.AddBlock()
	arm2 := f.AddBlock()
	entry.Instrs = append(entry.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelLT, arm2.ID))
	arm1.Instrs = append(arm1.Instrs,
		rtl.NewMov(rtl.RegR2, rtl.Imm(5)),
		rtl.NewMov(rtl.RegR0, rtl.Imm(1)),
		ret())
	arm2.Instrs = append(arm2.Instrs,
		rtl.NewMov(rtl.RegR2, rtl.Imm(5)),
		rtl.NewMov(rtl.RegR0, rtl.Imm(2)),
		ret())

	if !(opt.CodeAbstraction{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("dormant on identical prefixes:\n%s", f)
	}
	if n := strings.Count(f.String(), "r[2]=5;"); n != 1 {
		t.Fatalf("hoisted instruction appears %d times:\n%s", n, f)
	}
	// It must sit before the comparison's branch but the comparison
	// itself must still feed the branch.
	entryS := ""
	for i := range f.Entry().Instrs {
		entryS += f.Entry().Instrs[i].String()
	}
	if !strings.Contains(entryS, "r[2]=5;") {
		t.Fatalf("instruction not hoisted into the predecessor:\n%s", f)
	}
}

// --- k: register allocation ---------------------------------------------------

func TestRegisterAllocationPromotesScalars(t *testing.T) {
	f := newAssigned("ra")
	off := f.AddSlot("x", 4, true)
	entry := f.Entry()
	entry.Instrs = append(entry.Instrs,
		rtl.NewStore(rtl.RegR0, rtl.RegSP, off),
		rtl.NewLoad(rtl.RegR1, rtl.RegSP, off),
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR1), rtl.Imm(1)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	f.Returns = true

	if !(opt.RegisterAllocation{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("dormant on a promotable scalar:\n%s", f)
	}
	s := f.String()
	if strings.Contains(s, "M[") {
		t.Fatalf("memory access survived promotion:\n%s", s)
	}
	// The slot is no longer a promotion candidate.
	if f.Slots[0].Scalar {
		t.Fatal("slot still marked scalar after promotion")
	}
}

func TestRegisterAllocationRespectsCalls(t *testing.T) {
	// A scalar live across a call must land in a callee-save register.
	f := newAssigned("racall")
	off := f.AddSlot("x", 4, true)
	entry := f.Entry()
	entry.Instrs = append(entry.Instrs,
		rtl.NewStore(rtl.RegR0, rtl.RegSP, off),
		rtl.Instr{Op: rtl.OpCall, Sym: "g"},
		rtl.NewLoad(rtl.RegR1, rtl.RegSP, off),
		rtl.NewMov(rtl.RegR0, rtl.R(rtl.RegR1)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	f.Returns = true

	if !(opt.RegisterAllocation{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("dormant:\n%s", f)
	}
	// Find the move the store became and check the register class.
	first := f.Entry().Instrs[0]
	if first.Op != rtl.OpMov {
		t.Fatalf("store not rewritten to a move:\n%s", f)
	}
	if !first.Dst.IsCalleeSave() {
		t.Fatalf("slot crossing a call promoted to caller-save %s:\n%s", first.Dst, f)
	}
}

// --- l: loop transformations ----------------------------------------------------

func TestLICMHoistsInvariantAddress(t *testing.T) {
	// A loop recomputing HI/LO of a global every iteration.
	f := newAssigned("licm")
	entry := f.Entry()
	head := f.AddBlock()
	body := f.AddBlock()
	exit := f.AddBlock()
	entry.Instrs = append(entry.Instrs, rtl.NewMov(rtl.RegR1, rtl.Imm(0)))
	head.Instrs = append(head.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR1), rtl.R(rtl.RegR0)),
		rtl.NewBranch(rtl.RelGE, exit.ID))
	body.Instrs = append(body.Instrs,
		rtl.Instr{Op: rtl.OpMovHi, Dst: rtl.RegR2, Sym: "g"},
		rtl.Instr{Op: rtl.OpAddLo, Dst: rtl.RegR2, A: rtl.R(rtl.RegR2), Sym: "g"},
		rtl.NewStore(rtl.RegR1, rtl.RegR2, 0),
		rtl.NewALU(rtl.OpAdd, rtl.RegR1, rtl.R(rtl.RegR1), rtl.Imm(1)),
		rtl.NewJmp(head.ID))
	exit.Instrs = append(exit.Instrs, ret())

	if !(opt.LoopTransformations{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("dormant on loop-invariant address formation:\n%s", f)
	}
	// The HI must be gone from the loop body (hoisted to a preheader).
	g := rtl.ComputeCFG(f)
	loops := g.FindLoops()
	if len(loops) != 1 {
		t.Fatalf("loop structure destroyed:\n%s", f)
	}
	loops[0].Blocks.ForEach(func(bpos int) {
		for i := range f.Blocks[bpos].Instrs {
			if f.Blocks[bpos].Instrs[i].Op == rtl.OpMovHi {
				t.Fatalf("HI[g] still inside the loop:\n%s", f)
			}
		}
	})
}

// --- g: loop unrolling ------------------------------------------------------------

func TestLoopUnrollingDoublesBody(t *testing.T) {
	// Bottom-test single-block self loop, the shape j produces.
	f := newAssigned("unroll")
	entry := f.Entry()
	loop := f.AddBlock()
	exit := f.AddBlock()
	entry.Instrs = append(entry.Instrs, rtl.NewMov(rtl.RegR1, rtl.Imm(0)))
	loop.Instrs = append(loop.Instrs,
		rtl.NewALU(rtl.OpAdd, rtl.RegR1, rtl.R(rtl.RegR1), rtl.Imm(1)),
		rtl.NewCmp(rtl.R(rtl.RegR1), rtl.R(rtl.RegR0)),
		rtl.NewBranch(rtl.RelLT, loop.ID))
	exit.Instrs = append(exit.Instrs, ret())

	nBefore := len(f.Blocks)
	if !(opt.LoopUnrolling{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("dormant on a bottom-test self loop:\n%s", f)
	}
	if len(f.Blocks) != nBefore+1 {
		t.Fatalf("expected one new block:\n%s", f)
	}
	if err := rtl.Validate(f); err != nil {
		t.Fatalf("%v:\n%s", err, f)
	}
	// Re-applying must be dormant (the unrolled copies are not
	// self-loops).
	if (opt.LoopUnrolling{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("unrolling applied twice consecutively:\n%s", f)
	}
}

// --- o: evaluation order determination ----------------------------------------------

func TestEvalOrderReducesPressure(t *testing.T) {
	// Two long independent chains interleaved badly: all four values
	// live at once. Scheduling one chain before the other halves the
	// pressure.
	f := rtl.NewFunc("evalo", 0, true)
	r := func(i int) rtl.Reg { return rtl.FirstPseudo + rtl.Reg(i) }
	entry := f.Entry()
	for i := 0; i < 4; i++ {
		f.NewReg()
	}
	entry.Instrs = append(entry.Instrs,
		rtl.NewMov(r(0), rtl.Imm(1)),
		rtl.NewMov(r(1), rtl.Imm(2)),
		rtl.NewMov(r(2), rtl.Imm(3)),
		rtl.NewMov(r(3), rtl.Imm(4)),
		rtl.NewALU(rtl.OpAdd, r(0), rtl.R(r(0)), rtl.R(r(1))),
		rtl.NewALU(rtl.OpAdd, r(2), rtl.R(r(2)), rtl.R(r(3))),
		rtl.NewALU(rtl.OpAdd, r(0), rtl.R(r(0)), rtl.R(r(2))),
		rtl.NewMov(rtl.RegR0, rtl.R(r(0))),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})

	if !(opt.EvalOrderDetermination{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("dormant on an interleaved schedule:\n%s", f)
	}
	// After register assignment the phase is illegal.
	opt.RegAssign(f)
	if (opt.EvalOrderDetermination{}).Apply(f, machine.StrongARM()) {
		t.Fatal("o ran after register assignment")
	}
}

// --- compulsory passes ---------------------------------------------------------------

func TestFixEntryExitSavesCalleeSave(t *testing.T) {
	f := newAssigned("fee")
	f.Returns = true
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewMov(rtl.RegR4, rtl.Imm(11)),
		rtl.NewMov(rtl.RegR0, rtl.R(rtl.RegR4)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	opt.FixEntryExit(f)
	s := f.String()
	if !strings.Contains(s, "M[r[sp]") {
		t.Fatalf("no save of r4:\n%s", s)
	}
	first := f.Entry().Instrs[0]
	if first.Op != rtl.OpStore || !first.A.IsReg(rtl.RegR4) {
		t.Fatalf("entry does not save r4:\n%s", s)
	}
	// The restore sits right before the return.
	instrs := f.Blocks[len(f.Blocks)-1].Instrs
	load := instrs[len(instrs)-2]
	if load.Op != rtl.OpLoad || load.Dst != rtl.RegR4 {
		t.Fatalf("no restore before return:\n%s", s)
	}
}

func TestRegAssignIdempotent(t *testing.T) {
	f := rtl.NewFunc("ri", 1, true)
	t1 := f.NewReg()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewALU(rtl.OpAdd, t1, rtl.R(rtl.RegR0), rtl.Imm(1)),
		rtl.NewMov(rtl.RegR0, rtl.R(t1)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	opt.RegAssign(f)
	if !f.RegAssigned {
		t.Fatal("flag not set")
	}
	before := f.String()
	opt.RegAssign(f)
	if f.String() != before {
		t.Fatal("second register assignment changed the code")
	}
}
