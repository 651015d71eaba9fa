package opt_test

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// These tests pin the exact behaviour of the three sub-passes of
// phase c (global constant propagation, copy propagation, CSE) on
// hand-built RTL — especially the memory-disambiguation rules that the
// register allocation phase depends on.

func cseFunc() *rtl.Func {
	f := rtl.NewFunc("t", 0, true)
	f.RegAssigned = true
	return f
}

func apply(t *testing.T, f *rtl.Func) bool {
	t.Helper()
	active := (opt.CommonSubexprElim{}).Apply(f, machine.StrongARM())
	if err := rtl.Validate(f); err != nil {
		t.Fatalf("invalid after c: %v\n%s", err, f)
	}
	return active
}

func TestConstPropFoldsOperand(t *testing.T) {
	// The paper's Figure 3 left column: r2=1; r3=r4+r2 becomes
	// r3=r4+1 while the (now dead) move stays for h.
	f := cseFunc()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewMov(rtl.RegR2, rtl.Imm(1)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR3, rtl.R(rtl.RegR4), rtl.R(rtl.RegR2)),
		rtl.NewMov(rtl.RegR0, rtl.R(rtl.RegR3)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	if !apply(t, f) {
		t.Fatal("dormant")
	}
	if !strings.Contains(f.String(), "r[3]=r[4]+1;") {
		t.Fatalf("operand not folded:\n%s", f)
	}
}

func TestConstPropRespectsImmediateLimits(t *testing.T) {
	// 100000 exceeds the add-immediate range: the operand must stay in
	// a register.
	f := cseFunc()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewMov(rtl.RegR2, rtl.Imm(100000)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR4), rtl.R(rtl.RegR2)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	apply(t, f)
	if !strings.Contains(f.String(), "r[0]=r[4]+r[2];") {
		t.Fatalf("illegal immediate folded anyway:\n%s", f)
	}
}

func TestConstPropReverseSubtract(t *testing.T) {
	// c - r becomes rsb when only the first operand is constant.
	f := cseFunc()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewMov(rtl.RegR2, rtl.Imm(100)),
		rtl.NewALU(rtl.OpSub, rtl.RegR0, rtl.R(rtl.RegR2), rtl.R(rtl.RegR4)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	if !apply(t, f) {
		t.Fatal("dormant")
	}
	if !strings.Contains(f.String(), "r[0]=100-r[4];") {
		t.Fatalf("no reverse-subtract:\n%s", f)
	}
}

func TestConstPropMeetsAtJoin(t *testing.T) {
	// r2 is 5 on both arms: the join may fold it. r3 differs: it must
	// not.
	f := cseFunc()
	a := f.Entry()
	arm2 := f.AddBlock()
	join := f.AddBlock()
	a.Instrs = append(a.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelLT, arm2.ID))
	arm1 := f.NewDetachedBlock()
	f.InsertBlockAfter(0, arm1)
	arm1.Instrs = append(arm1.Instrs,
		rtl.NewMov(rtl.RegR2, rtl.Imm(5)),
		rtl.NewMov(rtl.RegR3, rtl.Imm(1)),
		rtl.NewJmp(join.ID))
	arm2.Instrs = append(arm2.Instrs,
		rtl.NewMov(rtl.RegR2, rtl.Imm(5)),
		rtl.NewMov(rtl.RegR3, rtl.Imm(2)))
	join.Instrs = append(join.Instrs,
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR4), rtl.R(rtl.RegR2)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR1, rtl.R(rtl.RegR4), rtl.R(rtl.RegR3)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	if !apply(t, f) {
		t.Fatal("dormant")
	}
	s := f.String()
	if !strings.Contains(s, "r[0]=r[4]+5;") {
		t.Fatalf("agreeing constant not folded at the join:\n%s", s)
	}
	if !strings.Contains(s, "r[1]=r[4]+r[3];") {
		t.Fatalf("disagreeing constant folded at the join:\n%s", s)
	}
}

func TestCopyPropThroughChain(t *testing.T) {
	f := cseFunc()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewALU(rtl.OpAdd, rtl.RegR1, rtl.R(rtl.RegR0), rtl.Imm(1)),
		rtl.NewMov(rtl.RegR2, rtl.R(rtl.RegR1)),
		rtl.NewMov(rtl.RegR3, rtl.R(rtl.RegR2)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR3), rtl.R(rtl.RegR3)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	if !apply(t, f) {
		t.Fatal("dormant")
	}
	// Uses of r3 collapse to the chain root r1.
	if !strings.Contains(f.String(), "r[0]=r[1]+r[1];") {
		t.Fatalf("copy chain not propagated:\n%s", f)
	}
}

func TestCopyPropKilledByRedefinition(t *testing.T) {
	f := cseFunc()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewMov(rtl.RegR2, rtl.R(rtl.RegR1)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR1, rtl.R(rtl.RegR1), rtl.Imm(1)), // kills the copy
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR2), rtl.Imm(0)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	apply(t, f)
	if strings.Contains(f.String(), "r[0]=r[1]+0;") {
		t.Fatalf("use rewritten to a redefined source:\n%s", f)
	}
}

func TestCSEEliminatesRedundantExpression(t *testing.T) {
	f := cseFunc()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewALU(rtl.OpAdd, rtl.RegR2, rtl.R(rtl.RegR0), rtl.R(rtl.RegR1)),
		rtl.NewALU(rtl.OpMul, rtl.RegR3, rtl.R(rtl.RegR2), rtl.R(rtl.RegR2)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR4, rtl.R(rtl.RegR0), rtl.R(rtl.RegR1)), // redundant
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR3), rtl.R(rtl.RegR4)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	if !apply(t, f) {
		t.Fatal("dormant")
	}
	if !strings.Contains(f.String(), "r[4]=r[2];") {
		t.Fatalf("redundant add not replaced by a move:\n%s", f)
	}
}

func TestCSECommutativeCanonicalization(t *testing.T) {
	// a+b and b+a are the same expression.
	f := cseFunc()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewALU(rtl.OpAdd, rtl.RegR2, rtl.R(rtl.RegR0), rtl.R(rtl.RegR1)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR3, rtl.R(rtl.RegR1), rtl.R(rtl.RegR0)),
		rtl.NewALU(rtl.OpAnd, rtl.RegR0, rtl.R(rtl.RegR2), rtl.R(rtl.RegR3)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	if !apply(t, f) {
		t.Fatal("dormant")
	}
	if !strings.Contains(f.String(), "r[3]=r[2];") {
		t.Fatalf("commuted expression not recognized:\n%s", f)
	}
	// Subtraction must NOT commute.
	g := cseFunc()
	g.Entry().Instrs = append(g.Entry().Instrs,
		rtl.NewALU(rtl.OpSub, rtl.RegR2, rtl.R(rtl.RegR0), rtl.R(rtl.RegR1)),
		rtl.NewALU(rtl.OpSub, rtl.RegR3, rtl.R(rtl.RegR1), rtl.R(rtl.RegR0)),
		rtl.NewALU(rtl.OpAnd, rtl.RegR0, rtl.R(rtl.RegR2), rtl.R(rtl.RegR3)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	apply(t, g)
	if strings.Contains(g.String(), "r[3]=r[2];") {
		t.Fatalf("subtraction wrongly commuted:\n%s", g)
	}
}

func TestCSERedundantLoadScalarSlot(t *testing.T) {
	// A scalar slot load survives a call (the callee cannot touch a
	// slot whose address is never taken); a non-scalar slot load does
	// not.
	build := func(scalar bool) *rtl.Func {
		f := cseFunc()
		f.AddSlot("x", 4, scalar)
		f.Entry().Instrs = append(f.Entry().Instrs,
			rtl.NewLoad(rtl.RegR4, rtl.RegSP, 0),
			rtl.Instr{Op: rtl.OpCall, Sym: f.Intern("g")},
			rtl.NewLoad(rtl.RegR5, rtl.RegSP, 0),
			rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR4), rtl.R(rtl.RegR5)),
			rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
		return f
	}
	sf := build(true)
	if !apply(t, sf) {
		t.Fatal("dormant on scalar-slot reload")
	}
	if !strings.Contains(sf.String(), "r[5]=r[4];") {
		t.Fatalf("scalar reload not eliminated across the call:\n%s", sf)
	}
	nf := build(false)
	apply(t, nf)
	if strings.Contains(nf.String(), "r[5]=r[4];") {
		t.Fatalf("non-scalar reload wrongly eliminated across a call:\n%s", nf)
	}
}

func TestCSEStoreKillsAliasedLoad(t *testing.T) {
	// A store through an arbitrary pointer kills loads from memory
	// that might alias (everything except scalar slots).
	f := cseFunc()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewLoad(rtl.RegR4, rtl.RegR1, 8),
		rtl.NewStore(rtl.RegR2, rtl.RegR3, 0), // unknown pointer
		rtl.NewLoad(rtl.RegR5, rtl.RegR1, 8),  // must stay a load
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR4), rtl.R(rtl.RegR5)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	apply(t, f)
	if strings.Contains(f.String(), "r[5]=r[4];") {
		t.Fatalf("aliased reload wrongly eliminated:\n%s", f)
	}
}

func TestCSELoadAvailableAcrossPureCode(t *testing.T) {
	f := cseFunc()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewLoad(rtl.RegR4, rtl.RegR1, 8),
		rtl.NewALU(rtl.OpAdd, rtl.RegR2, rtl.R(rtl.RegR4), rtl.Imm(1)),
		rtl.NewLoad(rtl.RegR5, rtl.RegR1, 8), // same location, nothing between
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR2), rtl.R(rtl.RegR5)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	if !apply(t, f) {
		t.Fatal("dormant")
	}
	if !strings.Contains(f.String(), "r[5]=r[4];") {
		t.Fatalf("redundant load not eliminated:\n%s", f)
	}
}

func TestCSERecomputationIntoSameRegisterRemoved(t *testing.T) {
	// Loading the same scalar slot into the same register twice: the
	// second load is a complete no-op and disappears.
	f := cseFunc()
	f.AddSlot("x", 4, true)
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewLoad(rtl.RegR4, rtl.RegSP, 0),
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR4), rtl.Imm(1)),
		rtl.NewLoad(rtl.RegR4, rtl.RegSP, 0),
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR0), rtl.R(rtl.RegR4)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	before := f.NumInstrs()
	if !apply(t, f) {
		t.Fatal("dormant")
	}
	if f.NumInstrs() != before-1 {
		t.Fatalf("no-op recomputation not removed:\n%s", f)
	}
}
