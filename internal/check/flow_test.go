package check

import (
	"testing"

	"repro/internal/rtl"
)

func parseFunc(t *testing.T, text string) *rtl.Func {
	t.Helper()
	f, err := rtl.ParseFunc(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func TestMustAssigned(t *testing.T) {
	// L0 branches to L2, falls into L1, both join at L3.
	f := parseFunc(t, `
diamond(1):
L0:
	IC=r[0]?0;
	PC=IC<0,L2;
L1:
	r[32]=r[0]+1;
	PC=L3;
L2:
	r[33]=r[0]+2;
L3:
	RET;
`)
	g := rtl.ComputeCFG(f)
	n := len(f.Blocks)
	facts := mustAssigned(g, func(_ int, s []uint64) {
		setReg(s, rtl.RegSP)
		setReg(s, 0) // r0 = the single argument
	}, int(f.NextPseudo))
	in := func(b int) rtl.RegSet { return rtl.SetOver[rtl.Reg](facts.At(b)) }
	out := func(b int) rtl.RegSet { return rtl.SetOver[rtl.Reg](facts.At(n + b)) }
	join := in(3)
	if !join.Has(0) || !join.Has(rtl.RegSP) {
		t.Fatalf("entry registers must reach the join")
	}
	// r32 is assigned only on the fall-through arm, r33 only on the
	// taken arm: neither is must-assigned at the join.
	if join.Has(32) || join.Has(33) {
		t.Fatalf("one-armed definitions must not be must-assigned at the join")
	}
	if o1, o2 := out(1), out(2); !o1.Has(32) || !o2.Has(33) {
		t.Fatalf("arm-local definitions must be assigned at arm exits")
	}
}

func TestAvailableCopies(t *testing.T) {
	f := parseFunc(t, `
copies(2):
L0:
	r[32]=r[0];
	IC=r[1]?0;
	PC=IC<0,L2;
L1:
	r[33]=r[32]+1;
	PC=L3;
L2:
	r[32]=r[1];
L3:
	RET;
`)
	g := rtl.ComputeCFG(f)
	ac := availableCopies(g)
	if !ac.has(ac.fl.At(1), 32, 0) {
		t.Fatalf("copy (r32,r0) must be available in the fall-through arm")
	}
	if ac.has(ac.fl.At(3), 32, 0) {
		t.Fatalf("copy (r32,r0) must be killed at the join (redefined on the taken arm)")
	}
	// Replaying the entry block's first instruction from its entry state.
	s := append([]uint64(nil), ac.fl.At(0)...)
	if ac.has(s, 32, 0) {
		t.Fatalf("no copy is available at function entry")
	}
	ac.step(s, &f.Blocks[0].Instrs[0])
	if !ac.has(s, 0, 32) {
		t.Fatalf("copy (r32,r0) must be available right after the move")
	}
	if ac.has(s, 33, 0) {
		t.Fatalf("a pair no move establishes is never available")
	}
}
