package machine_test

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/rtl"
)

func TestImmediateRanges(t *testing.T) {
	d := machine.StrongARM()
	cases := []struct {
		op   rtl.Op
		imm  int32
		want bool
	}{
		{rtl.OpMov, 0, true},
		{rtl.OpMov, 65535, true},
		{rtl.OpMov, -65535, true},
		{rtl.OpMov, 65536, false},
		{rtl.OpAdd, 4095, true},
		{rtl.OpAdd, 4096, false},
		{rtl.OpAdd, -4095, true},
		{rtl.OpSub, 4095, true},
		{rtl.OpAnd, 255, true},
		{rtl.OpAnd, 256, false},
		{rtl.OpAnd, -1, false},
		{rtl.OpShl, 31, true},
		{rtl.OpShl, 32, false},
		{rtl.OpShl, -1, false},
		{rtl.OpMul, 2, false}, // no immediate multiply: q's raison d'etre
		{rtl.OpDiv, 2, false},
		{rtl.OpCmp, 4095, true},
	}
	for _, c := range cases {
		if got := d.LegalImm(c.op, c.imm); got != c.want {
			t.Errorf("LegalImm(%v, %d) = %v, want %v", c.op, c.imm, got, c.want)
		}
	}
	if d.LegalImm(rtl.OpMov, -2147483648) {
		t.Error("MinInt32 must not be a legal immediate")
	}
}

func TestLegalInstructions(t *testing.T) {
	d := machine.StrongARM()
	ok := []rtl.Instr{
		rtl.NewMov(rtl.RegR0, rtl.Imm(42)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR1), rtl.Imm(100)),
		rtl.NewLoad(rtl.RegR0, rtl.RegSP, 4092),
		rtl.NewStore(rtl.RegR0, rtl.RegSP, 8),
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		{Op: rtl.OpMovHi, Dst: rtl.RegR0, Sym: "g"},
		rtl.NewBranch(rtl.RelLT, 0),
	}
	for _, in := range ok {
		in := in
		if !d.Legal(&in) {
			t.Errorf("should be legal: %s", in.String())
		}
	}
	bad := []rtl.Instr{
		rtl.NewALU(rtl.OpMul, rtl.RegR0, rtl.R(rtl.RegR1), rtl.Imm(3)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR1), rtl.Imm(100000)),
		rtl.NewLoad(rtl.RegR0, rtl.RegSP, 5000),
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.Imm(1), rtl.Imm(2)), // A must be a register
	}
	for _, in := range bad {
		in := in
		if d.Legal(&in) {
			t.Errorf("should be illegal: %s", in.String())
		}
	}
}

// TestCheckWordsEveryRule holds each message the verifier prints for an
// unencodable instruction, one per rule.
func TestCheckWordsEveryRule(t *testing.T) {
	d := machine.StrongARM()
	cases := []struct {
		in   rtl.Instr
		want string
	}{
		{rtl.NewMov(rtl.RegR0, rtl.Imm(70000)), "strongarm: move immediate 70000 exceeds ±65535"},
		{rtl.Instr{Op: rtl.OpLoad, Dst: rtl.RegR0, A: rtl.Imm(4)}, "strongarm: load base must be a register"},
		{rtl.NewLoad(rtl.RegR0, rtl.RegSP, -5000), "strongarm: load displacement -5000 exceeds ±4095"},
		{rtl.Instr{Op: rtl.OpStore, A: rtl.Imm(1), B: rtl.R(rtl.RegSP)}, "strongarm: store value and base must be registers"},
		{rtl.NewStore(rtl.RegR0, rtl.RegSP, 4096), "strongarm: store displacement 4096 exceeds ±4095"},
		{rtl.NewCmp(rtl.Imm(1), rtl.R(rtl.RegR0)), "strongarm: first comparand must be a register"},
		{rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(5000)), "strongarm: compare immediate 5000 exceeds ±4095"},
		{rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.Imm(1), rtl.Imm(2)), "strongarm: add operand A must be a register"},
		{rtl.NewALU(rtl.OpMul, rtl.RegR0, rtl.R(rtl.RegR1), rtl.Imm(3)), "strongarm: mul has no encoding for immediate 3"},
		{rtl.Instr{Op: rtl.Op(200)}, "strongarm: unknown opcode " + rtl.Op(200).String()},
	}
	for _, c := range cases {
		err := d.Check(&c.in)
		if err == nil || err.Error() != c.want {
			t.Errorf("Check = %v, want %q", err, c.want)
		}
		if d.Legal(&c.in) {
			t.Errorf("Legal = true where Check says %v", err)
		}
	}
	ok := rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR1), rtl.Imm(4))
	if err := d.Check(&ok); err != nil || !d.Legal(&ok) {
		t.Errorf("a legal add: Check %v, Legal %v", err, d.Legal(&ok))
	}
}

// TestLegalDoesNotAllocate: instruction selection asks Legal about every
// combination it tries and rejects most of them, so a rejection must
// not build the error Check would return.
func TestLegalDoesNotAllocate(t *testing.T) {
	d := machine.StrongARM()
	bad := rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR1), rtl.Imm(100000))
	if n := testing.AllocsPerRun(100, func() {
		if d.Legal(&bad) {
			t.Fatal("an out-of-range add immediate is legal")
		}
	}); n != 0 {
		t.Fatalf("Legal on an illegal instruction allocates %.1f times, want 0", n)
	}
}

func TestCostOrdering(t *testing.T) {
	d := machine.StrongARM()
	mul := rtl.NewALU(rtl.OpMul, rtl.RegR0, rtl.R(rtl.RegR1), rtl.R(rtl.RegR2))
	div := rtl.NewALU(rtl.OpDiv, rtl.RegR0, rtl.R(rtl.RegR1), rtl.R(rtl.RegR2))
	add := rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR1), rtl.R(rtl.RegR2))
	shl := rtl.NewALU(rtl.OpShl, rtl.RegR0, rtl.R(rtl.RegR1), rtl.Imm(3))
	if !(d.Cost(&div) > d.Cost(&mul) && d.Cost(&mul) > d.Cost(&add)) {
		t.Error("cost model must rank div > mul > add")
	}
	if d.Cost(&shl) != d.Cost(&add) {
		t.Error("shifts should cost like adds")
	}
	// A shift+add sequence must beat one multiply, or strength
	// reduction can never fire.
	if d.Cost(&shl)+d.Cost(&add) >= d.Cost(&mul)+1 {
		t.Error("strength reduction can never be profitable under this cost model")
	}
}

// TestLegalImmSymmetricForMov: property — legality of Mov immediates
// depends only on magnitude.
func TestLegalImmSymmetricForMov(t *testing.T) {
	d := machine.StrongARM()
	prop := func(v int32) bool {
		if v == -2147483648 {
			return true // unrepresentable magnitude, handled separately
		}
		neg := v
		if neg > 0 {
			neg = -v
		} else {
			neg = v
			v = -v
		}
		return d.LegalImm(rtl.OpMov, v) == d.LegalImm(rtl.OpMov, neg)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
