package opt

// Apply's turn schedule: one constant-propagation turn, then copy
// propagation and CSE in turn until both are dormant, where a dormant
// CSE turn after a copy turn that rewrote no move counts for both. The
// reference (referenceCSE) keeps the three-turn schedule, so checkPhaseC
// comparing the two is the proof that the schedules agree; these tests
// pin why the remaining proof turns cannot be dropped, and the
// constant-propagation shapes the single constant turn rests on.

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/rtl"
)

func parseFunc(t *testing.T, text string) *rtl.Func {
	t.Helper()
	f, err := rtl.ParseFunc(text)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// twoTurns runs one sub-pass twice in a row on a clone of f and
// reports whether each turn changed the code.
func twoTurns(f *rtl.Func, pass func(*rtl.Func, *rtl.CFG, *cseScratch) bool) (first, second bool) {
	f = f.Clone()
	g := rtl.ComputeCFG(f)
	sc := new(cseScratch)
	sc.reset(f)
	return pass(f, g, sc), pass(f, g, sc)
}

// phaseCSchedule applies c to a clone of f, checks it against the
// reference (checkPhaseC) and requires the result to contain want.
func phaseCSchedule(t *testing.T, what string, f *rtl.Func, want ...string) {
	t.Helper()
	d := machine.StrongARM()
	checkPhaseC(t, what, f, d)
	got := f.Clone()
	CommonSubexprElim{}.Apply(got, d)
	for _, w := range want {
		if !strings.Contains(got.String(), w) {
			t.Fatalf("%s: no %q in\n%s", what, w, got)
		}
	}
}

// CSE is not idempotent. The first turn removes the second r4=r0+r1
// (r4 already holds it), but its solve killed r4+1 at that instruction,
// so L1 sees no r4+1 and keeps r6=r4+1; only a second turn, solving the
// code without the recomputation, finds r4+1 in r5. A schedule that
// stopped at the dormant copy turn after the first CSE turn ("the
// first dormant turn after both have run") would return r6=r4+1 — an
// application that a repeated c then changes, which breaks the
// enumeration's rule that no phase is active twice in a row.
func TestPhaseCKeepsCSEProofTurn(t *testing.T) {
	f := parseFunc(t, `
cse(2):
L0:
	r[4]=r[0]+r[1];
	r[5]=r[4]+1;
	r[4]=r[0]+r[1];
	PC=L1;
L1:
	r[6]=r[4]+1;
	r[0]=r[6]+r[5];
	RET r[0];
`)
	first, second := twoTurns(f, func(f *rtl.Func, g *rtl.CFG, sc *cseScratch) bool {
		return eliminateCommonSubexprs(f, g, &sc.exprs)
	})
	if !first || !second {
		t.Fatalf("two CSE turns changed code %v, %v; want both", first, second)
	}
	phaseCSchedule(t, "CSE proof turn", f, "r[6]=r[5];")
}

// Copy propagation is not idempotent either. The first turn rewrites
// r1=r5 (r5 a copy of r1) into the self-move r1=r1; its solve had
// recorded r1 as a copy of r5 there, so on L3's entry r4 was r5's copy
// on one path and r1's on the other, and nothing was known. Over the
// self-move, r4 is r1's copy on both paths, and a second turn rewrites
// r0=r4 into r0=r1. A schedule that stopped at the first dormant CSE
// turn would return r0=r4; Apply runs the second copy turn because the
// first rewrote a move.
func TestPhaseCKeepsCopyProofTurn(t *testing.T) {
	f := parseFunc(t, `
copies(2):
L0:
	IC=r[0]?0;
	PC=IC==0,L2;
L1:
	r[5]=r[1];
	r[1]=r[5];
	r[4]=r[1];
	PC=L3;
L2:
	r[4]=r[1];
L3:
	r[0]=r[4];
	RET r[0];
`)
	first, second := twoTurns(f, func(f *rtl.Func, g *rtl.CFG, sc *cseScratch) bool {
		changed, _ := propagateCopies(f, g, &sc.regs)
		return changed
	})
	if !first || !second {
		t.Fatalf("two copy turns changed code %v, %v; want both", first, second)
	}
	phaseCSchedule(t, "copy proof turn", f, "r[1]=r[1];", "r[0]=r[1];")
}

// TestPhaseCConstantTurnEdges runs the shapes the single constant turn
// is argued on: checkPhaseC fails if a constant turn after the first
// changes code, and each row pins what c leaves.
func TestPhaseCConstantTurnEdges(t *testing.T) {
	for _, row := range []struct {
		name, code string
		want       []string
	}{{
		// r2 copies r1, which is 5 on one incoming path only: the use
		// becomes r1 and stays a register.
		"constant on one path", `
L0:
	IC=r[0]?0;
	PC=IC==0,L2;
L1:
	r[1]=5;
	PC=L3;
L2:
	r[1]=r[0]+1;
L3:
	r[2]=r[1];
	r[3]=r[2]+r[0];
	r[0]=r[3];
	RET r[0];
`, []string{"r[3]=r[1]+r[0];"},
	}, {
		// The recomputation becomes a move out of the holder r4 and
		// the use of r5 a use of r4: neither holds a constant.
		"move out of a holder", `
L0:
	r[2]=3;
	r[4]=r[0]+r[2];
	r[5]=r[0]+r[2];
	r[6]=r[5]-r[1];
	r[0]=r[6];
	RET r[0];
`, []string{"r[4]=r[0]+3;", "r[5]=r[4];", "r[6]=r[4]-r[1];"},
	}, {
		// 5000 is a legal move immediate but not an add's, and a
		// multiply takes none: r3 becomes 5000 and is read as r3.
		"illegal immediate", `
L0:
	r[2]=5000;
	r[3]=r[2];
	r[4]=r[3]+r[0];
	r[5]=r[4]*r[3];
	r[0]=r[5];
	RET r[0];
`, []string{"r[3]=5000;", "r[4]=r[3]+r[0];", "r[5]=r[4]*r[3];"},
	}, {
		// A constant first operand of a subtraction through a copy
		// turns it into a reverse subtract.
		"sub to rsb", `
L0:
	r[2]=7;
	r[3]=r[2];
	r[4]=r[3]-r[1];
	r[0]=r[4];
	RET r[0];
`, []string{"r[3]=7;", "r[4]=7-r[1];"},
	}} {
		phaseCSchedule(t, row.name, parseFunc(t, "edge(2):"+row.code), row.want...)
	}
}

// FuzzPhaseC holds c to its reference (checkPhaseC, with its turn
// properties) on small register-assigned functions decoded from the
// input by decodePhaseC.
func FuzzPhaseC(f *testing.F) {
	for _, seed := range phaseCSeeds() {
		f.Add(seed)
	}
	d := machine.StrongARM()
	f.Fuzz(func(t *testing.T, data []byte) {
		fn := decodePhaseC(data)
		if rtl.Validate(fn) != nil {
			t.Skip()
		}
		checkPhaseC(t, "decoded", fn, d)
	})
}

// Instruction kinds of decodePhaseC's four-byte groups [kind, x, y, z],
// selected by kind%8.
const (
	fzMovReg = iota // r[x] = r[y]
	fzMovImm        // r[x] = int8(y)
	fzALU           // r[x] = r[y] op B, op by kind>>3, B = z&31 if z&128 else r[z]
	fzALU2          // the same: ALU operations take two of the eight kinds
	fzLoad          // r[x] = the scalar slot z%2 if y is even, else M[r[y>>1]+4*(z%4)]
	fzStore         // the same addresses, stored from r[x]
	fzUnary         // r[x] = -r[y] or ~r[y], by z's low bit
	fzEnd           // end the block: if y is odd, IC=r[x]?B and a branch to block z; else a jump to block x
)

var fzALUOps = [...]rtl.Op{rtl.OpAdd, rtl.OpSub, rtl.OpRsb, rtl.OpMul, rtl.OpAnd, rtl.OpOr, rtl.OpXor, rtl.OpShl, rtl.OpShr, rtl.OpSar}

// decodePhaseC decodes data into a register-assigned function over
// r0–r7 and two scalar slots: the first byte picks 2–6 blocks, then
// each four-byte group (up to 96) is one instruction of the current
// block (the fz kinds). An fzEnd group in the last block is ignored,
// and the last block ends in RET r[0]. Targets are block numbers
// modulo the block count, so the result may fail rtl.Validate (a
// target only a dead block reaches).
func decodePhaseC(data []byte) *rtl.Func {
	f := rtl.NewFunc("fuzz", 2, true)
	f.RegAssigned = true
	slots := [2]int32{f.AddSlot("x", 4, true), f.AddSlot("y", 4, true)}
	n := 2
	if len(data) > 0 {
		n += int(data[0]) % 5
		data = data[1:]
	}
	for len(f.Blocks) < n {
		f.AddBlock()
	}
	reg := func(b byte) rtl.Reg { return rtl.RegR0 + rtl.Reg(b%8) }
	operand := func(b byte) rtl.Operand {
		if b&128 != 0 {
			return rtl.Imm(int32(b & 31))
		}
		return rtl.R(reg(b))
	}
	bi := 0
	for g := 0; g+4 <= len(data) && g < 4*96; g += 4 {
		kind, x, y, z := data[g], data[g+1], data[g+2], data[g+3]
		b := f.Blocks[bi]
		var in rtl.Instr
		switch kind % 8 {
		case fzMovReg:
			in = rtl.NewMov(reg(x), rtl.R(reg(y)))
		case fzMovImm:
			in = rtl.NewMov(reg(x), rtl.Imm(int32(int8(y))))
		case fzALU, fzALU2:
			in = rtl.NewALU(fzALUOps[int(kind>>3)%len(fzALUOps)], reg(x), rtl.R(reg(y)), operand(z))
		case fzLoad, fzStore:
			base, disp := rtl.RegSP, slots[z%2]
			if y&1 != 0 {
				base, disp = reg(y>>1), 4*int32(z%4)
			}
			if kind%8 == fzLoad {
				in = rtl.NewLoad(reg(x), base, disp)
			} else {
				in = rtl.NewStore(reg(x), base, disp)
			}
		case fzUnary:
			in = rtl.Instr{Op: rtl.OpNeg + rtl.Op(z&1), Dst: reg(x), A: rtl.R(reg(y))}
		case fzEnd:
			if bi == n-1 {
				continue
			}
			if y&1 != 0 {
				b.Instrs = append(b.Instrs, rtl.NewCmp(rtl.R(reg(x)), operand(z)),
					rtl.NewBranch(rtl.Rel((kind>>3)%6), f.Blocks[int(z)%n].ID))
			} else {
				b.Instrs = append(b.Instrs, rtl.NewJmp(f.Blocks[int(x)%n].ID))
			}
			bi++
			continue
		}
		b.Instrs = append(b.Instrs, in)
	}
	last := f.Blocks[n-1]
	last.Instrs = append(last.Instrs, rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	return f
}

// phaseCSeeds encodes the two proof-turn counterexamples and the "many
// value sites" shape of TestPhaseCMatchesReference for decodePhaseC.
func phaseCSeeds() [][]byte {
	ins := func(kind, x, y, z byte) []byte { return []byte{kind, x, y, z} }
	add := func(dst, a, b byte) []byte { return ins(fzALU, dst, a, b) }
	cat := func(blocks byte, groups ...[]byte) []byte {
		out := []byte{blocks - 2}
		for _, g := range groups {
			out = append(out, g...)
		}
		return out
	}
	const imm = 128
	cse := cat(2,
		add(4, 0, 1), add(5, 4, imm|1), add(4, 0, 1), ins(fzEnd, 1, 0, 0), // L0, jump to L1
		add(6, 4, imm|1), add(0, 6, 5)) // L1
	copies := cat(4,
		ins(fzEnd, 0, 1, 2),                                                                         // L0: IC=r0?r0, branch to L2
		ins(fzMovReg, 5, 1, 0), ins(fzMovReg, 1, 5, 0), ins(fzMovReg, 4, 1, 0), ins(fzEnd, 3, 0, 0), // L1, jump to L3
		ins(fzMovReg, 4, 1, 0), ins(fzEnd, 3, 0, 0), // L2, jump to L3
		ins(fzMovReg, 0, 4, 0)) // L3
	var sites [][]byte
	for i := byte(0); i < 70; i++ {
		sites = append(sites, add(1+i%7, 0, imm|i%32))
		if i%7 == 6 {
			sites = append(sites, add(7, 0, imm|(i-3)%32), add(1+(i-1)%7, 0, imm|(i-1)%32))
		}
	}
	return [][]byte{cse, copies, cat(2, sites...)}
}
