package fingerprint_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// fig5Variant builds the paper's Figure 5 loop
//
//	sum = 0; for (i = 0; i < 1000; i++) sum += a[i];
//
// in its optimized form, with the register numbers and block label the
// caller chooses — Figure 5(b) uses r10/r12/L3, Figure 5(c) r11/r10/L5.
func fig5Variant(sum, base, lbl int) *rtl.Func {
	f := rtl.NewFunc("fig5", 0, false)
	f.RegAssigned = true
	rSum := rtl.Reg(sum)
	rBase := rtl.Reg(base)
	entry := f.Entry()
	entry.Instrs = append(entry.Instrs,
		rtl.NewMov(rSum, rtl.Imm(0)),
		rtl.Instr{Op: rtl.OpMovHi, Dst: rBase, Sym: f.Intern("a")},
		rtl.Instr{Op: rtl.OpAddLo, Dst: rBase, A: rtl.R(rBase), Sym: f.Intern("a")},
		rtl.NewMov(rtl.RegR1, rtl.R(rBase)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR9, rtl.R(rBase), rtl.Imm(4000)),
	)
	// Give the loop block the desired label by burning IDs.
	for f.NextBlockID < lbl {
		f.NextBlockID++
	}
	loop := f.AddBlock()
	loop.Instrs = append(loop.Instrs,
		rtl.NewLoad(rtl.RegR8, rtl.RegR1, 0),
		rtl.NewALU(rtl.OpAdd, rSum, rtl.R(rSum), rtl.R(rtl.RegR8)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR1, rtl.R(rtl.RegR1), rtl.Imm(4)),
		rtl.NewCmp(rtl.R(rtl.RegR1), rtl.R(rtl.RegR9)),
		rtl.NewBranch(rtl.RelLT, loop.ID),
	)
	exit := f.AddBlock()
	exit.Instrs = append(exit.Instrs, rtl.Instr{Op: rtl.OpRet})
	return f
}

// TestFig5RemappingEquivalence reproduces Figure 5: two instances that
// differ only in register numbers and block labels — the result of
// running register allocation and code motion in different orders —
// are detected as identical by the canonical remapping, and their
// three-value fingerprints agree.
func TestFig5RemappingEquivalence(t *testing.T) {
	b := fig5Variant(10, 12, 3) // Figure 5(b): regalloc before code motion
	c := fig5Variant(11, 10, 5) // Figure 5(c): code motion before regalloc

	if b.String() == c.String() {
		t.Fatal("test premise broken: the variants should differ textually")
	}
	if fingerprint.KeyOf(b) != fingerprint.KeyOf(c) {
		t.Fatalf("canonical keys differ:\n%s\nvs\n%s", b, c)
	}
	fb, fc := fingerprint.Of(b), fingerprint.Of(c)
	if fb != fc {
		t.Fatalf("fingerprints differ: %+v vs %+v", fb, fc)
	}

	// Figure 5(d): both canonicalize to the same instance.
	cb := fingerprint.Canonicalize(b)
	cc := fingerprint.Canonicalize(c)
	if cb.String() != cc.String() {
		t.Fatalf("canonical forms differ:\n%svs\n%s", cb, cc)
	}
}

// TestDifferentCodeDifferentKey checks that a real difference is not
// masked by the remapping.
func TestDifferentCodeDifferentKey(t *testing.T) {
	a := fig5Variant(10, 12, 3)
	b := fig5Variant(10, 12, 3)
	// Change the loop increment: different code.
	loop := b.Blocks[1]
	loop.Instrs[2].B = rtl.Imm(8)
	if fingerprint.KeyOf(a) == fingerprint.KeyOf(b) {
		t.Fatal("distinct instances have the same canonical key")
	}
}

// TestCanonicalizeIdempotent: canonicalizing twice is a no-op.
func TestCanonicalizeIdempotent(t *testing.T) {
	f := fig5Variant(11, 10, 5)
	once := fingerprint.Canonicalize(f)
	twice := fingerprint.Canonicalize(once)
	if once.String() != twice.String() {
		t.Fatalf("canonicalization is not idempotent:\n%svs\n%s", once, twice)
	}
}

// TestCanonicalKeyInvariantUnderRenaming is the property-based version
// of Figure 5: any consistent bijective renaming of the pseudo
// registers of a compiled function leaves the canonical key unchanged.
func TestCanonicalKeyInvariantUnderRenaming(t *testing.T) {
	src := `
int a[8];
int f(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) s += a[i] * 3;
    return s;
}`
	prog, err := mc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	base := prog.Func("f")
	want := fingerprint.KeyOf(base)

	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := base.Clone()
		// Build a random bijection over the pseudo registers.
		var pseudos []rtl.Reg
		g.UsedRegs().ForEach(func(r rtl.Reg) {
			if r.IsPseudo() {
				pseudos = append(pseudos, r)
			}
		})
		// Deterministic order before shuffling.
		for i := 0; i < len(pseudos); i++ {
			for j := i + 1; j < len(pseudos); j++ {
				if pseudos[j] < pseudos[i] {
					pseudos[i], pseudos[j] = pseudos[j], pseudos[i]
				}
			}
		}
		perm := rng.Perm(len(pseudos))
		// Rename via a disjoint temporary range to keep the bijection.
		tmp := g.NextPseudo + 1000
		for i, r := range pseudos {
			for _, b := range g.Blocks {
				for k := range b.Instrs {
					b.Instrs[k].RenameReg(r, tmp+rtl.Reg(i))
				}
			}
		}
		for i := range pseudos {
			for _, b := range g.Blocks {
				for k := range b.Instrs {
					b.Instrs[k].RenameReg(tmp+rtl.Reg(i), pseudos[perm[i]])
				}
			}
		}
		return fingerprint.KeyOf(g) == want
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestControlFlowKeyStableAcrossDataChanges: the CF key tracks shape,
// not instruction contents.
func TestControlFlowKeyStableAcrossDataChanges(t *testing.T) {
	a := fig5Variant(10, 12, 3)
	b := fig5Variant(10, 12, 3)
	b.Blocks[1].Instrs[2].B = rtl.Imm(8) // different increment, same CFG
	if fingerprint.ControlFlowKey(a) != fingerprint.ControlFlowKey(b) {
		t.Fatal("control-flow key changed although the CFG is identical")
	}
	// Optimizations that restructure control flow must change it.
	c := fig5Variant(10, 12, 3)
	d := machine.StrongARM()
	if !(opt.LoopUnrolling{}).Apply(c, d) {
		t.Skip("unrolling dormant on this shape")
	}
	if fingerprint.ControlFlowKey(a) == fingerprint.ControlFlowKey(c) {
		t.Fatal("control-flow key identical after unrolling")
	}
}

// TestEncodeDistinguishesOperands guards the encoder against aliasing
// immediate and register operands.
func TestEncodeDistinguishesOperands(t *testing.T) {
	mk := func(b rtl.Operand) *rtl.Func {
		f := rtl.NewFunc("e", 0, true)
		f.Entry().Instrs = append(f.Entry().Instrs,
			rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR1), b),
			rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)},
		)
		return f
	}
	a := mk(rtl.R(rtl.RegR2))
	b := mk(rtl.Imm(2))
	if fingerprint.KeyOf(a) == fingerprint.KeyOf(b) {
		t.Fatal("register and immediate operands encode identically")
	}
	if !strings.Contains(a.String(), "r[2]") {
		t.Fatal("unexpected test setup")
	}
}
