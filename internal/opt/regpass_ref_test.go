package opt

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/mibench"
	"repro/internal/randprog"
	"repro/internal/rtl"
)

// refCheck compares a phase with its reference on one instance.
type refCheck func(t *testing.T, what string, f *rtl.Func, d *machine.Desc)

// checkForms runs check on f as it stands and, before register
// assignment, on its register-assigned form too: code over pseudo
// registers is wider than one mask word, and the assigned form is the
// one the enumeration's attempts see.
func checkForms(t *testing.T, what string, f *rtl.Func, d *machine.Desc, check refCheck) {
	t.Helper()
	check(t, what, f, d)
	if !f.RegAssigned {
		assigned := f.Clone()
		RegAssign(assigned)
		check(t, what+" (registers assigned)", assigned, d)
	}
}

// walkPhase walks a random sequence of active phases from f and runs
// check (checkForms) at every instance on the way.
func walkPhase(t *testing.T, name string, f *rtl.Func, seed int64, depth int, check refCheck) {
	t.Helper()
	d := machine.StrongARM()
	cur := f.Clone()
	rtl.Cleanup(cur)
	var st State
	rng := rand.New(rand.NewSource(seed))
	seq := ""
	for step := 0; step <= depth; step++ {
		checkForms(t, fmt.Sprintf("%s after %q", name, seq), cur, d, check)
		phases := All()
		rng.Shuffle(len(phases), func(i, j int) { phases[i], phases[j] = phases[j], phases[i] })
		moved := false
		for _, p := range phases {
			next, nst := cur.Clone(), st
			if Attempt(next, &nst, p, d) {
				cur, st, seq, moved = next, nst, seq+string(p.ID()), true
				break
			}
		}
		if !moved {
			return // a leaf of the space
		}
	}
}

// walkCorpus runs walkPhase over every function of the corpus and over
// generated programs.
func walkCorpus(t *testing.T, check refCheck) {
	walks, depth, programs := 2, 14, 24
	if testing.Short() {
		walks, depth, programs = 1, 10, 8
	}
	t.Run("corpus", func(t *testing.T) {
		fns, err := mibench.AllFunctions()
		if err != nil {
			t.Fatal(err)
		}
		// The benchmark's manifest names 29 of these; all of them walk.
		if len(fns) < 29 {
			t.Fatalf("the corpus has %d functions, the manifest 29", len(fns))
		}
		for _, tf := range fns {
			for w := 0; w < walks; w++ {
				walkPhase(t, tf.Bench+"/"+tf.Func.Name, tf.Func, int64(w), depth, check)
			}
		}
	})
	t.Run("generated", func(t *testing.T) {
		for seed := int64(0); seed < int64(programs); seed++ {
			p := randprog.New(seed, randprog.Config{})
			prog, err := mc.Compile(p.Source)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for w := 0; w < walks; w++ {
				walkPhase(t, fmt.Sprintf("randprog seed %d", seed), prog.Func(p.Entry), seed+int64(w)<<32, depth, check)
			}
		}
	})
}

// sameFunc reports whether two functions are equal in everything a
// phase may change: the code, the frame and the register counter.
func sameFunc(a, b *rtl.Func) bool {
	return sameCode(a, b) && slices.Equal(a.Slots, b.Slots) && a.FrameSize == b.FrameSize &&
		a.NextPseudo == b.NextPseudo && a.RegAssigned == b.RegAssigned
}

// matchesReference applies p and ref to clones of f and requires the
// same answer and the same function; p runs once on a plain clone and
// once on one that borrows f's analyses, as the enumeration's do.
func matchesReference(p Phase, ref func(*rtl.Func, *machine.Desc) bool) refCheck {
	return func(t *testing.T, what string, f *rtl.Func, d *machine.Desc) {
		t.Helper()
		want := f.Clone()
		wantActive := ref(want, d)
		for _, borrow := range []bool{false, true} {
			if borrow {
				f.ShareAnalyses()
			}
			got := f.Clone()
			gotActive := p.Apply(got, d)
			f.DropAnalyses()
			if gotActive != wantActive || !sameFunc(got, want) {
				t.Fatalf("%s: %c (borrowing %v) active=%v, the reference active=%v\n--- got\n%s%v\n--- want\n%s%v\n--- from\n%s%v",
					what, p.ID(), borrow, gotActive, wantActive, got, got.Slots, want, want.Slots, f, f.Slots)
			}
		}
	}
}

// regAssignMatchesReference assigns registers to clones of f by both
// colourings and requires the same function.
func regAssignMatchesReference(t *testing.T, what string, f *rtl.Func, _ *machine.Desc) {
	t.Helper()
	if f.RegAssigned {
		return
	}
	want, got := f.Clone(), f.Clone()
	refRegAssign(want)
	RegAssign(got)
	if !sameFunc(got, want) {
		t.Fatalf("%s: register assignment differs from the reference\n--- got\n%s%v\n--- want\n%s%v\n--- from\n%s",
			what, got, got.Slots, want, want.Slots, f)
	}
}

// chainBlock builds one straight-line block of more than 200
// instructions made of chained combinable pairs: an immediate moved into
// a register and folded into an add, the sum copied on and stored, an
// address formed and folded into a load, a scalar slot loaded and
// stored back, a load copied on past a store it must not cross, and now
// and then a call. Over hardware registers each
// value's register is reused a few instructions on; over pseudo
// registers every value has its own.
func chainBlock(hard bool, seed int64) *rtl.Func {
	f := rtl.NewFunc(fmt.Sprintf("chain%d", seed), 2, true)
	f.RegAssigned = hard
	slots := []int32{f.AddSlot("x", 4, true), f.AddSlot("y", 4, true), f.AddSlot("z", 4, true)}
	arr := f.AddSlot("arr", 64, false)
	rng := rand.New(rand.NewSource(seed))
	next := 0
	reg := func() rtl.Reg {
		next++
		if hard {
			return rtl.RegR2 + rtl.Reg(next%10)
		}
		return f.NewReg()
	}
	b := f.Entry()
	acc := rtl.RegR0
	for len(b.Instrs) < 220 {
		switch rng.Intn(6) {
		case 0: // constant into an add, the sum copied and stored
			c, s, m := reg(), reg(), reg()
			b.Instrs = append(b.Instrs,
				rtl.NewMov(c, rtl.Imm(int32(rng.Intn(100)))),
				rtl.NewALU(rtl.OpAdd, s, rtl.R(c), rtl.R(acc)),
				rtl.NewMov(m, rtl.R(s)),
				rtl.NewStore(m, rtl.RegSP, slots[rng.Intn(len(slots))]))
			acc = m
		case 1: // an address folded into a load, then into a store
			a, v := reg(), reg()
			b.Instrs = append(b.Instrs,
				rtl.NewALU(rtl.OpAdd, a, rtl.R(rtl.RegSP), rtl.Imm(arr)),
				rtl.NewLoad(v, a, 4*int32(rng.Intn(8))),
				rtl.NewALU(rtl.OpSub, a, rtl.R(rtl.RegSP), rtl.Imm(-arr)),
				rtl.NewStore(v, a, 4*int32(rng.Intn(8))))
		case 2: // a scalar slot loaded, combined and stored back
			v, w := reg(), reg()
			s := slots[rng.Intn(len(slots))]
			b.Instrs = append(b.Instrs,
				rtl.NewLoad(v, rtl.RegSP, s),
				rtl.NewALU(rtl.OpAdd, w, rtl.R(v), rtl.Imm(1)),
				rtl.NewStore(w, rtl.RegSP, s))
			acc = w
		case 3: // a constant folded to a move, and a compare
			c, v := reg(), reg()
			b.Instrs = append(b.Instrs,
				rtl.NewMov(c, rtl.Imm(int32(rng.Intn(50)))),
				rtl.NewALU(rtl.OpShl, v, rtl.R(c), rtl.Imm(2)),
				rtl.NewCmp(rtl.R(acc), rtl.R(v)))
		case 4: // a load copied on after a store that may change what it read
			v, m := reg(), reg()
			b.Instrs = append(b.Instrs,
				rtl.NewLoad(v, rtl.RegSP, arr+4*int32(rng.Intn(8))),
				rtl.NewStore(acc, rtl.RegSP, arr+4*int32(rng.Intn(8))),
				rtl.NewMov(m, rtl.R(v)),
				rtl.NewStore(m, rtl.RegSP, slots[rng.Intn(len(slots))]))
		case 5: // a call, which scalars must live across in callee-save registers
			b.Instrs = append(b.Instrs,
				rtl.NewMov(rtl.RegR0, rtl.R(acc)),
				rtl.Instr{Op: rtl.OpCall, Sym: "g", NArgs: 1})
			acc = rtl.RegR0
		}
	}
	b.Instrs = append(b.Instrs,
		rtl.NewLoad(rtl.RegR1, rtl.RegSP, slots[0]),
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(acc), rtl.R(rtl.RegR1)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	return f
}

// pressureSource holds the differential corpus's high-pressure function,
// wide, and deep, whose nested operands keep more temporaries live than
// there are allocatable registers. wide's locals live in frame slots
// until k promotes them, so only deep makes register assignment spill.
const pressureSource = `
int wide(int a, int b, int c, int d) {
    int t1 = a + b;
    int t2 = a - b;
    int t3 = c + d;
    int t4 = c - d;
    int t5 = t1 * t3;
    int t6 = t2 * t4;
    int t7 = t1 * t4;
    int t8 = t2 * t3;
    int t9 = t5 + t6;
    int t10 = t7 - t8;
    int t11 = t9 * t10;
    int t12 = t5 - t7 + t6 - t8;
    return t11 + t12 * t9 - t10;
}
int deep(int a, int b, int c, int d) {
    return (a+1)*((b+2)*((c+3)*((d+4)*((a+5)*((b+6)*((c+7)*((d+8)*
        ((a+9)*((b+10)*((c+11)*((d+12)*((a+13)*((b+14)*(c+15))))))))))))));
}`

// checkRegisterPasses holds a register pass to its reference on the
// corpus and generated walks, on chained straight-line blocks and on a
// function that spills.
func checkRegisterPasses(t *testing.T, check refCheck) {
	walkCorpus(t, check)
	d := machine.StrongARM()
	t.Run("chained block", func(t *testing.T) {
		for seed := int64(0); seed < 4; seed++ {
			for _, hard := range []bool{false, true} {
				f := chainBlock(hard, seed)
				if err := rtl.Validate(f); err != nil {
					t.Fatal(err)
				}
				if n := f.NumInstrs(); n < 200 {
					t.Fatalf("the chained block has %d instructions, want 200 or more", n)
				}
				checkForms(t, fmt.Sprintf("chained block %d, hardware registers %v", seed, hard), f, d, check)
			}
		}
	})
	t.Run("clique", func(t *testing.T) {
		// One more value live at once than there are registers to hold
		// them, all of one degree: simplification is stuck at once and
		// must push the first of the tied values, the one then spilled.
		f := rtl.NewFunc("clique", 0, true)
		n := len(rtl.AllocatableHardRegs) + 1
		p := make([]rtl.Reg, n)
		b := f.Entry()
		for i := range p {
			p[i] = f.NewReg()
			b.Instrs = append(b.Instrs, rtl.NewMov(p[i], rtl.Imm(int32(i))))
		}
		for i := 1; i < n; i++ {
			b.Instrs = append(b.Instrs, rtl.NewALU(rtl.OpAdd, p[0], rtl.R(p[0]), rtl.R(p[i])))
		}
		b.Instrs = append(b.Instrs, rtl.NewMov(rtl.RegR0, rtl.R(p[0])), rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
		checkForms(t, "clique", f, d, check)
	})
	t.Run("pressure", func(t *testing.T) {
		prog, err := mc.Compile(pressureSource)
		if err != nil {
			t.Fatal(err)
		}
		spilled := prog.Func("deep").Clone()
		RegAssign(spilled)
		if !slices.ContainsFunc(spilled.Slots, func(s rtl.Slot) bool { return strings.HasPrefix(s.Name, ".spill") }) {
			t.Fatalf("register assignment did not spill:\n%s", spilled)
		}
		for _, name := range []string{"wide", "deep"} {
			f := prog.Func(name)
			checkForms(t, name, f, d, check)
			for w := int64(0); w < 4; w++ {
				walkPhase(t, name, f, w, 14, check)
			}
		}
	})
}

func TestPhaseSMatchesReference(t *testing.T) {
	checkRegisterPasses(t, matchesReference(InstructionSelection{}, refInstructionSelection))
	t.Run("resume at the deleted definition", func(t *testing.T) {
		// Folding r0 = 5 into r3 = r0 + 1 takes away the redefinition of
		// r0 that kept r1 = r0 + 4 out of the load between them: the
		// search after it must look again from the deleted definition
		// on, not from the merged instruction.
		f := rtl.NewFunc("resume", 1, true)
		f.RegAssigned = true
		f.Entry().Instrs = append(f.Entry().Instrs,
			rtl.NewALU(rtl.OpAdd, rtl.RegR1, rtl.R(rtl.RegR0), rtl.Imm(4)),
			rtl.NewMov(rtl.RegR0, rtl.Imm(5)),
			rtl.NewLoad(rtl.RegR2, rtl.RegR1, 0),
			rtl.NewALU(rtl.OpAdd, rtl.RegR3, rtl.R(rtl.RegR0), rtl.Imm(1)),
			rtl.NewStore(rtl.RegR3, rtl.RegSP, 0),
			rtl.NewMov(rtl.RegR0, rtl.R(rtl.RegR2)),
			rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
		d := machine.StrongARM()
		matchesReference(InstructionSelection{}, refInstructionSelection)(t, "resume", f, d)
		got := f.Clone()
		InstructionSelection{}.Apply(got, d)
		if !strings.Contains(got.String(), "=M[r[0]+4];") {
			t.Fatalf("the load did not take the address add:\n%s", got)
		}
	})
	t.Run("chains combine", func(t *testing.T) {
		// The chained block is not there to be left alone: s folds most
		// of its pairs, so the forward pass resumes in the block it
		// changed again and again.
		f := chainBlock(true, 0)
		n := f.NumInstrs()
		if !(InstructionSelection{}).Apply(f, machine.StrongARM()) || f.NumInstrs() > n*3/4 {
			t.Fatalf("s left %d of %d instructions:\n%s", f.NumInstrs(), n, f)
		}
	})
}

func TestPhaseKMatchesReference(t *testing.T) {
	checkRegisterPasses(t, matchesReference(RegisterAllocation{}, refRegisterAllocation))
}

func TestRegAssignMatchesReference(t *testing.T) {
	checkRegisterPasses(t, regAssignMatchesReference)
}

// fdctInstances collects the instances a few random walks from
// jpeg/fdct_pass — the function the fleet's equivalence request
// enumerates — pass through, unassigned or assigned as assigned says.
func fdctInstances(b *testing.B, assigned bool) []*rtl.Func {
	fns, err := mibench.AllFunctions()
	if err != nil {
		b.Fatal(err)
	}
	var root *rtl.Func
	for _, tf := range fns {
		if tf.Bench == "jpeg" && tf.Func.Name == "fdct_pass" {
			root = tf.Func
		}
	}
	if root == nil {
		b.Fatal("jpeg/fdct_pass is not in the corpus")
	}
	d := machine.StrongARM()
	var out []*rtl.Func
	for seed := int64(0); seed < 8; seed++ {
		cur := root.Clone()
		rtl.Cleanup(cur)
		var st State
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 12; step++ {
			if cur.RegAssigned == assigned {
				out = append(out, cur)
			} else if assigned {
				f := cur.Clone()
				RegAssign(f)
				out = append(out, f)
			}
			phases := All()
			rng.Shuffle(len(phases), func(i, j int) { phases[i], phases[j] = phases[j], phases[i] })
			moved := false
			for _, p := range phases {
				next, nst := cur.Clone(), st
				if Attempt(next, &nst, p, d) {
					cur, st, moved = next, nst, true
					break
				}
			}
			if !moved {
				break
			}
		}
	}
	if len(out) == 0 {
		b.Fatal("no instances collected")
	}
	return out
}

// benchmarkOn applies fn to a fresh copy of each instance in turn; the
// copy is made into recycled storage, so it costs a memmove.
func benchmarkOn(b *testing.B, fns []*rtl.Func, fn func(*rtl.Func)) {
	var scratch *rtl.Func
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = fns[i%len(fns)].CloneReusing(scratch)
		fn(scratch)
	}
}

func BenchmarkPhaseS(b *testing.B) {
	d := machine.StrongARM()
	benchmarkOn(b, fdctInstances(b, true), func(f *rtl.Func) { InstructionSelection{}.Apply(f, d) })
}

func BenchmarkPhaseK(b *testing.B) {
	d := machine.StrongARM()
	benchmarkOn(b, fdctInstances(b, true), func(f *rtl.Func) { RegisterAllocation{}.Apply(f, d) })
}

func BenchmarkRegAssign(b *testing.B) {
	benchmarkOn(b, fdctInstances(b, false), func(f *rtl.Func) { RegAssign(f) })
}
