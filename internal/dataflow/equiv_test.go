package dataflow_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/fingerprint"
	"repro/internal/rtl"
)

func equivKey(t *testing.T, src string) string {
	t.Helper()
	return dataflow.EquivKey(parse(t, src))
}

func TestEquivCommutativeOperands(t *testing.T) {
	// The leading moves pin the first-encounter order of r32/r33, so
	// plain renumbering cannot reconcile the swapped addition — only
	// the value-number operand sort can.
	const addAB = `
f(2):
L0:
	r[32]=r[0];
	r[33]=r[1];
	r[34]=r[32]+r[33];
	RET r[34];
`
	const addBA = `
f(2):
L0:
	r[32]=r[0];
	r[33]=r[1];
	r[34]=r[33]+r[32];
	RET r[34];
`
	a, b := equivKey(t, addAB), equivKey(t, addBA)
	if a != b {
		t.Fatalf("commutative operand order must not split equivalence classes")
	}
	if fingerprint.KeyOf(parse(t, addAB)) == fingerprint.KeyOf(parse(t, addBA)) {
		t.Fatalf("sanity: the identical-instance tier should distinguish the swapped addition")
	}
	c := equivKey(t, `
f(2):
L0:
	r[32]=r[0];
	r[33]=r[1];
	r[34]=r[32]-r[33];
	RET r[34];
`)
	if a == c {
		t.Fatalf("different operators must not merge")
	}
	// Subtraction is NOT commutative: swapping its operands is a
	// different function and must stay distinct.
	d := equivKey(t, `
f(2):
L0:
	r[32]=r[0];
	r[33]=r[1];
	r[34]=r[33]-r[32];
	RET r[34];
`)
	if c == d {
		t.Fatalf("non-commutative operand order must be preserved")
	}
}

func TestEquivRegisterRenaming(t *testing.T) {
	a := equivKey(t, `
f(1):
L0:
	r[40]=r[0]+1;
	r[41]=r[40]*2;
	RET r[41];
`)
	b := equivKey(t, `
f(1):
L0:
	r[90]=r[0]+1;
	r[33]=r[90]*2;
	RET r[33];
`)
	if a != b {
		t.Fatalf("register renaming must not split equivalence classes")
	}
}

func TestEquivJumpVersusFallThrough(t *testing.T) {
	// The same loop, once with an explicit jump to the next block and
	// once falling through: fingerprint considers these different
	// instances (the jump is an instruction), the equivalence tier
	// must not.
	a := equivKey(t, `
f(1):
L0:
	r[32]=0;
	PC=L1;
L1:
	r[32]=r[32]+1;
	IC=r[32]?r[0];
	PC=IC<0,L1;
L2:
	RET r[32];
`)
	b := equivKey(t, `
f(1):
L0:
	r[32]=0;
L1:
	r[32]=r[32]+1;
	IC=r[32]?r[0];
	PC=IC<0,L1;
L2:
	RET r[32];
`)
	if a != b {
		t.Fatalf("explicit jump to the fall-through block must encode like the fall-through")
	}
	if fingerprint.KeyOf(parse(t, `
f(1):
L0:
	r[32]=0;
	PC=L1;
L1:
	r[32]=r[32]+1;
	IC=r[32]?r[0];
	PC=IC<0,L1;
L2:
	RET r[32];
`)) == fingerprint.KeyOf(parse(t, `
f(1):
L0:
	r[32]=0;
L1:
	r[32]=r[32]+1;
	IC=r[32]?r[0];
	PC=IC<0,L1;
L2:
	RET r[32];
`)) {
		t.Fatalf("sanity: the two spellings should be distinct identical-instance keys")
	}
}

func TestEquivForwarderChains(t *testing.T) {
	a := equivKey(t, `
f(1):
L0:
	IC=r[0]?0;
	PC=IC==0,L4;
L1:
	r[32]=1;
	PC=L5;
L4:
	r[32]=2;
L5:
	RET r[32];
`)
	// Same function with a forwarder block interposed on the branch
	// edge.
	b := equivKey(t, `
f(1):
L0:
	IC=r[0]?0;
	PC=IC==0,L9;
L1:
	r[32]=1;
	PC=L5;
L9:
	PC=L4;
L4:
	r[32]=2;
L5:
	RET r[32];
`)
	if a != b {
		t.Fatalf("pure forwarder blocks must resolve away")
	}
}

func TestEquivUnreachableDropped(t *testing.T) {
	a := equivKey(t, `
f(0):
L0:
	PC=L2;
L2:
	RET;
`)
	b := equivKey(t, `
f(0):
L0:
	PC=L2;
L1:
	r[32]=7;
	PC=L2;
L2:
	RET;
`)
	if a != b {
		t.Fatalf("unreachable blocks must not affect the equivalence key")
	}
}

func TestEquivBlockReordering(t *testing.T) {
	f := parse(t, diamondSrc)
	want := dataflow.EquivKey(f)
	for seed := int64(0); seed < 8; seed++ {
		mut := f.Clone()
		shuffleBlocks(mut, rand.New(rand.NewSource(seed)))
		if err := rtl.Validate(mut); err != nil {
			t.Fatalf("seed %d: shuffle broke the function: %v", seed, err)
		}
		if got := dataflow.EquivKey(mut); got != want {
			t.Fatalf("seed %d: block reordering changed the equivalence key\n%s", seed, mut)
		}
	}
}

func TestEquivJumpCycle(t *testing.T) {
	// An inescapable forwarder cycle must encode without panicking,
	// and distinctly from a normal function.
	cyc := equivKey(t, `
f(0):
L0:
	PC=L1;
L1:
	PC=L0;
`)
	ret := equivKey(t, `
f(0):
L0:
	RET;
`)
	if cyc == ret {
		t.Fatalf("a silent infinite loop must not merge with a return")
	}
}

func TestEquivDistinguishesConstants(t *testing.T) {
	a := equivKey(t, "f(0):\nL0:\n\tr[32]=1;\n\tRET r[32];\n")
	b := equivKey(t, "f(0):\nL0:\n\tr[32]=2;\n\tRET r[32];\n")
	if a == b {
		t.Fatalf("different constants must not merge")
	}
}

// shuffleBlocks permutes every block but the entry and repairs
// fall-through semantics: a block whose fall-through successor moved
// away gets an explicit jump (or, after a conditional branch, a
// forwarder block). The result executes identically, which makes it
// the block-reordering leg of the equivalence fuzz target.
func shuffleBlocks(f *rtl.Func, rng *rand.Rand) {
	if len(f.Blocks) <= 2 {
		return
	}
	fall := make(map[int]int) // block ID -> required fall-through block ID
	for i, b := range f.Blocks {
		if i+1 >= len(f.Blocks) {
			break
		}
		last := b.Last()
		if last == nil || !last.Op.IsControl() || last.Op == rtl.OpBranch {
			fall[b.ID] = f.Blocks[i+1].ID
		}
	}
	rest := f.Blocks[1:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for i := 0; i < len(f.Blocks); i++ {
		b := f.Blocks[i]
		target, ok := fall[b.ID]
		if !ok {
			continue
		}
		if i+1 < len(f.Blocks) && f.Blocks[i+1].ID == target {
			continue
		}
		last := b.Last()
		if last != nil && last.Op == rtl.OpBranch {
			nb := &rtl.Block{ID: f.NextBlockID, Instrs: []rtl.Instr{rtl.NewJmp(target)}}
			f.NextBlockID++
			f.InsertBlockAfter(i, nb)
		} else {
			b.Instrs = append(b.Instrs, rtl.NewJmp(target))
		}
	}
}

// permuteRegs applies a random bijection to the registers whose roles
// are not fixed by the calling convention: pseudo registers map to
// pseudo registers and allocatable callee-save hard registers to each
// other, so the result computes the same function.
func permuteRegs(f *rtl.Func, rng *rand.Rand) {
	used := f.UsedRegs()
	var pseudos, saved []rtl.Reg
	used.ForEach(func(r rtl.Reg) {
		switch {
		case r.IsPseudo():
			pseudos = append(pseudos, r)
		case r.IsCalleeSave():
			saved = append(saved, r)
		}
	})
	perm := make(map[rtl.Reg]rtl.Reg)
	mix := func(regs []rtl.Reg, span int, base rtl.Reg) {
		sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
		// Map into a shuffled window of the same class, wider than the
		// inputs so names actually move.
		codes := rng.Perm(span)
		for i, r := range regs {
			perm[r] = base + rtl.Reg(codes[i])
		}
	}
	if len(pseudos) > 0 {
		mix(pseudos, len(pseudos)*2+4, rtl.FirstPseudo)
	}
	if len(saved) > 0 {
		mix(saved, 8, 4) // r4..r11
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if n, ok := perm[in.Dst]; ok {
				in.Dst = n
			}
			if in.A.Kind == rtl.OperReg {
				if n, ok := perm[in.A.Reg]; ok {
					in.A.Reg = n
				}
			}
			if in.B.Kind == rtl.OperReg {
				if n, ok := perm[in.B.Reg]; ok {
					in.B.Reg = n
				}
			}
		}
	}
	for r := range perm {
		if r.IsPseudo() {
			if f.NextPseudo <= perm[r] {
				f.NextPseudo = perm[r] + 1
			}
		}
	}
}
