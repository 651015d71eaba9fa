// Package dataflow_test holds the black-box property tests of the
// equivalence key (fingerprint.EquivEncode), which lived in a package
// of this name before it moved into internal/fingerprint: which
// spellings of one computation the key folds, which it keeps apart,
// and that random register permutations and block reorderings never
// move it. The tests that hold the key to its reference encoder, and
// the fuzz target, need that package's test-only exports and stay in
// internal/fingerprint.
package dataflow_test

import (
	"math/rand"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/randprog"
	"repro/internal/rtl"
)

func parse(t *testing.T, text string) *rtl.Func {
	t.Helper()
	f, err := rtl.ParseFunc(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

// diamond: L0 branches to L2, falls into L1, both join at L3.
const diamondSrc = `
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
`

func equivKey(t *testing.T, src string) string {
	t.Helper()
	return fingerprint.EquivKey(parse(t, src))
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
	want := fingerprint.EquivKey(f)
	for seed := int64(0); seed < 8; seed++ {
		mut := f.Clone()
		randprog.ShuffleBlocks(mut, rand.New(rand.NewSource(seed)))
		if err := rtl.Validate(mut); err != nil {
			t.Fatalf("seed %d: shuffle broke the function: %v", seed, err)
		}
		if got := fingerprint.EquivKey(mut); got != want {
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
