package fingerprint_test

import (
	"testing"

	"repro/internal/fingerprint"
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

func equivKey(t *testing.T, src string) string {
	t.Helper()
	return fingerprint.EquivKey(parse(t, src))
}

func TestEquivCommutativeOperands(t *testing.T) {
	// The leading moves pin the first-encounter order of r32/r33, so
	// plain renumbering cannot reconcile the swapped addition. The key
	// emits commutative operands as written: the two are distinct
	// classes, which the one-sided key allows (the value-numbered
	// operand order that merged them merged nothing in any measured
	// space; TestEquivNormalizationAblation).
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
	if a == b {
		t.Fatalf("commutative operands are emitted as written: the swapped addition is another class")
	}
	if string(fingerprint.RefEquivEncode(nil, parse(t, addAB))) != string(fingerprint.RefEquivEncode(nil, parse(t, addBA))) {
		t.Fatalf("sanity: the value-numbering reference should merge the swapped addition")
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
