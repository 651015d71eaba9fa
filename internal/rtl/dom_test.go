package rtl_test

import (
	"testing"

	"repro/internal/rtl"
)

// single: one block, immediate return.
const singleSrc = `
single(0):
L0:
	r[32]=1;
	RET;
`

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

// loop: L1 is a self-loop body conditioned on IC.
const loopSrc = `
loop(1):
L0:
	r[32]=0;
L1:
	r[32]=r[32]+1;
	IC=r[32]?r[0];
	PC=IC<0,L1;
L2:
	RET;
`

// unreachable: L1 is never targeted and cannot be fallen into.
const unreachableSrc = `
unreach(0):
L0:
	PC=L2;
L1:
	r[32]=7;
	PC=L2;
L2:
	RET;
`

// TestDomTreeTables pins the graph's immediate dominators and its
// constant-time Dominates against a walk up the idom chain, on four
// small shapes.
func TestDomTreeTables(t *testing.T) {
	cases := []struct {
		name string
		src  string
		idom []int // expected idom per layout position
	}{
		{"single", singleSrc, []int{0}},
		{"diamond", diamondSrc, []int{0, 0, 0, 0}},
		{"self-loop", loopSrc, []int{0, 0, 1}},
		{"unreachable", unreachableSrc, []int{0, -1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := mustParse(t, tc.src)
			g := rtl.ComputeCFG(f)
			idom := g.Dominators()
			for b, want := range tc.idom {
				if idom[b] != want {
					t.Errorf("idom[%d] = %d, want %d", b, idom[b], want)
				}
			}
			// Dominates against a walk up the idom chain.
			walk := func(a, b int) bool {
				if a == b {
					return true
				}
				if idom[a] == -1 || idom[b] == -1 {
					return false
				}
				for b != 0 {
					if b = idom[b]; b == a {
						return true
					}
				}
				return false
			}
			for a := range tc.idom {
				for b := range tc.idom {
					if got, want := g.Dominates(a, b), walk(a, b); got != want {
						t.Errorf("Dominates(%d,%d) = %v, want %v", a, b, got, want)
					}
				}
			}
			if !g.Dominates(0, 0) {
				t.Errorf("entry must dominate itself")
			}
		})
	}
}

func TestDomTreeUnreachable(t *testing.T) {
	f := mustParse(t, unreachableSrc)
	g := rtl.ComputeCFG(f)
	if g.Reachable()[1] || g.Dominators()[1] != -1 {
		t.Fatalf("block 1 should be unreachable")
	}
	if g.Dominates(0, 1) || g.Dominates(1, 2) {
		t.Fatalf("unreachable blocks must not participate in dominance")
	}
	if !g.Dominates(1, 1) {
		t.Fatalf("a block dominates itself even when unreachable")
	}
}
