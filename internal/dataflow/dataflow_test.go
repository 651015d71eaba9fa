package dataflow_test

import (
	"fmt"
	"testing"

	"repro/internal/dataflow"
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

// TestDomTreeTables pins the dominance facts value numbering inherits
// through — the graph's immediate dominators and its constant-time
// Dominates — on the shapes the numbering's own tests use.
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
			f := parse(t, tc.src)
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
	f := parse(t, unreachableSrc)
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

func TestGVNTables(t *testing.T) {
	t.Run("diamond-cse", func(t *testing.T) {
		f := parse(t, `
cse(2):
L0:
	r[32]=r[0]+r[1];
	IC=r[0]?0;
	PC=IC<0,L2;
L1:
	r[33]=r[0]+r[1];
	PC=L3;
L2:
	r[34]=r[1]+r[0];
L3:
	r[35]=r[0]+r[1];
	RET;
`)
		g := rtl.ComputeCFG(f)
		vn := dataflow.NumberValues(g)
		root := vn[0][0]
		if root < 0 {
			t.Fatalf("r32 definition must be numbered")
		}
		// The same expression in both arms and at the join — including
		// the commutatively swapped one — shares the dominator's number.
		if vn[1][0] != root || vn[2][0] != root || vn[3][0] != root {
			t.Fatalf("equal expressions must share a value number: got %d/%d/%d want %d",
				vn[1][0], vn[2][0], vn[3][0], root)
		}
	})
	t.Run("loop-carried", func(t *testing.T) {
		f := parse(t, loopSrc)
		g := rtl.ComputeCFG(f)
		vn := dataflow.NumberValues(g)
		// r32's loop increment must NOT alias the init: r32 has a
		// definition inside the loop that does not dominate the body.
		if vn[0][0] == vn[1][0] {
			t.Fatalf("loop-carried redefinition must get a distinct value number")
		}
	})
	t.Run("single-block", func(t *testing.T) {
		f := parse(t, `
s(0):
L0:
	r[32]=3;
	r[33]=3;
	r[34]=r[32]+r[33];
	r[35]=r[33]+r[32];
	RET;
`)
		g := rtl.ComputeCFG(f)
		vn := dataflow.NumberValues(g)
		if vn[0][0] != vn[0][1] {
			t.Fatalf("equal constants must share a value number")
		}
		if vn[0][2] != vn[0][3] {
			t.Fatalf("commutative operands must not split value numbers")
		}
	})
	t.Run("unreachable", func(t *testing.T) {
		f := parse(t, unreachableSrc)
		g := rtl.ComputeCFG(f)
		vn := dataflow.NumberValues(g)
		if vn[1] != nil {
			t.Fatalf("unreachable blocks must not be numbered")
		}
	})
	t.Run("loads-fresh", func(t *testing.T) {
		f := parse(t, `
ld(1):
L0:
	r[32]=M[r[0]];
	r[33]=M[r[0]];
	RET;
`)
		g := rtl.ComputeCFG(f)
		vn := dataflow.NumberValues(g)
		if vn[0][0] == vn[0][1] {
			t.Fatalf("loads must be fresh: memory is not modeled")
		}
	})
}

func TestPathWitness(t *testing.T) {
	f := parse(t, diamondSrc)
	g := rtl.ComputeCFG(f)
	path := dataflow.PathTo(g, 3, nil)
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != 3 {
		t.Fatalf("PathTo join: got %v", path)
	}
	// Avoiding block 1 forces the taken arm.
	path = dataflow.PathTo(g, 3, func(b int) bool { return b == 1 })
	want := []int{0, 2, 3}
	if fmt.Sprint(path) != fmt.Sprint(want) {
		t.Fatalf("PathTo avoiding 1: got %v want %v", path, want)
	}
	// Avoiding both arms leaves no path.
	if p := dataflow.PathTo(g, 3, func(b int) bool { return b == 1 || b == 2 }); p != nil {
		t.Fatalf("expected no path, got %v", p)
	}
	if got := dataflow.FormatIDPath(dataflow.BlockIDs(f, want)); got != "L0 -> L2 -> L3" {
		t.Fatalf("FormatIDPath: got %q", got)
	}
	if got := dataflow.FormatIDPath(nil); got != "" {
		t.Fatalf("FormatIDPath(nil): got %q", got)
	}
	exit := dataflow.PathToExit(g, 1, nil)
	if len(exit) == 0 || exit[0] != 1 || exit[len(exit)-1] != 3 {
		t.Fatalf("PathToExit: got %v", exit)
	}
}
