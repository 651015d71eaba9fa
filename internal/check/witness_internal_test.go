package check

import (
	"fmt"
	"testing"

	"repro/internal/rtl"
)

func TestPathWitness(t *testing.T) {
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
	path := pathTo(g, 3, nil)
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != 3 {
		t.Fatalf("pathTo join: got %v", path)
	}
	// Avoiding block 1 forces the taken arm.
	path = pathTo(g, 3, func(b int) bool { return b == 1 })
	want := []int{0, 2, 3}
	if fmt.Sprint(path) != fmt.Sprint(want) {
		t.Fatalf("pathTo avoiding 1: got %v want %v", path, want)
	}
	// Avoiding both arms leaves no path.
	if p := pathTo(g, 3, func(b int) bool { return b == 1 || b == 2 }); p != nil {
		t.Fatalf("expected no path, got %v", p)
	}
	if got := FormatIDPath(blockIDs(f, want)); got != "L0 -> L2 -> L3" {
		t.Fatalf("FormatIDPath: got %q", got)
	}
	if got := FormatIDPath(nil); got != "" {
		t.Fatalf("FormatIDPath(nil): got %q", got)
	}
	exit := pathToExit(g, 1, nil)
	if len(exit) == 0 || exit[0] != 1 || exit[len(exit)-1] != 3 {
		t.Fatalf("pathToExit: got %v", exit)
	}
}
