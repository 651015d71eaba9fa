package rtl

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomLayout generates a function that is nothing but control flow:
// blocks of one or two no-ops (some empty) under IDs scattered below
// NextBlockID, each ending in a jump, a branch, a return or nothing,
// with targets drawn from the whole layout — self loops, branches to
// the fall-through block and unreferenced blocks included.
func randomLayout(rng *rand.Rand, blocks, nextID int) *Func {
	f := &Func{Name: "layout", NextBlockID: nextID, NextPseudo: FirstPseudo}
	ids := rng.Perm(nextID)[:blocks]
	for _, id := range ids {
		b := &Block{ID: id}
		for n := rng.Intn(3); n > 0; n-- {
			b.Instrs = append(b.Instrs, Instr{Op: OpNop})
		}
		switch target := ids[rng.Intn(blocks)]; rng.Intn(5) {
		case 0:
			b.Instrs = append(b.Instrs, NewJmp(target))
		case 1, 2:
			b.Instrs = append(b.Instrs, NewCmp(R(RegR0), Imm(0)), NewBranch(RelEQ, target))
		case 3:
			b.Instrs = append(b.Instrs, Instr{Op: OpRet})
		}
		f.Blocks = append(f.Blocks, b)
	}
	return f
}

// TestCleanupPredsMatchGraph: the predecessor counts Cleanup works from
// are those of the graph it used to build — for every block the same
// number of predecessors as ComputeCFG lists and, where that is one, the
// same one — on layouts below and above the sizes its tables hold on the
// stack, and again on whatever Cleanup leaves of each.
func TestCleanupPredsMatchGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	check := func(what string, f *Func) {
		t.Helper()
		var tab predTables
		count, sole := countPreds(f, &tab)
		g := ComputeCFG(f)
		for i, want := range g.Preds {
			if count[i] != len(want) || (len(want) == 1 && sole[i] != want[0]) {
				t.Fatalf("%s: block %d (L%d): counted %d predecessors (sole %d), the graph lists %v\n%s",
					what, i, f.Blocks[i].ID, count[i], sole[i], want, f)
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		blocks := 1 + rng.Intn(24)
		nextID := blocks + rng.Intn(40)
		switch trial % 5 {
		case 3:
			blocks, nextID = 65+rng.Intn(40), 200 // more blocks than the count tables hold
		case 4:
			nextID = 257 + rng.Intn(2000) // IDs beyond the index table
		}
		f := randomLayout(rng, blocks, nextID)
		what := fmt.Sprintf("trial %d (%d blocks, IDs below %d)", trial, blocks, nextID)
		check(what, f)
		Cleanup(f)
		check(what+" after Cleanup", f)
		// What Cleanup promises, stated on the graph: no empty block, and
		// no block whose only way in is falling out of the one before it.
		g := ComputeCFG(f)
		for i, b := range f.Blocks {
			if len(b.Instrs) == 0 && (i+1 < len(f.Blocks) || len(g.Preds[i]) == 0) {
				t.Fatalf("%s: Cleanup left the empty block L%d\n%s", what, b.ID, f)
			}
			if i > 0 && !f.Blocks[i-1].EndsInControl() && len(g.Preds[i]) == 1 && g.Preds[i][0] == i-1 {
				t.Fatalf("%s: Cleanup left L%d unmerged\n%s", what, b.ID, f)
			}
		}
	}
}
