package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/mibench"
	"repro/internal/randprog"
	"repro/internal/rtl"
)

// TestPhaseSLivenessIsFresh holds the invariance s rests on: a
// committed combination leaves every block's liveness as it was, so s
// solves liveness once per application and again only when it has
// removed an identity move. On the walks TestPhaseCMatchesReference
// takes, at every instance on the way, s runs on a clone with the hook
// installed, and each time it is about to search for a combination —
// at the start, after every combination and after every identity-move
// removal — the liveness it holds must equal a from-scratch solution of
// the function as it then stands.
func TestPhaseSLivenessIsFresh(t *testing.T) {
	walks, depth, programs := 2, 14, 24
	if testing.Short() {
		walks, depth, programs = 1, 10, 8
	}
	d := machine.StrongARM()
	what, looks := "", 0
	selectionLiveness = func(f *rtl.Func, lv *rtl.Liveness) {
		looks++
		want := rtl.ComputeLiveness(rtl.ComputeCFG(f))
		for b := range f.Blocks {
			if !lv.In[b].Equal(want.In[b]) || !lv.Out[b].Equal(want.Out[b]) {
				t.Fatalf("%s: s holds stale liveness for block %d (L%d) of\n%s", what, b, f.Blocks[b].ID, f)
			}
		}
	}
	defer func() { selectionLiveness = nil }()

	walk := func(name string, f *rtl.Func, seed int64) {
		cur := f.Clone()
		rtl.Cleanup(cur)
		var st State
		rng := rand.New(rand.NewSource(seed))
		seq := ""
		for step := 0; step <= depth; step++ {
			what = fmt.Sprintf("%s after %q", name, seq)
			// Once on a plain clone, once on one that borrows the instance's
			// snapshot as the enumeration's clones do.
			trial, tst := cur.Clone(), st
			Attempt(trial, &tst, InstructionSelection{}, d)
			cur.ShareAnalyses()
			trial, tst = cur.Clone(), st
			Attempt(trial, &tst, InstructionSelection{}, d)
			cur.DropAnalyses()

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
				return
			}
		}
	}
	fns, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range fns {
		for w := 0; w < walks; w++ {
			walk(tf.Bench+"/"+tf.Func.Name, tf.Func, int64(w))
		}
	}
	for seed := int64(0); seed < int64(programs); seed++ {
		p := randprog.New(seed, randprog.Config{})
		prog, err := mc.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for w := 0; w < walks; w++ {
			walk(fmt.Sprintf("randprog seed %d", seed), prog.Func(p.Entry), seed+int64(w)<<32)
		}
	}
	if looks == 0 {
		t.Fatal("the hook saw no search: nothing was held")
	}
}
