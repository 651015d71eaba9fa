package search_test

import (
	"math/big"
	"reflect"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/interp"
	"repro/internal/mc"
	"repro/internal/rtl"
	"repro/internal/search"
)

const sumSrc = `
int a[16] = {5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int sum(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) s += a[i];
    return s;
}`

const smallSrc = `
int clamp(int x, int lo, int hi) {
    if (x < lo) return lo;
    if (x > hi) return hi;
    return x;
}`

func compileFunc(t testing.TB, src, name string) (*rtl.Program, *rtl.Func) {
	t.Helper()
	prog, err := mc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func(name)
	if f == nil {
		t.Fatalf("no function %q", name)
	}
	return prog, f
}

// TestNaiveSpaceGrowth checks the Figure 1 arithmetic the paper quotes:
// 15 phases over the observed worst-case length of 32 is an attempted
// space of 15^32 sequences.
func TestNaiveSpaceGrowth(t *testing.T) {
	v := search.NaiveSpaceSize(15, 32)
	want, _ := new(big.Int).SetString("43143988327398919500410556793212890625", 10)
	if want == nil || v.Cmp(want) != 0 {
		t.Fatalf("15^32 = %v", v)
	}
	// ~4.3e37 attempted sequences: the infeasibility the paper leads
	// with.
	if len(v.String()) != 38 {
		t.Fatalf("15^32 has %d digits", len(v.String()))
	}
	if search.NaiveSpaceSize(4, 2).Int64() != 16 {
		t.Fatal("4^2 != 16")
	}
	// Total of lengths 1..2 over 4 phases: 4 + 16 (Figure 1's two
	// levels).
	if search.NaiveSpaceTotal(4, 2).Int64() != 20 {
		t.Fatal("naive total wrong")
	}
}

// TestEnumerationBasics checks structural invariants of a full space.
func TestEnumerationBasics(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	r := search.Run(f, search.Options{KeepFuncs: true})
	if r.Aborted {
		t.Fatalf("aborted: %s", r.AbortReason)
	}
	if len(r.Nodes) < 100 {
		t.Fatalf("suspiciously small space: %d", len(r.Nodes))
	}

	// Node 0 is the root at level 0 with the empty sequence.
	if root := r.Root(); root.Level != 0 || root.Seq != "" {
		t.Fatalf("bad root: %+v", root)
	}

	keys := make(map[string]bool)
	for _, n := range r.Nodes {
		if keys[r.NodeKey(n)] {
			t.Fatalf("duplicate node key at %d", n.ID)
		}
		keys[r.NodeKey(n)] = true
		if n.Level != len(n.Seq) {
			t.Fatalf("node %d: level %d but sequence %q", n.ID, n.Level, n.Seq)
		}
		for _, e := range n.Edges {
			if e.To < 0 || e.To >= len(r.Nodes) {
				t.Fatalf("edge out of range")
			}
		}
	}

	// Every node's replayed instance matches its recorded key and
	// size (spot-check a sample to keep the test quick).
	for i := 0; i < len(r.Nodes); i += len(r.Nodes)/50 + 1 {
		n := r.Nodes[i]
		inst := r.Instance(n)
		if inst.NumInstrs() != n.NumInstrs {
			t.Fatalf("node %d: replay has %d instructions, recorded %d",
				n.ID, inst.NumInstrs(), n.NumInstrs)
		}
		if got := fingerprint.Of(inst); got != n.FP {
			t.Fatalf("node %d: replay fingerprint %+v, recorded %+v", n.ID, got, n.FP)
		}
	}
}

// TestDAGNotTree: different orderings of independent phases must merge
// (the Figure 4 collapse), so the node count is far below the path
// count.
func TestDAGNotTree(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	r := search.Run(f, search.Options{})
	paths := 0
	for _, n := range r.Nodes {
		in := 0
		for _, m := range r.Nodes {
			for _, e := range m.Edges {
				if e.To == n.ID {
					in++
				}
			}
		}
		if in > 1 {
			paths++
		}
	}
	if paths == 0 {
		t.Fatal("no node has multiple predecessors: the space degenerated to a tree")
	}
}

// TestNaiveReplayProducesIdenticalSpace: the Figure 6 evaluation
// enhancements must not change the enumerated space, only its cost.
func TestNaiveReplayProducesIdenticalSpace(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	shared := search.Run(f, search.Options{})
	naive := search.Run(f, search.Options{NaiveReplay: true})
	if len(shared.Nodes) != len(naive.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(shared.Nodes), len(naive.Nodes))
	}
	for i := range shared.Nodes {
		if shared.NodeKey(shared.Nodes[i]) != naive.NodeKey(naive.Nodes[i]) {
			t.Fatalf("node %d keys differ", i)
		}
		if !reflect.DeepEqual(shared.Nodes[i].Edges, naive.Nodes[i].Edges) {
			t.Fatalf("node %d edges differ", i)
		}
	}
	if shared.AttemptedPhases != naive.AttemptedPhases {
		t.Fatalf("attempted counts differ: %d vs %d", shared.AttemptedPhases, naive.AttemptedPhases)
	}
}

// TestDeterministicAcrossWorkers: the same space regardless of
// parallelism.
func TestDeterministicAcrossWorkers(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	a := search.Run(f, search.Options{Workers: 1})
	b := search.Run(f, search.Options{Workers: 8})
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if a.NodeKey(a.Nodes[i]) != b.NodeKey(b.Nodes[i]) || a.Nodes[i].Seq != b.Nodes[i].Seq {
			t.Fatalf("node %d differs between worker counts", i)
		}
	}
}

// TestDormantPrunedCountBounds: the Figure 2 tree is no larger than
// the naive space and no smaller than the Figure 4 DAG.
func TestDormantPrunedCountBounds(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	depth := 4
	tree := search.DormantPrunedCount(f, depth, search.Options{})

	r := search.Run(f, search.Options{})
	dag := 0
	for _, n := range r.Nodes {
		if n.Level >= 1 && n.Level <= depth {
			dag++
		}
	}
	naive := search.NaiveSpaceTotal(15, depth)

	if tree.Cmp(naive) > 0 {
		t.Fatalf("dormant-pruned tree (%v) larger than naive space (%v)", tree, naive)
	}
	if tree.Cmp(big.NewInt(int64(dag))) < 0 {
		t.Fatalf("dormant-pruned tree (%v) smaller than DAG prefix (%d)", tree, dag)
	}
}

// TestSearchAbortsOnNodeCap reproduces the paper's "too big" marking.
func TestSearchAbortsOnNodeCap(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	r := search.Run(f, search.Options{MaxNodes: 50})
	if !r.Aborted {
		t.Fatal("expected the search to abort at the node cap")
	}
}

// TestSearchAbortsOnLevelCap mirrors the one-million-sequences rule.
func TestSearchAbortsOnLevelCap(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	r := search.Run(f, search.Options{MaxSeqPerLevel: 10})
	if !r.Aborted {
		t.Fatal("expected the search to abort at the level cap")
	}
}

// TestBestCodeSizeIsMinimalLeaf: BestCodeSize agrees with a manual
// scan.
func TestBestCodeSizeIsMinimalLeaf(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	r := search.Run(f, search.Options{})
	best := r.BestCodeSize()
	for _, n := range r.Leaves() {
		if n.NumInstrs < best.NumInstrs {
			t.Fatalf("leaf %d smaller than BestCodeSize", n.ID)
		}
	}
}

// TestWholeSpaceDifferential enumerates a function with the verifier
// executing every instance against the unoptimized behaviour — the
// strongest correctness statement about the whole space.
func TestWholeSpaceDifferential(t *testing.T) {
	prog, f := compileFunc(t, smallSrc, "clamp")
	argsets := [][]int32{{5, 0, 10}, {-3, 0, 10}, {42, 0, 10}, {7, 7, 7}}
	type obs struct {
		ret   int32
		trace []int32
	}
	refFor := func(p *rtl.Program) []obs {
		var out []obs
		for _, a := range argsets {
			res, err := interp.Run(p, "clamp", a...)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, obs{res.Ret, res.Trace})
		}
		return out
	}
	want := refFor(prog)

	verifier := func(inst *rtl.Func) error {
		mod := prog.Clone()
		for i := range mod.Funcs {
			if mod.Funcs[i].Name == "clamp" {
				mod.Funcs[i] = inst
			}
		}
		got := refFor(mod)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("instance misbehaves:\n%s", inst)
		}
		return nil
	}
	r := search.Run(f, search.Options{Verifier: verifier})
	if r.Aborted {
		t.Fatalf("aborted: %s", r.AbortReason)
	}
	t.Logf("verified %d instances", len(r.Nodes))
}

// TestNodesPerLevel sums to the node count.
func TestNodesPerLevel(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	r := search.Run(f, search.Options{})
	per := search.NodesPerLevel(r)
	total := 0
	for _, n := range per {
		total += n
	}
	if total != len(r.Nodes) {
		t.Fatalf("per-level sum %d != %d nodes", total, len(r.Nodes))
	}
	if per[0] != 1 {
		t.Fatalf("level 0 must hold exactly the root")
	}
}
