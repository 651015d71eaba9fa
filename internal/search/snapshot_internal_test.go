package search

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mc"
	"repro/internal/mibench"
	"repro/internal/randprog"
	"repro/internal/rtl"
)

// sameAnalyses reports how the analyses of got — a borrowed view of a
// frontier instance's graph — differ from those computed from scratch
// on the function the view is bound to: edges, block index, RPO,
// reachability, dominators, natural loops and liveness. At the moment a
// clone consumes its borrow it still equals its parent, so any
// difference is a stale borrow (the clone was modified first) or a phase
// that wrote into a structure the snapshot shares.
func sameAnalyses(got *rtl.CFG) error {
	want := rtl.ComputeCFG(got.F)
	if !reflect.DeepEqual(got.Succs, want.Succs) || !reflect.DeepEqual(got.Preds, want.Preds) {
		return fmt.Errorf("edges: borrowed %v / %v, fresh %v / %v", got.Succs, got.Preds, want.Succs, want.Preds)
	}
	for _, b := range got.F.Blocks {
		gp, gok := got.Pos(b.ID)
		wp, wok := want.Pos(b.ID)
		if gp != wp || gok != wok {
			return fmt.Errorf("block index: L%d at %d (%v) borrowed, %d (%v) fresh", b.ID, gp, gok, wp, wok)
		}
	}
	if !reflect.DeepEqual(got.RPO(), want.RPO()) {
		return fmt.Errorf("RPO: borrowed %v, fresh %v", got.RPO(), want.RPO())
	}
	if !reflect.DeepEqual(got.Reachable(), want.Reachable()) {
		return fmt.Errorf("reachability: borrowed %v, fresh %v", got.Reachable(), want.Reachable())
	}
	if !reflect.DeepEqual(got.Dominators(), want.Dominators()) {
		return fmt.Errorf("dominators: borrowed %v, fresh %v", got.Dominators(), want.Dominators())
	}
	gl, wl := got.FindLoops(), want.FindLoops()
	if len(gl) != len(wl) {
		return fmt.Errorf("loops: %d borrowed, %d fresh", len(gl), len(wl))
	}
	for i := range gl {
		if !reflect.DeepEqual(*gl[i], *wl[i]) {
			return fmt.Errorf("loop %d: borrowed %+v, fresh %+v", i, *gl[i], *wl[i])
		}
	}
	glv, wlv := got.Liveness(), rtl.ComputeLiveness(want)
	for i := range got.F.Blocks {
		if !glv.In[i].Equal(wlv.In[i]) || !glv.Out[i].Equal(wlv.Out[i]) {
			return fmt.Errorf("liveness of block %d differs", i)
		}
	}
	return nil
}

// checkBorrows installs the stale-borrow hook for the rest of the
// test: every graph a clone borrows is re-derived on that clone. It
// returns the count of borrows checked.
func checkBorrows(t *testing.T) *atomic.Int64 {
	var borrows atomic.Int64
	var once sync.Once
	rtl.Trace = func(ev rtl.Event, g *rtl.CFG) {
		if ev != rtl.Borrowed {
			return
		}
		borrows.Add(1)
		if err := sameAnalyses(g); err != nil {
			once.Do(func() { t.Errorf("borrowed analyses of %s are not those of the clone:\n%v\n%s", g.F.Name, err, g.F) })
		}
	}
	t.Cleanup(func() { rtl.Trace = nil })
	return &borrows
}

// checkedRun is Run with the read-only check at every level boundary:
// once a level's attempts are done, and before the engine releases the
// snapshots, one more clone of each expanded instance borrows its
// graph — which by now holds whatever the level's attempts derived and
// shared — and the hook compares it with a fresh derivation. An
// attempt that wrote into a shared RegSet, Loop.Blocks or edge list
// shows here even if no later attempt at that node looked.
func checkedRun(f *rtl.Func, opts Options) *Result {
	res, _ := newRun(f, opts, func(e *engine, work []attempt) error {
		err := e.runLevel(work)
		for _, n := range e.frontier {
			rtl.CFGOf(n.fn.Clone())
		}
		return err
	}).run()
	return res
}

// TestBorrowedAnalysesMatchFresh runs the stale-borrow hook and the
// level-boundary read-only check over the generated programs of
// TestGeneratedSpacesHashOneWay and over the benchmark's small set, at
// one worker and at four, both tiers, and requires the spaces to be
// the ones an unchecked run (or the benchmark's manifest) names.
func TestBorrowedAnalysesMatchFresh(t *testing.T) {
	type tierCase struct {
		name  string
		f     *rtl.Func
		equiv bool
		want  spaceFacts
	}
	var cases []tierCase

	// The generated programs, each tier's reference an unchecked run.
	seeds, maxNodes := 12, 600
	if !testing.Short() {
		seeds, maxNodes = 16, 1300
	}
	cfg := randprog.Config{MaxStmts: 3, MaxDepth: 2, MaxExprDepth: 2}
	for seed, found := int64(0), 0; found < seeds; seed++ {
		p := randprog.New(seed, cfg)
		prog, err := mc.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		f := prog.Func(p.Entry)
		ref := Run(f, Options{Workers: 1, MaxNodes: maxNodes})
		if ref.Aborted {
			continue
		}
		found++
		name := fmt.Sprintf("seed=%d", seed)
		cases = append(cases,
			tierCase{name, f, false, factsOf(t, ref)},
			tierCase{name, f, true, factsOf(t, Run(f, Options{Workers: 1, Equiv: true}))})
	}

	// The small set, each tier's reference the benchmark's manifest.
	var manifest struct {
		Small  []string
		Spaces map[string]map[string]struct {
			SpaceHash       string `json:"space_hash"`
			Nodes           int
			AttemptedPhases int `json:"attempted_phases"`
		}
	}
	raw, err := os.ReadFile("../../bench/expected_hashes.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	funcs, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*rtl.Func{}
	for _, tf := range funcs {
		byName[tf.Bench+"/"+tf.Func.Name] = tf.Func
	}
	if len(manifest.Small) == 0 {
		t.Fatal("the manifest names no small set")
	}
	for _, name := range manifest.Small {
		f := byName[name]
		if f == nil {
			t.Fatalf("no corpus function %q", name)
		}
		for tier, want := range manifest.Spaces[name] {
			cases = append(cases, tierCase{name, f, tier == "equiv", spaceFacts{want.SpaceHash, want.Nodes, want.AttemptedPhases}})
		}
	}

	borrows := checkBorrows(t)
	for _, c := range cases {
		for _, w := range []int{1, 4} {
			r := checkedRun(c.f, Options{Workers: w, Equiv: c.equiv})
			if got := factsOf(t, r); got != c.want {
				t.Errorf("%s, workers=%d, equiv=%v: checked run enumerated %+v, want %+v", c.name, w, c.equiv, got, c.want)
			}
		}
	}
	if borrows.Load() == 0 {
		t.Fatal("no clone ever borrowed a graph: the hook checked nothing")
	}
}

// spaceFacts is what identifies an enumerated space in the benchmark's
// manifest.
type spaceFacts struct {
	hash            string
	nodes, attempts int
}

func factsOf(t *testing.T, r *Result) spaceFacts {
	t.Helper()
	if r.Aborted {
		t.Fatalf("%s: aborted: %s", r.FuncName, r.AbortReason)
	}
	h, err := r.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	return spaceFacts{h, len(r.Nodes), r.AttemptedPhases}
}

// TestAnalysesComputedOncePerNode counts, on the benchmark's timed
// enumerate set, how many graphs and liveness solutions are derived
// from scratch per attempt. Before instances shared their analyses
// every attempt's first look built both (1.08 graphs and 0.45 liveness
// solutions per attempt, cleanup's and register assignment's included);
// with the snapshot the up-to-fourteen attempts at a node build each
// once between them (0.47 and 0.25), Cleanup counts predecessors
// instead of building graphs (0.27 graphs), and h, s and l keep the one
// graph they looked at for as long as they change no edge, s solving
// liveness again only after an identity move (0.105 graphs, 0.172
// liveness solutions: the snapshot owners' own, and what b, d, i, j, l's
// preheaders and register assignment derive after they have changed an
// edge or a register). The counts repeat exactly; each bar is the
// measurement plus 0.10.
func TestAnalysesComputedOncePerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates three mid-sized spaces")
	}
	funcs, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	var cfgs, liveness atomic.Int64
	rtl.Trace = func(ev rtl.Event, _ *rtl.CFG) {
		switch ev {
		case rtl.BuiltCFG:
			cfgs.Add(1)
		case rtl.BuiltLiveness:
			liveness.Add(1)
		}
	}
	defer func() { rtl.Trace = nil }()
	attempts := 0
	for _, tf := range funcs {
		switch tf.Bench + "/" + tf.Func.Name {
		case "stringsearch/bmh_search", "jpeg/get_code", "jpeg/quantize_block":
			attempts += factsOf(t, Run(tf.Func, Options{Workers: 1})).attempts
		}
	}
	if attempts == 0 {
		t.Fatal("the enumerate set is not in the corpus")
	}
	perAttempt := func(n *atomic.Int64) float64 { return float64(n.Load()) / float64(attempts) }
	t.Logf("%d attempts: %.3f graphs, %.3f liveness solutions from scratch per attempt", attempts, perAttempt(&cfgs), perAttempt(&liveness))
	if got := perAttempt(&cfgs); got > 0.205 {
		t.Errorf("%.3f graphs built from scratch per attempt, want at most 0.205", got)
	}
	if got := perAttempt(&liveness); got > 0.272 {
		t.Errorf("%.3f liveness solutions computed per attempt, want at most 0.272", got)
	}
}
