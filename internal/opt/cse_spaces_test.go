package opt_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/mibench"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/rtl"
	"repro/internal/search"
)

// TestPhaseCMatchesReferenceOnSpaces holds c to its reference at every
// node of whole enumerated spaces, not only along random walks: the
// benchmark manifest's small set (bitcount/bit_count, fft/fix_sin and
// stringsearch/search_main, its largest members, named again in case
// the set changes) and small generated programs.
func TestPhaseCMatchesReferenceOnSpaces(t *testing.T) {
	programs := 8
	if testing.Short() {
		programs = 2
	}
	var manifest struct{ Small []string }
	raw, err := os.ReadFile("../../bench/expected_hashes.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	fns, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*rtl.Func{}
	for _, tf := range fns {
		byName[tf.Bench+"/"+tf.Func.Name] = tf.Func
	}
	d := machine.StrongARM()
	check := func(name string, r *search.Result) {
		for _, n := range r.Nodes {
			if n.Quarantine == "" {
				opt.CheckPhaseC(t, fmt.Sprintf("%s node %d (%q)", name, n.ID, n.Seq), r.Instance(n), d)
			}
		}
	}
	seen := map[string]bool{}
	for _, name := range append(manifest.Small, "bitcount/bit_count", "fft/fix_sin", "stringsearch/search_main") {
		f := byName[name]
		if f == nil {
			t.Fatalf("no corpus function %q", name)
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		r := search.Run(f, search.Options{KeepFuncs: true, Machine: d})
		if r.Aborted {
			t.Fatalf("%s: aborted: %s", name, r.AbortReason)
		}
		check(name, r)
	}
	// Small generated programs whose spaces are at most a corpus
	// function's size, as in the search package's generated spaces.
	cfg := randprog.Config{MaxStmts: 3, MaxDepth: 2, MaxExprDepth: 2}
	for seed, found := int64(0), 0; found < programs; seed++ {
		p := randprog.New(seed, cfg)
		prog, err := mc.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r := search.Run(prog.Func(p.Entry), search.Options{KeepFuncs: true, Machine: d, MaxNodes: 1300}); !r.Aborted {
			check(fmt.Sprintf("randprog seed %d", seed), r)
			found++
		}
	}
}
