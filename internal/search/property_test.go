package search_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/interp"
	"repro/internal/mc"
	"repro/internal/randprog"
	"repro/internal/rtl"
	"repro/internal/search"
)

// TestGeneratedSpacesHashOneWay is the byte-identity invariant on
// generated inputs: for random programs, every way this package has of
// producing a space — any worker width, a mid-level kill plus Resume
// (by hand, and through the slot's owner, Enumerate) in either tier, a
// frontier split into K shards resumed apart and merged, the live
// equivalence tier or its derivation from the default space — yields
// one CanonicalHash per tier. All of them run the one level loop; what
// differs is the seeding and the interruptions, which is exactly what a
// hand-picked corpus function exercises least. Seeds whose space
// outgrows the size budget are skipped (the cap abort is deterministic,
// so the selection is too). Runs under -race via make race.
func TestGeneratedSpacesHashOneWay(t *testing.T) {
	seeds, maxNodes := 12, 600
	if !testing.Short() {
		seeds, maxNodes = 16, 1300
	}
	generatedSpaces(t, seeds, maxNodes, func(seed int64, f *rtl.Func, ref *search.Result) {
		t.Run(fmt.Sprintf("seed=%d,nodes=%d", seed, len(ref.Nodes)), func(t *testing.T) {
			hash := func(what string, r *search.Result, err error) string {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if r.Aborted || r.Checkpoint != nil {
					t.Fatalf("%s: not a complete space (aborted=%v %s)", what, r.Aborted, r.AbortReason)
				}
				h, err := r.CanonicalHash()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				return h
			}
			same := func(want, what string, r *search.Result, err error) {
				t.Helper()
				if got := hash(what, r, err); got != want {
					t.Errorf("%s hashes %s, the reference %s", what, got, want)
				}
			}
			want := hash("reference", ref, nil)
			same(want, "workers=4", search.Run(f, search.Options{Workers: 4}), nil)

			// Kill mid-level at width 4, resume from the file — by hand,
			// and as a hard kill leaves the slot (the last write that was
			// renamed into place, a torn temp file beside it) handed to
			// its owner: resumed if the run was cut short, found if it
			// had finished, and the slot ends up the space. Both tiers.
			killResume := func(want string, equiv bool) {
				tier := fmt.Sprintf("equiv=%v ", equiv)
				ckpt := filepath.Join(t.TempDir(), "kill.ckpt.space.gz")
				ctx, cancel := context.WithCancel(context.Background())
				killed := search.Run(f, search.Options{Workers: 4, Equiv: equiv, Ctx: ctx, CheckpointPath: ckpt,
					Verifier: cancelAfter(cancel, int64(len(ref.Nodes)/2))})
				cancel()
				loaded, err := search.LoadFile(ckpt)
				if err != nil {
					t.Fatalf("%sloading the killed run's checkpoint: %v", tier, err)
				}
				if killed.Aborted && loaded.Checkpoint == nil {
					t.Fatalf("%skilled run left no resumable frontier", tier)
				}
				resumed, err := search.Resume(loaded, search.Options{Workers: 4, Equiv: equiv})
				same(want, tier+"kill+resume", resumed, err)

				if err := os.WriteFile(ckpt+".tmp", []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
				start := search.Found
				if killed.Aborted {
					start = search.Resumed
				}
				enumerated, err := search.Enumerate(f, search.Options{Workers: 4, Equiv: equiv, CheckpointPath: ckpt},
					func(got search.Start) {
						if got != start {
							t.Errorf("%shard kill + Enumerate set out %s, want %s", tier, got, start)
						}
					})
				same(want, tier+"hard kill + Enumerate", enumerated, err)
				onDisk, err := search.LoadFile(enumerated.SpacePath)
				same(want, tier+"the slot after hard kill + Enumerate", onDisk, err)
			}
			killResume(want, false)

			// Split at a K-node frontier, resume each shard off the
			// wire, merge. A space too narrow to split completes in the
			// warm-up and must hash the same.
			merged := ref
			for _, k := range []int{2, 3} {
				warmup := search.Run(f, search.Options{StopAtFrontier: k})
				if warmup.Checkpoint == nil {
					same(want, fmt.Sprintf("k=%d warm-up", k), warmup, nil)
					continue
				}
				docs, ids, err := search.PartitionCheckpoint(warmup, k)
				if err != nil {
					t.Fatalf("k=%d: partition: %v", k, err)
				}
				shards := make([]search.ShardSpace, len(docs))
				for i, doc := range docs {
					sub, err := search.Load(bytes.NewReader(doc))
					if err != nil {
						t.Fatalf("k=%d: shard %d: %v", k, i, err)
					}
					done, err := search.Resume(sub, search.Options{})
					if err != nil {
						t.Fatalf("k=%d: shard %d: %v", k, i, err)
					}
					shards[i] = search.ShardSpace{Res: wire(t, done), FrontierIDs: ids[i]}
				}
				merged, err = search.MergeShards(warmup, shards)
				same(want, fmt.Sprintf("k=%d merge", k), merged, err)
			}

			// The equivalence tier: live at two widths, killed and
			// resumed, derived from the reference and from the last merge.
			wantEquiv := hash("live equiv", search.Run(f, search.Options{Workers: 1, Equiv: true}), nil)
			same(wantEquiv, "live equiv, workers=4", search.Run(f, search.Options{Workers: 4, Equiv: true}), nil)
			killResume(wantEquiv, true)
			derived, err := search.DeriveEquiv(ref, search.Options{})
			same(wantEquiv, "derived equiv", derived, err)
			derived, err = search.DeriveEquiv(wire(t, merged), search.Options{})
			same(wantEquiv, "derived equiv of the merge", derived, err)
		})
	})
}

// generatedSpaces hands each the first n random programs whose space
// fits maxNodes, with its reference enumeration at width 1. The
// reference run executes every instance it reaches (execOracle), so a
// space that byte identity holds to is also one that computes what its
// program does.
func generatedSpaces(t *testing.T, n, maxNodes int, each func(seed int64, f *rtl.Func, ref *search.Result)) {
	for seed, found := int64(0), 0; found < n; seed++ {
		f, ref := generatedSpace(t, seed, maxNodes)
		if ref.Aborted {
			continue
		}
		found++
		each(seed, f, ref)
	}
}

// generatedSpace is the entry function of seed's random program and
// its reference enumeration at width 1 under maxNodes, every instance
// executed (execOracle).
func generatedSpace(t testing.TB, seed int64, maxNodes int) (*rtl.Func, *search.Result) {
	p := randprog.New(seed, randprog.Config{MaxStmts: 3, MaxDepth: 2, MaxExprDepth: 2})
	prog, err := mc.Compile(p.Source)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	f := prog.Func(p.Entry)
	return f, search.Run(f, search.Options{Workers: 1, MaxNodes: maxNodes,
		Verifier: execOracle(t, seed, prog, p)})
}

// FuzzSpaceSemantics aims generated programs at the checkpoint
// rebuild. The seed's random program is enumerated as generatedSpaces
// does (width 1, MaxNodes 600, every instance executed against the
// unoptimized program); seeds whose run aborts are skipped. A run
// capped at 1 + nodeCap % nodes leaves a checkpoint at its path, whose
// frontier LoadFile rebuilds from the sequences, and Resume must
// complete it to the reference's CanonicalHash.
func FuzzSpaceSemantics(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint16(40*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodeCap uint16) {
		fn, ref := generatedSpace(t, seed, 600)
		if ref.Aborted {
			t.Skip("the space outgrows 600 nodes")
		}
		want, err := ref.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		ckpt := filepath.Join(t.TempDir(), "capped.space.gz")
		search.Run(fn, search.Options{MaxNodes: 1 + int(nodeCap)%len(ref.Nodes), CheckpointPath: ckpt})
		loaded, err := search.LoadFile(ckpt)
		if err != nil {
			t.Fatalf("seed %d: the capped run's checkpoint does not load: %v", seed, err)
		}
		resumed, err := search.Resume(loaded, search.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := resumed.CanonicalHash(); err != nil || got != want {
			t.Fatalf("seed %d, cap %d: resumed to %s, the reference hashes %s (%v)", seed, 1+int(nodeCap)%len(ref.Nodes), got, want, err)
		}
	})
}

// execOracle is a Verifier that runs an instance of p's entry function,
// substituted for it in prog, on 8 argument vectors drawn from seed,
// and fails the test when its return value, trace or globals differ
// from the unoptimized program's on any of them. It substitutes into
// one shared copy of prog, so it is for a run at width 1.
func execOracle(t testing.TB, seed int64, prog *rtl.Program, p randprog.Program) func(*rtl.Func) error {
	rng := rand.New(rand.NewSource(seed))
	args := make([][]int32, 8)
	for i := range args {
		args[i] = make([]int32, p.Params)
		for j := range args[i] {
			args[i][j] = rng.Int31n(2001) - 1000
		}
	}
	// run is what prog's entry function does on every vector, flat: the
	// return value, the trace's length and values, every global word.
	run := func(prog *rtl.Program) ([]int32, error) {
		var out []int32
		for _, a := range args {
			m := interp.New(prog, interp.Limits{MaxSteps: 5_000_000})
			res, err := m.Run(p.Entry, a...)
			if err != nil {
				return nil, fmt.Errorf("args %v: %w", a, err)
			}
			out = append(append(out, res.Ret, int32(len(res.Trace))), res.Trace...)
			for _, g := range prog.Globals {
				for i := int32(0); i < g.Words; i++ {
					out = append(out, m.ReadGlobal(g.Name, i))
				}
			}
		}
		return out, nil
	}
	want, err := run(prog)
	if err != nil {
		t.Fatalf("seed %d: the unoptimized program: %v", seed, err)
	}
	// The instance stands in for the entry function of a copy of prog
	// whose other functions and globals are prog's own: the interpreter
	// only reads them.
	mod := *prog
	mod.Funcs = slices.Clone(prog.Funcs)
	entry := slices.IndexFunc(mod.Funcs, func(f *rtl.Func) bool { return f.Name == p.Entry })
	return func(inst *rtl.Func) error {
		mod.Funcs[entry] = inst
		if got, err := run(&mod); err != nil || !slices.Equal(got, want) {
			t.Errorf("seed %d: an instance misbehaves (%v): got %v, want %v\n%s", seed, err, got, want, inst)
		}
		return nil
	}
}
