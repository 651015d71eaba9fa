package search_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mc"
	"repro/internal/randprog"
	"repro/internal/rtl"
	"repro/internal/search"
)

// TestGeneratedSpacesHashOneWay is the byte-identity invariant on
// generated inputs: for random programs, every way this package has of
// producing a space — any worker width, a mid-level kill plus Resume
// (by hand, and through the slot's owner, Enumerate), a frontier split
// into K shards resumed apart and merged, the live equivalence tier or
// its derivation from the default space — yields
// one CanonicalHash per tier. All of them run the one level loop; what
// differs is the evaluator and the seeding, which is exactly what a
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

			// Kill mid-level at width 4, resume from the file.
			ckpt := filepath.Join(t.TempDir(), "kill.ckpt.space.gz")
			ctx, cancel := context.WithCancel(context.Background())
			killed := search.Run(f, search.Options{Workers: 4, Ctx: ctx, CheckpointPath: ckpt,
				Verifier: cancelAfter(cancel, int64(len(ref.Nodes)/2))})
			cancel()
			loaded, err := search.LoadFile(ckpt)
			if err != nil {
				t.Fatalf("loading the killed run's checkpoint: %v", err)
			}
			if killed.Aborted && loaded.Checkpoint == nil {
				t.Fatal("killed run left no resumable frontier")
			}
			resumed, err := search.Resume(loaded, search.Options{Workers: 4})
			same(want, "kill+resume", resumed, err)

			// The same slot as a hard kill leaves it — the last write
			// that was renamed into place, a torn temp file beside it —
			// handed to its owner: resumed if the run was cut short,
			// found if it had finished, and the slot ends up the space.
			if err := os.WriteFile(ckpt+".tmp", []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			start := search.Found
			if killed.Aborted {
				start = search.Resumed
			}
			enumerated, err := search.Enumerate(f, search.Options{Workers: 4, CheckpointPath: ckpt},
				func(got search.Start) {
					if got != start {
						t.Errorf("hard kill + Enumerate set out %s, want %s", got, start)
					}
				})
			same(want, "hard kill + Enumerate", enumerated, err)
			onDisk, err := search.LoadFile(enumerated.SpacePath)
			same(want, "the slot after hard kill + Enumerate", onDisk, err)

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

			// The equivalence tier: live at two widths, derived from the
			// reference and from the last merge.
			wantEquiv := hash("live equiv", search.Run(f, search.Options{Workers: 1, Equiv: true}), nil)
			same(wantEquiv, "live equiv, workers=4", search.Run(f, search.Options{Workers: 4, Equiv: true}), nil)
			derived, err := search.DeriveEquiv(ref, search.Options{})
			same(wantEquiv, "derived equiv", derived, err)
			derived, err = search.DeriveEquiv(wire(t, merged), search.Options{})
			same(wantEquiv, "derived equiv of the merge", derived, err)
		})
	})
}

// generatedSpaces hands each the first n random programs whose space
// fits maxNodes, with its reference enumeration at width 1.
func generatedSpaces(t *testing.T, n, maxNodes int, each func(seed int64, f *rtl.Func, ref *search.Result)) {
	cfg := randprog.Config{MaxStmts: 3, MaxDepth: 2, MaxExprDepth: 2}
	for seed, found := int64(0), 0; found < n; seed++ {
		p := randprog.New(seed, cfg)
		prog, err := mc.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		f := prog.Func(p.Entry)
		ref := search.Run(f, search.Options{Workers: 1, MaxNodes: maxNodes})
		if ref.Aborted {
			continue
		}
		found++
		each(seed, f, ref)
	}
}
