package search_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"testing"

	"repro/internal/search"
)

// TestParallelDeterminismTable is the byte-identity contract of the
// pipelined parallel engine: the canonical serialization of a space
// must not depend on the worker count, on the equivalence tier, or on
// whether the enumeration was interrupted mid-level and resumed.
// Workers=1 × uninterrupted is the reference; every other cell of the
// {workers} × {default, equiv} × {uninterrupted, interrupt+resume}
// table must serialize to the same bytes, and an equiv cell must also
// report the reference's collapse summary.
//
// The interrupted runs cancel via a Verifier hook after the n-th
// active instance — the in-process analog of kill -9 mid-level — so
// under the parallel engine the cancellation lands while workers and
// the committer are genuinely racing. Run the package under -race
// (the Makefile race target does) to make the cells double as a data
// race probe.
func TestParallelDeterminismTable(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	widths := []int{1, 4, 16}
	for _, equiv := range []bool{false, true} {
		tier := "default"
		if equiv {
			tier = "equiv"
		}
		t.Run(tier, func(t *testing.T) {
			base := search.Run(f, search.Options{Workers: 1, Equiv: equiv})
			if base.Aborted {
				t.Fatalf("reference run aborted: %s", base.AbortReason)
			}
			want := canonical(t, base)

			for _, w := range widths {
				w := w
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					r := search.Run(f, search.Options{Workers: w, Equiv: equiv})
					if r.Aborted {
						t.Fatalf("run aborted: %s", r.AbortReason)
					}
					if !bytes.Equal(canonical(t, r), want) {
						t.Fatalf("space at %d workers differs from the Workers=1 reference", w)
					}
					sameCollapse(t, r, base)
				})
				t.Run(fmt.Sprintf("workers=%d,resume", w), func(t *testing.T) {
					ckpt := filepath.Join(t.TempDir(), fmt.Sprintf("sum.w%d.ckpt.space.gz", w))
					ctx, cancel := context.WithCancel(context.Background())
					interrupted := search.Run(f, search.Options{
						Workers:        w,
						Equiv:          equiv,
						Ctx:            ctx,
						Verifier:       cancelAfter(cancel, 40),
						CheckpointPath: ckpt,
					})
					cancel()
					if !interrupted.Aborted {
						// The space finished before the cancel landed;
						// the checkpoint file is the complete space.
						if got := mustLoadCanonical(t, ckpt); !bytes.Equal(got, want) {
							t.Fatal("completed checkpoint differs from reference space")
						}
						return
					}
					loaded, err := search.LoadFile(ckpt)
					if err != nil {
						t.Fatalf("loading checkpoint: %v", err)
					}
					if loaded.Checkpoint == nil {
						t.Fatal("interrupted checkpoint has no frontier")
					}
					resumed, err := search.Resume(loaded, search.Options{Workers: w, Equiv: equiv, CheckpointPath: ckpt})
					if err != nil {
						t.Fatalf("resume: %v", err)
					}
					if resumed.Aborted {
						t.Fatalf("resumed run aborted: %s", resumed.AbortReason)
					}
					if !bytes.Equal(canonical(t, resumed), want) {
						t.Fatalf("resumed space at %d workers differs from reference", w)
					}
					sameCollapse(t, resumed, base)
				})
			}
		})
	}
}

// sameCollapse fails unless r reports want's collapse summary: both nil
// (the default tier), or equal Raw, Merged and RedundantByPhase.
func sameCollapse(t *testing.T, r, want *search.Result) {
	t.Helper()
	if (r.Equiv == nil) != (want.Equiv == nil) {
		t.Fatalf("equiv stats %+v, want %+v", r.Equiv, want.Equiv)
	}
	if r.Equiv != nil && (r.Equiv.Raw != want.Equiv.Raw || r.Equiv.Merged != want.Equiv.Merged ||
		!maps.Equal(r.Equiv.RedundantByPhase, want.Equiv.RedundantByPhase)) {
		t.Fatalf("equiv stats %+v, want %+v", *r.Equiv, *want.Equiv)
	}
}
