package search_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/rtl"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// TestFinalWriteIsCanonical: the file the engine leaves when a
// checkpointing run finishes is the space's canonical bytes — the bytes
// Save writes of the result — and the hash the result carries is the
// SHA-256 of that file and its CanonicalHash — so a caller
// publishes, uploads and names the space without rendering it again.
// Small corpus functions and generated programs, at widths 1 and 4,
// uninterrupted and killed mid-level then resumed. Every run is timed
// (Options.Metrics), so a final write that kept a wall-clock field would
// differ from the canonical bytes. A write that is not the durable
// complete space — paused, aborted, failed — names neither file nor
// hash, and a resumable document keeps its elapsed time, which Resume
// adds to.
func TestFinalWriteIsCanonical(t *testing.T) {
	type input struct {
		name string
		f    *rtl.Func
	}
	inputs := []input{
		{"dijkstra/enqueue", mibenchFunc(t, "dijkstra", "enqueue")},
		{"sha/rotl", mibenchFunc(t, "sha", "rotl")},
		{"stringsearch/tolower_c", mibenchFunc(t, "stringsearch", "tolower_c")},
	}
	generatedSpaces(t, 4, 100, func(seed int64, f *rtl.Func, _ *search.Result) {
		inputs = append(inputs, input{fmt.Sprintf("seed=%d", seed), f})
	})

	// final holds a finished run to its file.
	final := func(t *testing.T, what string, r *search.Result, path string) string {
		t.Helper()
		if r.Aborted || r.Checkpoint != nil || r.CheckpointErr != "" {
			t.Fatalf("%s: not a finished, written space (aborted=%v, err=%q)", what, r.Aborted, r.CheckpointErr)
		}
		if r.SpacePath != path {
			t.Fatalf("%s: SpacePath %q, want the checkpoint path %q", what, r.SpacePath, path)
		}
		stored, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stored, canonical(t, r)) {
			t.Errorf("%s: the bytes at SpacePath are not what Save writes", what)
		}
		sum := sha256.Sum256(stored)
		want, err := r.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if r.SpaceHash != want || r.SpaceHash != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: SpaceHash %s, CanonicalHash %s, the file's SHA-256 %x", what, r.SpaceHash, want, sum)
		}
		if r.Elapsed <= 0 || r.Stats.ExpandNS <= 0 {
			t.Errorf("%s: the run lost its own timing (elapsed %v, expand %d ns)", what, r.Elapsed, r.Stats.ExpandNS)
		}
		return r.SpaceHash
	}
	// unnamed holds a run whose last write is not the durable complete
	// space to naming nothing.
	unnamed := func(t *testing.T, what string, r *search.Result) {
		t.Helper()
		if r.SpacePath != "" || r.SpaceHash != "" {
			t.Errorf("%s: SpacePath %q, SpaceHash %q; want neither", what, r.SpacePath, r.SpaceHash)
		}
	}

	killed, paused := 0, 0
	for _, in := range inputs {
		for _, width := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s,workers=%d", in.name, width), func(t *testing.T) {
				opts := func(path string) search.Options {
					return search.Options{Workers: width, CheckpointPath: path, Metrics: telemetry.NewRegistry()}
				}
				dir := t.TempDir()
				path := filepath.Join(dir, "clean.ckpt.space.gz")
				clean := search.Run(in.f, opts(path))
				want := final(t, "uninterrupted", clean, path)

				path = filepath.Join(dir, "kill.ckpt.space.gz")
				ctx, cancel := context.WithCancel(context.Background())
				o := opts(path)
				o.Ctx, o.Verifier = ctx, cancelAfter(cancel, int64(len(clean.Nodes)/2))
				cut := search.Run(in.f, o)
				cancel()
				if cut.Aborted {
					killed++
					unnamed(t, "killed", cut)
					loaded, err := search.LoadFile(path)
					if err != nil || loaded.Checkpoint == nil {
						t.Fatalf("killed run left no resumable checkpoint (%v)", err)
					}
					prior := loaded.Elapsed
					if prior <= 0 {
						t.Error("a resumable checkpoint carries no elapsed_ns")
					}
					resumed, err := search.Resume(loaded, opts(path))
					if err != nil {
						t.Fatal(err)
					}
					if got := final(t, "kill+resume", resumed, path); got != want {
						t.Errorf("kill+resume hashes %s, uninterrupted %s", got, want)
					}
					if resumed.Elapsed <= prior {
						t.Errorf("Resume did not accumulate elapsed: %v after a checkpoint at %v", resumed.Elapsed, prior)
					}
				}

				o = opts(filepath.Join(dir, "pause.ckpt.space.gz"))
				o.StopAtFrontier = 2
				if r := search.Run(in.f, o); r.Checkpoint != nil {
					paused++
					unnamed(t, "paused", r)
				}
				for _, spec := range []string{"ckptfail=1000000", "dirsyncfail=1000000"} {
					o = opts(filepath.Join(dir, "fail.ckpt.space.gz"))
					o.Faults = faultinject.MustParse(spec)
					r := search.Run(in.f, o)
					if r.Aborted || r.CheckpointErr == "" {
						t.Fatalf("%s: aborted=%v, CheckpointErr=%q; want a finished run whose write failed", spec, r.Aborted, r.CheckpointErr)
					}
					unnamed(t, spec, r)
				}
			})
		}
	}
	if killed == 0 || paused == 0 {
		t.Errorf("%d runs killed mid-level, %d paused: the table never left the uninterrupted path", killed, paused)
	}
}
