package search_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/rtl"
	"repro/internal/search"
)

const gcdSrc = `
int gcd(int a, int b) {
    while (b != 0) {
        int t = b;
        b = a % b;
        a = t;
    }
    return a;
}`

// canonical is what Save writes of a complete, un-aborted result: its
// canonical (wall-clock-free) bytes, the encoding the determinism
// guarantee is stated in.
func canonical(t *testing.T, r *search.Result) []byte {
	t.Helper()
	if r.Aborted || r.Checkpoint != nil {
		t.Fatalf("not a complete space (aborted=%v %s)", r.Aborted, r.AbortReason)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cancelAfter returns a Verifier hook that cancels ctx after the n-th
// active instance, interrupting the enumeration mid-level at a point
// that varies with n — the in-process analog of kill -9 at an
// arbitrary moment.
func cancelAfter(cancel context.CancelFunc, n int64) func(*rtl.Func) error {
	var seen atomic.Int64
	return func(*rtl.Func) error {
		if seen.Add(1) == n {
			cancel()
		}
		return nil
	}
}

// TestCheckpointResumeDeterminism is the tentpole guarantee: a search
// interrupted at an arbitrary point, checkpointed, reloaded and
// resumed yields a space byte-identical (canonical serialization) to
// an uninterrupted run — for several functions and several interrupt
// points each.
func TestCheckpointResumeDeterminism(t *testing.T) {
	sources := []struct{ src, fn string }{
		{smallSrc, "clamp"},
		{sumSrc, "sum"},
		{gcdSrc, "gcd"},
	}
	for _, src := range sources {
		src := src
		t.Run(src.fn, func(t *testing.T) {
			_, f := compileFunc(t, src.src, src.fn)
			clean := search.Run(f, search.Options{})
			if clean.Aborted {
				t.Fatalf("clean run aborted: %s", clean.AbortReason)
			}
			want := canonical(t, clean)

			ckpt := filepath.Join(t.TempDir(), src.fn+".ckpt.space.gz")
			for _, at := range []int64{1, 3, 9, 27, 81} {
				ctx, cancel := context.WithCancel(context.Background())
				r := search.Run(f, search.Options{
					Ctx:            ctx,
					Verifier:       cancelAfter(cancel, at),
					CheckpointPath: ckpt,
				})
				cancel()
				if !r.Aborted {
					// The space finished before the cancel point; the
					// checkpoint file is already the complete space.
					if got := mustLoadCanonical(t, ckpt); !bytes.Equal(got, want) {
						t.Fatalf("cancel@%d: completed checkpoint differs from clean space", at)
					}
					continue
				}
				loaded, err := search.LoadFile(ckpt)
				if err != nil {
					t.Fatalf("cancel@%d: loading checkpoint: %v", at, err)
				}
				if loaded.Checkpoint == nil {
					t.Fatalf("cancel@%d: interrupted checkpoint has no frontier", at)
				}
				resumed, err := search.Resume(loaded, search.Options{CheckpointPath: ckpt})
				if err != nil {
					t.Fatalf("cancel@%d: resume: %v", at, err)
				}
				if resumed.Aborted {
					t.Fatalf("cancel@%d: resumed run aborted: %s", at, resumed.AbortReason)
				}
				if got := canonical(t, resumed); !bytes.Equal(got, want) {
					t.Fatalf("cancel@%d: resumed space differs from uninterrupted run", at)
				}
				// The final checkpoint file must itself be the complete
				// space, byte-identical as well.
				if got := mustLoadCanonical(t, ckpt); !bytes.Equal(got, want) {
					t.Fatalf("cancel@%d: final checkpoint file differs from clean space", at)
				}
			}
		})
	}
}

func mustLoadCanonical(t *testing.T, path string) []byte {
	t.Helper()
	r, err := search.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpoint != nil {
		t.Fatalf("%s: still carries a frontier of %d nodes", path, len(r.Checkpoint.Frontier))
	}
	return canonical(t, r)
}

// TestResumeFromHardKillSnapshots resumes from what a SIGKILL would
// have left on disk. Abort paths never run under a hard kill, so the
// only recovery points are the cost-paced periodic checkpoints: a
// Verifier hook copies the checkpoint file out each time it changes
// during one uninterrupted multi-level run, and every copy must resume
// to the clean run's bytes. The hook stalls once, past the cadence
// floor, so that the level boundary after it is due whatever the
// machine's speed: at least one periodic checkpoint always exists.
func TestResumeFromHardKillSnapshots(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	want := canonical(t, search.Run(f, search.Options{}))

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sum.ckpt.space.gz")
	var (
		mu        sync.Mutex
		attempts  int
		snapshots [][]byte
	)
	r := search.Run(f, search.Options{
		CheckpointPath: ckpt,
		Verifier: func(*rtl.Func) error {
			mu.Lock()
			defer mu.Unlock()
			attempts++
			if attempts == 10 {
				time.Sleep(150 * time.Millisecond)
			}
			b, err := os.ReadFile(ckpt)
			if err == nil && (len(snapshots) == 0 || !bytes.Equal(b, snapshots[len(snapshots)-1])) {
				snapshots = append(snapshots, b)
			}
			return nil
		},
	})
	if r.Aborted || r.CheckpointErr != "" {
		t.Fatalf("run: aborted=%v (%s), checkpoint error %q", r.Aborted, r.AbortReason, r.CheckpointErr)
	}
	if len(snapshots) == 0 {
		t.Fatal("no periodic checkpoint was on disk at any attempt after the stall")
	}
	t.Logf("%d periodic checkpoints seen over %d active attempts", len(snapshots), attempts)
	for i, b := range snapshots {
		path := filepath.Join(dir, fmt.Sprintf("killed%d.ckpt.space.gz", i))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := search.LoadFile(path)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if loaded.Checkpoint == nil {
			t.Fatalf("snapshot %d: a mid-run checkpoint carries no frontier", i)
		}
		resumed, err := search.Resume(loaded, search.Options{CheckpointPath: path})
		if err != nil {
			t.Fatalf("snapshot %d (%d nodes): resume: %v", i, len(loaded.Nodes), err)
		}
		if got := canonical(t, resumed); !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d: resumed space differs from the clean run", i)
		}
	}
}

// TestCheckpointRoundTripPartial: an interrupted checkpoint must
// round-trip through Save/Load with its frontier (instances rebuilt)
// intact.
func TestCheckpointRoundTripPartial(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	ckpt := filepath.Join(t.TempDir(), "sum.ckpt.space.gz")
	ctx, cancel := context.WithCancel(context.Background())
	r := search.Run(f, search.Options{
		Ctx:            ctx,
		Verifier:       cancelAfter(cancel, 25),
		CheckpointPath: ckpt,
	})
	cancel()
	if !r.Aborted {
		t.Skip("enumeration finished before the cancel point")
	}
	loaded, err := search.LoadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Checkpoint == nil || len(loaded.Checkpoint.Frontier) == 0 {
		t.Fatal("interrupted checkpoint lost its frontier")
	}
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := search.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if again.Checkpoint == nil ||
		len(again.Checkpoint.Frontier) != len(loaded.Checkpoint.Frontier) {
		t.Fatal("checkpoint section did not survive a save/load round trip")
	}
	resumed, err := search.Resume(again, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	clean := search.Run(f, search.Options{})
	if !bytes.Equal(canonical(t, resumed), canonical(t, clean)) {
		t.Fatal("space resumed from a round-tripped checkpoint differs from a clean run")
	}
}

// TestResumeCompleteSpaceIsNoop: Resume on a fully enumerated space
// returns it unchanged.
func TestResumeCompleteSpaceIsNoop(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	r := search.Run(f, search.Options{})
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := search.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := search.Resume(loaded, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != loaded {
		t.Fatal("Resume of a complete space did not return it unchanged")
	}
}

// TestResumeAfterCapAbort: a cap abort writes a resumable boundary
// checkpoint; resuming with the cap raised completes the space
// identically to an unrestricted run.
func TestResumeAfterCapAbort(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	clean := search.Run(f, search.Options{})
	ckpt := filepath.Join(t.TempDir(), "sum.ckpt.space.gz")
	r := search.Run(f, search.Options{MaxNodes: 50, CheckpointPath: ckpt})
	if !r.Aborted {
		t.Fatal("node cap did not abort")
	}
	loaded, err := search.LoadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := search.Resume(loaded, search.Options{CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Aborted {
		t.Fatalf("resume with raised cap aborted: %s", resumed.AbortReason)
	}
	if !bytes.Equal(canonical(t, resumed), canonical(t, clean)) {
		t.Fatal("space resumed after a cap abort differs from an unrestricted run")
	}
}

// TestCheckpointWriteFailureIsSurvived: a failing checkpoint write
// (simulated ENOSPC) must not abort the search, must not clobber the
// previous checkpoint, and must be reported in CheckpointErr.
func TestCheckpointWriteFailureIsSurvived(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	ckpt := filepath.Join(t.TempDir(), "clamp.ckpt.space.gz")

	// Seed a valid checkpoint file, then rerun with every write
	// failing: the file must still hold the seeded content.
	seed := search.Run(f, search.Options{CheckpointPath: ckpt})
	if seed.CheckpointErr != "" {
		t.Fatalf("seed run reported a checkpoint error: %s", seed.CheckpointErr)
	}
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	r := search.Run(f, search.Options{
		CheckpointPath: ckpt,
		Faults:         faultinject.MustParse("ckptfail=1000000"),
	})
	if r.Aborted {
		t.Fatalf("checkpoint failures aborted the search: %s", r.AbortReason)
	}
	if r.CheckpointErr == "" || !strings.Contains(r.CheckpointErr, "ENOSPC") {
		t.Fatalf("CheckpointErr = %q, want a simulated ENOSPC report", r.CheckpointErr)
	}
	after, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a failed checkpoint write clobbered the previous checkpoint")
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("failed write left its temp file behind")
	}
}

// TestCheckpointDirSyncFailureIsRecorded: the checkpoint rename is only
// durable once the containing directory is fsynced; an injected
// directory-sync failure (dirsyncfail spec) must land in CheckpointErr
// like any other write failure, without aborting the search, and the
// renamed checkpoint file must still be loadable (the data made it, the
// durability guarantee did not).
func TestCheckpointDirSyncFailureIsRecorded(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	ckpt := filepath.Join(t.TempDir(), "clamp.ckpt.space.gz")
	r := search.Run(f, search.Options{
		CheckpointPath: ckpt,
		Faults:         faultinject.MustParse("dirsyncfail=1000000"),
	})
	if r.Aborted {
		t.Fatalf("directory-sync failures aborted the search: %s", r.AbortReason)
	}
	if r.CheckpointErr == "" || !strings.Contains(r.CheckpointErr, "fsync failure on checkpoint directory") {
		t.Fatalf("CheckpointErr = %q, want the simulated directory fsync failure", r.CheckpointErr)
	}
	if _, err := search.LoadFile(ckpt); err != nil {
		t.Fatalf("checkpoint written before the failed directory sync does not load: %v", err)
	}
}

// TestKillResumeUnderFaults combines the two robustness features: an
// enumeration with a quarantining fault plan, interrupted and resumed,
// matches the uninterrupted enumeration under the same plan.
func TestKillResumeUnderFaults(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	plan := faultinject.MustParse("panic=c")
	clean := search.Run(f, search.Options{Faults: plan})
	if clean.Aborted {
		t.Fatalf("faulted clean run aborted: %s", clean.AbortReason)
	}
	if len(clean.QuarantinedNodes()) == 0 {
		t.Fatal("fault plan quarantined nothing")
	}
	want := canonical(t, clean)

	ckpt := filepath.Join(t.TempDir(), "sum.ckpt.space.gz")
	ctx, cancel := context.WithCancel(context.Background())
	r := search.Run(f, search.Options{
		Ctx:            ctx,
		Verifier:       cancelAfter(cancel, 15),
		CheckpointPath: ckpt,
		Faults:         plan,
	})
	cancel()
	if !r.Aborted {
		t.Skip("enumeration finished before the cancel point")
	}
	loaded, err := search.LoadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := search.Resume(loaded, search.Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, resumed), want) {
		t.Fatal("kill/resume under faults diverged from the uninterrupted faulted run")
	}
}
