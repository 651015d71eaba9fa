package search_test

import (
	"bytes"
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/search"
)

// TestEnumerateSlotStates is the checkpoint slot's state table: for
// everything a slot can hold when Enumerate finds it, how the
// enumeration sets out, whether the result names the slot as the file
// holding the finished space, what is logged, and — except where it
// must refuse — that the space hashes like a plain Run's. The
// refusals leave the file exactly as it was.
func TestEnumerateSlotStates(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	_, other := compileFunc(t, smallSrc, "clamp")
	// Same name, edited body: what an edit-and-rerun leaves in the slot.
	_, edited := compileFunc(t, strings.Replace(sumSrc, "s += a[i]", "s += a[i] + 1", 1), "sum")
	// Same body, another name: a space document carries its function's name.
	_, renamed := compileFunc(t, strings.Replace(sumSrc, "sum(", "total(", 1), "total")
	hashOf := func(r *search.Result) string {
		t.Helper()
		h, err := r.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	want, wantEquiv := hashOf(search.Run(f, search.Options{})), hashOf(search.Run(f, search.Options{Equiv: true}))

	// The slot fillers, for either tier. midRun leaves what a canceled
	// (or killed) run's last write leaves; finished what a completed one
	// does.
	midRunAt := func(equiv bool) func(*testing.T, string) {
		return func(t *testing.T, slot string) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if r := search.Run(f, search.Options{Equiv: equiv, Ctx: ctx, Verifier: cancelAfter(cancel, 25), CheckpointPath: slot}); !r.Aborted {
				t.Fatal("the run to interrupt finished first")
			}
		}
	}
	finishedAt := func(equiv bool) func(*testing.T, string) {
		return func(t *testing.T, slot string) {
			if r := search.Run(f, search.Options{Equiv: equiv, CheckpointPath: slot}); r.CheckpointErr != "" {
				t.Fatal(r.CheckpointErr)
			}
		}
	}
	midRun, finished := midRunAt(false), finishedAt(false)
	mangled := func(fill func(*testing.T, string), mangle func([]byte) []byte) func(*testing.T, string) {
		return func(t *testing.T, slot string) {
			fill(t, slot)
			b, err := os.ReadFile(slot)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(slot, mangle(b), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	spaceOf := func(r *search.Result) func(*testing.T, string) {
		return func(t *testing.T, slot string) {
			if err := search.WriteFile(slot, r.Save, true); err != nil {
				t.Fatal(err)
			}
		}
	}

	rows := []struct {
		name    string
		fill    func(t *testing.T, slot string) // nil: slot absent
		opts    search.Options
		start   search.Start
		warning string // substring of the one warning logged; "" = none
		refuses bool   // error, file untouched
	}{
		{name: "slot absent", start: search.Fresh},
		{name: "mid-run checkpoint", fill: midRun, start: search.Resumed},
		{name: "paused StopAtFrontier checkpoint", start: search.Resumed,
			fill: func(t *testing.T, slot string) {
				if r := search.Run(f, search.Options{StopAtFrontier: 3, CheckpointPath: slot}); r.Checkpoint == nil {
					t.Fatal("warm-up never paused")
				}
			}},
		{name: "finished space", fill: finished, start: search.Found},
		{name: "finished space with timing (older build)", start: search.Fresh, warning: "older build",
			fill: mangled(finished, func(b []byte) []byte { return rewritten(b, `"elapsed_ns":0,`, `"elapsed_ns":1234567,`) })},
		{name: "truncated", start: search.Fresh, warning: "truncated",
			fill: mangled(midRun, func(b []byte) []byte { return b[:len(b)/2] })},
		{name: "gzip trailer clobbered", start: search.Fresh, warning: "corrupt gzip trailer",
			fill: mangled(finished, func(b []byte) []byte { b[len(b)-8] ^= 0xff; return b })},
		{name: "leftover temp file only", start: search.Fresh,
			fill: func(t *testing.T, slot string) {
				if err := os.WriteFile(slot+".tmp", []byte("torn write"), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "aborted with no frontier", start: search.Fresh, warning: "no frontier to resume",
			fill: spaceOf(search.Run(f, search.Options{MaxNodes: 50}))},
		{name: "same name, edited body", refuses: true,
			fill: spaceOf(search.Run(edited, search.Options{}))},
		{name: "same body, another name", refuses: true,
			fill: spaceOf(search.Run(renamed, search.Options{}))},
		{name: "different function", refuses: true,
			fill: spaceOf(search.Run(other, search.Options{}))},
		{name: "equivalence tier of the same function", refuses: true,
			fill: spaceOf(search.Run(f, search.Options{Equiv: true}))},
		// The equivalence tier owns its slot the same way; the default
		// tier's mid-run checkpoint is another enumeration to it.
		{name: "Equiv set", fill: midRun, opts: search.Options{Equiv: true}, refuses: true},
		{name: "Equiv set, slot absent", opts: search.Options{Equiv: true}, start: search.Fresh},
		{name: "Equiv set, mid-run checkpoint", fill: midRunAt(true), opts: search.Options{Equiv: true}, start: search.Resumed},
		{name: "Equiv set, finished space", fill: finishedAt(true), opts: search.Options{Equiv: true}, start: search.Found},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			slot := filepath.Join(t.TempDir(), "sum.ckpt.space.gz")
			if row.fill != nil {
				row.fill(t, slot)
			}
			before, _ := os.ReadFile(slot)
			var logged bytes.Buffer
			var starts []search.Start
			opts := row.opts
			opts.CheckpointPath = slot
			opts.Logger = slog.New(slog.NewTextHandler(&logged, &slog.HandlerOptions{Level: slog.LevelWarn}))
			r, err := search.Enumerate(f, opts, func(s search.Start) { starts = append(starts, s) })

			if row.refuses {
				if after, _ := os.ReadFile(slot); !bytes.Equal(after, before) {
					t.Error("the slot's file was touched")
				}
			}
			if row.refuses {
				if err == nil || !strings.Contains(err.Error(), "another function") {
					t.Fatalf("err = %v, want a refusal naming another function's enumeration", err)
				}
				if len(starts) != 0 {
					t.Fatalf("set out %v before refusing", starts)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(starts) != 1 || starts[0] != row.start {
				t.Errorf("set out %v, want exactly [%s]", starts, row.start)
			}
			if log := logged.String(); row.warning == "" && log != "" || row.warning != "" &&
				(strings.Count(log, "checkpoint slot unusable") != 1 || !strings.Contains(log, row.warning)) {
				t.Errorf("logged %q, want one warning about %q", log, row.warning)
			}
			if r.Aborted || r.Checkpoint != nil {
				t.Fatalf("not a complete space (aborted=%v %s)", r.Aborted, r.AbortReason)
			}
			wantHash, wantPath := want, slot
			if row.opts.Equiv {
				wantHash = wantEquiv
			}
			if got := hashOf(r); got != wantHash {
				t.Errorf("space hashes %s, a plain Run's %s", got, wantHash)
			}
			if r.SpacePath != wantPath {
				t.Fatalf("SpacePath = %q, want %q", r.SpacePath, wantPath)
			}
			if wantPath != "" {
				// The named file is the space, and SpaceHash its SHA-256:
				// what a caller renames or uploads, and names, instead of
				// encoding the result again.
				held, err := search.LoadFile(r.SpacePath)
				if err != nil {
					t.Fatal(err)
				}
				if held.Checkpoint != nil || hashOf(held) != wantHash {
					t.Error("the file SpacePath names does not hold the finished space")
				}
				if b, err := os.ReadFile(r.SpacePath); err != nil || r.SpaceHash != wantHash || sha256Hex(b) != wantHash {
					t.Errorf("SpaceHash %q, the file's SHA-256 %s, want %s (%v)", r.SpaceHash, sha256Hex(b), wantHash, err)
				}
				if _, err := os.Stat(slot + ".tmp"); !os.IsNotExist(err) {
					t.Errorf("a temp file is left beside the slot (err=%v)", err)
				}
			}
		})
	}

	// A failed final write leaves no file to name; a pause and an abort
	// leave a checkpoint, not the space.
	t.Run("no path without the space on disk", func(t *testing.T) {
		slot := filepath.Join(t.TempDir(), "sum.ckpt.space.gz")
		for what, opts := range map[string]search.Options{
			"paused":             {StopAtFrontier: 3},
			"aborted":            {MaxNodes: 50},
			"failed final write": {Faults: faultinject.MustParse("ckptfail=1000000")},
			"no slot":            {},
		} {
			if what != "no slot" {
				opts.CheckpointPath = slot
			}
			if r := search.Run(f, opts); r.SpacePath != "" || r.SpaceHash != "" {
				t.Errorf("%s: SpacePath = %q, SpaceHash = %q, want neither", what, r.SpacePath, r.SpaceHash)
			}
		}
	})
}
