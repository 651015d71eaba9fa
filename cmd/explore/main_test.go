package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/mc"
	"repro/internal/search"
)

// TestMain lets the test binary double as the explore binary: when
// re-executed with EXPLORE_UNDER_TEST=1 it runs main() on its own
// arguments, so the batch/exit-code tests exercise the real process
// boundary (buffered output commit, exit status) without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("EXPLORE_UNDER_TEST") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runExplore re-executes the test binary as explore with args,
// returning stdout and the exit code.
func runExplore(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, _, code := runExploreAll(t, args...)
	return out, code
}

// runExploreAll is runExplore with stderr returned as well.
func runExploreAll(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPLORE_UNDER_TEST=1")
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	err := cmd.Run()
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("explore %v: %v\nstderr: %s", args, err, errOut.String())
		}
		code = ee.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// TestResumeOwnsTheCheckpointSlot drives -resume over the two slot
// states that are not a checkpoint of the function asked for. A damaged
// file costs a warning and a fresh enumeration, and the slot ends up
// holding the finished space; a healthy file for another function — here
// one of the same name, which the function's name cannot tell apart —
// is an error, exit 1, and is not overwritten.
func TestResumeOwnsTheCheckpointSlot(t *testing.T) {
	dir := t.TempDir()
	slot := filepath.Join(dir, "stringsearch.tolower_c.space.gz")
	args := []string{"-bench", "stringsearch", "-func", "tolower_c", "-save", dir, "-resume"}

	if err := os.WriteFile(slot, []byte("a torn checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errOut, code := runExploreAll(t, args...)
	if code != 0 || !strings.Contains(out, "tolower_c(s)") {
		t.Fatalf("-resume on a damaged checkpoint exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(errOut, "checkpoint slot unusable") || !strings.Contains(errOut, "not a gzip stream") {
		t.Fatalf("no warning about the damaged checkpoint on stderr:\n%s", errOut)
	}
	if r, err := search.LoadFile(slot); err != nil || r.Checkpoint != nil || r.Aborted {
		t.Fatalf("the slot does not hold the finished space after the fresh run (%v)", err)
	}

	prog, err := mc.Compile("int tolower_c(int c) { return c + 32; }")
	if err != nil {
		t.Fatal(err)
	}
	if err := search.WriteFile(slot, search.Run(prog.Func("tolower_c"), search.Options{}).Save, true); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(slot)
	if err != nil {
		t.Fatal(err)
	}
	out, errOut, code = runExploreAll(t, args...)
	if code != 1 || !strings.Contains(errOut, "another function") {
		t.Fatalf("-resume on another tolower_c's space exited %d, want 1 and a refusal\nstdout:\n%s\nstderr:\n%s",
			code, out, errOut)
	}
	if after, _ := os.ReadFile(slot); !bytes.Equal(after, before) {
		t.Fatal("the other function's space was overwritten")
	}
}

// TestSaveIsTheCheckpointSlot: -save names one file per function, the
// search's checkpoint slot, so a run and its -resume leave that one file,
// the same canonical bytes both times (its SHA-256 is the space's
// CanonicalHash). -resume needs -save, there is no separate checkpoint
// flag, and a failed final write is a failed save: exit 1, naming the
// write.
func TestSaveIsTheCheckpointSlot(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-bench", "stringsearch", "-func", "tolower_c", "-save", dir}
	var held []byte
	for _, extra := range [][]string{nil, {"-resume"}} {
		out, errOut, code := runExploreAll(t, append(args, extra...)...)
		if code != 0 {
			t.Fatalf("explore %v exited %d\nstdout:\n%s\nstderr:\n%s", extra, code, out, errOut)
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 || entries[0].Name() != "stringsearch.tolower_c.space.gz" {
			t.Fatalf("explore %v left %v (%v) in the -save directory, want exactly stringsearch.tolower_c.space.gz", extra, entries, err)
		}
		b, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if held != nil && !bytes.Equal(b, held) {
			t.Fatal("-resume of a finished space changed its file")
		}
		held = b
	}
	r, err := search.Load(bytes.NewReader(held))
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.CanonicalHash()
	if sum := sha256.Sum256(held); err != nil || hex.EncodeToString(sum[:]) != want {
		t.Fatalf("the saved file's SHA-256 is %x, its CanonicalHash %s (%v)", sum, want, err)
	}

	if _, errOut, code := runExploreAll(t, "-func", "tolower_c", "-resume"); code != 1 || !strings.Contains(errOut, "-resume requires -save") {
		t.Fatalf("-resume without -save exited %d, want 1\nstderr:\n%s", code, errOut)
	}
	if _, errOut, code := runExploreAll(t, "-func", "tolower_c", "-checkpoint", dir); code != 2 {
		t.Fatalf("the removed checkpoint flag exited %d, want 2 (no such flag)\nstderr:\n%s", code, errOut)
	}
	failed := t.TempDir()
	_, errOut, code := runExploreAll(t, "-bench", "stringsearch", "-func", "tolower_c", "-save", failed, "-faults", "ckptfail=1")
	if code != 1 || !strings.Contains(errOut, faultinject.ErrCheckpointWrite.Error()) {
		t.Fatalf("a failed final write exited %d, want 1 naming the write\nstderr:\n%s", code, errOut)
	}
}

// TestNegativeLimitsExit2: a negative -cap or -maxnodes is a malformed
// flag, refused before anything is enumerated.
func TestNegativeLimitsExit2(t *testing.T) {
	for _, flag := range []string{"-cap", "-maxnodes"} {
		if _, errOut, code := runExploreAll(t, "-func", "tolower_c", flag, "-1"); code != 2 || !strings.Contains(errOut, "must not be negative") {
			t.Fatalf("%s -1 exited %d, want 2\nstderr:\n%s", flag, code, errOut)
		}
	}
}

// TestProgressLogsLevels: -progress is the engine's per-level log record
// on stderr — one line per completed level, cumulative counts included —
// and nothing else: stdout and the saved space are what they are
// without it.
func TestProgressLogsLevels(t *testing.T) {
	plain, logged := t.TempDir(), t.TempDir()
	args := []string{"-bench", "stringsearch", "-func", "tolower_c", "-levels", "-save"}
	wantOut, wantErr, code := runExploreAll(t, append(args, plain)...)
	if code != 0 || strings.Contains(wantErr, "level complete") {
		t.Fatalf("plain run exited %d\nstderr:\n%s", code, wantErr)
	}
	out, errOut, code := runExploreAll(t, append(args, logged, "-progress")...)
	if code != 0 || !sameRows(out, wantOut) {
		t.Fatalf("-progress exited %d or changed stdout:\n--- without\n%s\n--- with\n%s", code, wantOut, out)
	}
	r, err := search.LoadFile(filepath.Join(logged, "stringsearch.tolower_c.space.gz"))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(errOut, "\n") {
		if !strings.Contains(line, `msg="level complete"`) {
			continue
		}
		lines++
		for _, k := range []string{"fn=tolower_c", " level=", " nodes=", " dormant=", " merged=", " elapsed="} {
			if !strings.Contains(line, k) {
				t.Fatalf("level line lacks %q: %s", k, line)
			}
		}
	}
	if lines != r.Stats.Levels+1 {
		t.Fatalf("%d level lines on stderr for a space %d levels deep:\n%s", lines, r.Stats.Levels+1, errOut)
	}
	ref, err := search.LoadFile(filepath.Join(plain, "stringsearch.tolower_c.space.gz"))
	if err != nil {
		t.Fatal(err)
	}
	got, err1 := r.CanonicalHash()
	want, err2 := ref.CanonicalHash()
	if err1 != nil || err2 != nil || got != want {
		t.Fatalf("-progress changed the space: %s (%v), without %s (%v)", got, err1, want, err2)
	}
}

// TestMixedBatchJobsDeterministic runs a batch where some functions
// complete and some abort (-maxnodes) at -jobs 4: every function must
// still report its row, in input order and un-interleaved, and the
// process must exit 3 — deterministically, whatever the scheduling.
// Pre-fix, an abort mid-batch could interleave with other functions'
// output and the exit status depended on which function failed first.
func TestMixedBatchJobsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the binary over a full benchmark")
	}
	// stringsearch at -maxnodes 60: tolower_c and bmha_init complete,
	// the other nine functions abort on the node cap.
	args := []string{"-bench", "stringsearch", "-maxnodes", "60", "-jobs", "4"}
	out, code := runExplore(t, args...)
	if code != 3 {
		t.Fatalf("mixed pass/abort batch exited %d, want 3\noutput:\n%s", code, out)
	}

	wantOrder := []string{
		"tolower_c", "bmh_init", "bmh_search", "bmha_init", "bmha_search",
		"bmhi_init", "bmhi_search", "brute_search", "build_text",
		"set_pattern", "search_main",
	}
	pos := -1
	for _, fn := range wantOrder {
		label := clip(fn, 12) + "(s)"
		i := strings.Index(out, label)
		if i < 0 {
			t.Fatalf("batch output is missing the row for %s:\n%s", fn, out)
		}
		if i < pos {
			t.Fatalf("row for %s is out of input order:\n%s", fn, out)
		}
		if strings.Count(out, label) != 1 {
			t.Fatalf("row for %s appears more than once (interleaved output?):\n%s", fn, out)
		}
		pos = i
	}
	if !strings.Contains(out, "N/A") {
		t.Fatalf("no aborted (N/A) rows in a batch that must abort:\n%s", out)
	}

	// A concurrent batch must commit byte-identical output to a serial
	// one: buffering per function is what keeps -jobs deterministic.
	serialOut, serialCode := runExplore(t, args[:len(args)-2]...)
	out2, code2 := runExplore(t, args...)
	if code2 != code || serialCode != code {
		t.Fatalf("exit codes differ across runs: jobs=4 %d/%d, serial %d", code, code2, serialCode)
	}
	if !sameRows(out2, out) {
		t.Fatalf("two -jobs 4 runs produced different output:\n--- first\n%s\n--- second\n%s", out, out2)
	}
	if !sameRows(serialOut, out) {
		t.Fatalf("-jobs 4 output differs from the serial run:\n--- serial\n%s\n--- jobs\n%s", serialOut, out)
	}
}

// sameRows compares two explore outputs ignoring the per-function
// wall-clock suffix ("[12ms]"), which legitimately varies run to run.
func sameRows(a, b string) bool {
	return stripTimes(a) == stripTimes(b)
}

func stripTimes(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if i := strings.LastIndex(line, "   ["); i >= 0 && strings.HasSuffix(line, "]") {
			line = line[:i]
		}
		// The summary line totals include wall-clock times too.
		if strings.Contains(line, "functions enumerated completely") {
			if i := strings.Index(line, "; enumeration"); i >= 0 {
				line = line[:i]
			}
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}
