package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// testSpaces enumerates distinct small functions and returns their keys
// in put order, oldest first.
func putSpaces(t *testing.T, st *diskStore, srcs map[string]string, order []string) []cacheKey {
	t.Helper()
	var keys []cacheKey
	for _, name := range order {
		fn := mustCompile(t, srcs[name], name)
		res := search.Run(fn, search.Options{})
		k := requestKey(fn, normOptions{})
		if err := st.put(k, canonicalBytes(t, res), keyedEntry(k)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return keys
}

// canonicalBytes is what runFlight hands put: Save's bytes of a
// complete space.
func canonicalBytes(t *testing.T, res *search.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// keyedEntry is the least an answer record must carry to check out.
func keyedEntry(k cacheKey) entry { return entry{answer: enumerateResponse{Key: string(k)}} }

// dirBytes sums the sizes of the files in dir.
func dirBytes(t *testing.T, dir string) (total int64) {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

var lruSrcs = map[string]string{
	"clamp": clampSrc,
	"myabs": absSrc,
	"neg":   negSrc,
}

// TestDiskStoreEvictsLRU bounds the store below three entries and
// checks the sweep removes exactly the least-recently-used ones — the
// entry and its answer record together — keeping the accounting and the
// cache_disk_bytes gauge in step with the files actually on disk.
func TestDiskStoreEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	gauge := reg.Gauge("cache_disk_bytes")
	st, err := newDiskStore(dir, 0, gauge) // unbounded while seeding
	if err != nil {
		t.Fatal(err)
	}
	keys := putSpaces(t, st, lruSrcs, []string{"clamp", "myabs", "neg"})
	total := st.diskBytes()
	if want := dirBytes(t, dir); total != want {
		t.Fatalf("tracked %d bytes after three puts, entries and records hold %d", total, want)
	}
	if gauge.Value() != total {
		t.Fatalf("gauge %d != tracked total %d", gauge.Value(), total)
	}

	// Touch the oldest entry so "myabs" becomes the LRU victim, then
	// bound the store just below the full total: one eviction suffices.
	if _, err := st.answer(keys[0]); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.maxBytes = total - 1
	evicted := st.sweepLocked("")
	st.mu.Unlock()
	if evicted != 1 {
		t.Fatalf("evicted %d entries, want 1", evicted)
	}
	for _, file := range []string{st.path(keys[1]), st.recordPath(keys[1])} {
		if _, err := os.Stat(file); !os.IsNotExist(err) {
			t.Fatalf("LRU victim's %s still on disk (err=%v)", filepath.Base(file), err)
		}
	}
	for _, k := range []cacheKey{keys[0], keys[2]} {
		if _, err := st.answer(k); err != nil {
			t.Fatalf("recently used entry %s evicted or unpaired: %v", k, err)
		}
	}
	if st.diskBytes() > total-1 {
		t.Fatalf("tracked bytes %d still over budget %d", st.diskBytes(), total-1)
	}
	if want := dirBytes(t, dir); st.diskBytes() != want {
		t.Fatalf("tracked %d bytes after the sweep, disk holds %d", st.diskBytes(), want)
	}
	if gauge.Value() != st.diskBytes() {
		t.Fatalf("gauge %d != tracked total %d after sweep", gauge.Value(), st.diskBytes())
	}
}

// TestDiskStorePinnedEntriesSurviveSweep opens a reader on the oldest
// entry and forces a sweep: the pinned entry must be skipped (the
// download in flight keeps its file) and the next-oldest evicted
// instead; once released, the former victim goes first.
func TestDiskStorePinnedEntriesSurviveSweep(t *testing.T) {
	dir := t.TempDir()
	st, err := newDiskStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := putSpaces(t, st, lruSrcs, []string{"clamp", "myabs", "neg"})

	f, _, release, err := st.open(keys[0]) // pin the LRU entry
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	st.mu.Lock()
	st.maxBytes = 1 // evict everything evictable
	st.sweepLocked("")
	st.mu.Unlock()

	if _, err := os.Stat(st.path(keys[0])); err != nil {
		t.Fatalf("pinned entry was evicted: %v", err)
	}
	for _, k := range keys[1:] {
		if _, err := os.Stat(st.path(k)); !os.IsNotExist(err) {
			t.Fatalf("unpinned entry %s survived a 1-byte budget (err=%v)", k, err)
		}
	}
	// The pinned file is still readable end to end.
	if _, err := search.LoadFile(st.path(keys[0])); err != nil {
		t.Fatalf("pinned entry unreadable mid-pin: %v", err)
	}

	release()
	st.mu.Lock()
	st.sweepLocked("")
	st.mu.Unlock()
	if _, err := os.Stat(st.path(keys[0])); !os.IsNotExist(err) {
		t.Fatalf("released entry not evicted by the next sweep (err=%v)", err)
	}
	if got := st.diskBytes(); got != 0 {
		t.Fatalf("tracked bytes %d after full eviction, want 0", got)
	}
}

// TestDiskStoreScanSeedsAccounting restarts the store over an existing
// directory and checks the budget applies to inherited entries too,
// each with its answer record's bytes — including unsealed space files
// (checkpoints), which a coordinator killed mid-dispatch can strand and
// which must stay evictable.
func TestDiskStoreScanSeedsAccounting(t *testing.T) {
	dir := t.TempDir()
	st, err := newDiskStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	putSpaces(t, st, lruSrcs, []string{"clamp", "myabs", "neg"})

	// Checkpoints mirrored into a key's space file (dist uploads) are
	// budgeted like any entry.
	ck := cacheKey(strings.Repeat("a", 64))
	if err := st.writeCkpt(ck, []byte("checkpoint bytes")); err != nil {
		t.Fatal(err)
	}
	total := st.diskBytes()
	if want := dirBytes(t, dir); total != want {
		t.Fatalf("tracked %d bytes, entries, records and the checkpoint hold %d", total, want)
	}

	st2, err := newDiskStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.diskBytes(); got != total {
		t.Fatalf("rescan tracked %d bytes, want %d", got, total)
	}
	st2.mu.Lock()
	st2.maxBytes = 1
	st2.sweepLocked("")
	st2.mu.Unlock()
	if got := st2.diskBytes(); got != 0 {
		t.Fatalf("inherited entries not evictable: %d bytes left", got)
	}
	if _, err := os.Stat(st2.path(ck)); !os.IsNotExist(err) {
		t.Fatalf("inherited checkpoint slot survived a 1-byte budget (err=%v)", err)
	}
	if left := dirNames(t, dir); len(left) != 0 {
		t.Fatalf("%v survived a 1-byte budget", left)
	}
}

// TestServerDiskMaxBytes drives eviction through the public surface:
// a server with a tiny disk budget keeps serving correct spaces while
// old entries fall off disk, and re-serves an evicted key by
// re-enumerating it rather than failing.
func TestServerDiskMaxBytes(t *testing.T) {
	dir := t.TempDir()
	// One cached space for these functions is ~1-3 KB; 4 KB holds one
	// or two but never all three.
	s, ts := newTestServer(t, Config{Dir: dir, DiskMaxBytes: 4 << 10, MemEntries: 1})
	hashes := map[string]string{}
	for name, src := range lruSrcs {
		status, doc, _ := post(t, ts, srcBody(src))
		if status != 200 {
			t.Fatalf("%s: status %d: %v", name, status, doc)
		}
		hashes[name] = doc["space_hash"].(string)
	}
	var spaceFiles int
	for _, name := range dirNames(t, dir) {
		if strings.HasSuffix(name, spaceSuffix) {
			spaceFiles++
		}
	}
	onDisk := dirBytes(t, dir) // entries and their records: finished flights leave nothing else
	if spaceFiles >= 3 {
		t.Fatalf("all %d entries on disk; budget evicted nothing", spaceFiles)
	}
	if onDisk > 4<<10 {
		t.Fatalf("%d bytes on disk, budget is %d", onDisk, 4<<10)
	}
	if got := s.store.diskBytes(); got != onDisk {
		t.Fatalf("tracked %d bytes, disk holds %d", got, onDisk)
	}

	// An evicted key is a miss, not an error: it re-enumerates to the
	// same hash. (MemEntries=1 keeps the memory tier from masking the
	// disk miss for at least the oldest key.)
	for name, src := range lruSrcs {
		status, doc, _ := post(t, ts, srcBody(src))
		if status != 200 || doc["space_hash"] != hashes[name] {
			t.Fatalf("%s after eviction: status %d hash %v, want 200 %s",
				name, status, doc["space_hash"], hashes[name])
		}
	}
}

// TestDiskStoreRemoveAccounting checks remove (the corrupt-entry path)
// deletes the pair and releases its bytes.
func TestDiskStoreRemoveAccounting(t *testing.T) {
	st, err := newDiskStore(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := putSpaces(t, st, lruSrcs, []string{"clamp"})
	if st.diskBytes() <= 0 {
		t.Fatal("nothing tracked after put")
	}
	st.remove(keys[0])
	if got := st.diskBytes(); got != 0 {
		t.Fatalf("tracked %d bytes after remove, want 0", got)
	}
	if left := dirNames(t, st.dir); len(left) != 0 {
		t.Fatalf("%v survived remove", left)
	}
}

// TestDiskStoreRemovesOrphanedTempFiles plants what a process killed
// mid-put and mid-checkpoint leaves behind: temp files that were never
// renamed — and what older builds kept beside an entry: a checkpoint
// slot of its own (<key>.ckpt.space.gz) and, from before the
// one-fleet-path change, a per-shard one; and an answer record whose
// entry is gone (an eviction the process died in). Start-up must delete
// every kind and count none.
func TestDiskStoreRemovesOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := newDiskStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := putSpaces(t, st, lruSrcs, []string{"clamp"})
	total := st.diskBytes()
	orphans := []string{st.path(keys[0]) + ".tmp", st.recordPath(keys[0]) + ".tmp",
		st.path(keys[0] + ".ckpt"), st.path(keys[0]+".ckpt") + ".tmp", st.path(keys[0] + ".shard1.ckpt"),
		st.recordPath(cacheKey(strings.Repeat("b", 64)))}
	for _, o := range orphans {
		if err := os.WriteFile(o, []byte("torn write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := newDiskStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range orphans {
		if _, err := os.Stat(o); !os.IsNotExist(err) {
			t.Errorf("%s survived start-up (err=%v)", filepath.Base(o), err)
		}
	}
	if got := st2.diskBytes(); got != total {
		t.Fatalf("rescan tracked %d bytes, want the pair's %d", got, total)
	}
	if _, err := st2.answer(keys[0]); err != nil {
		t.Fatalf("the surviving pair does not answer: %v", err)
	}
}

// TestDiskStoreAccountsPublishedFileWhenDirSyncFails: once a complete
// space is in the key's space file it is in the store, whatever the
// directory fsync then reports. Both ways of getting it there — put's
// rename, the engine's final write — end in published, so both must
// return the error with the budget already counting the file. The same
// holds when the entry cannot be read back to seal it: no record is
// written, nothing answers, and the entry still counts (a directory in
// the entry's place stands in for the read error).
func TestDiskStoreAccountsPublishedFileWhenDirSyncFails(t *testing.T) {
	fn := mustCompile(t, clampSrc, "clamp")
	k := requestKey(fn, normOptions{})
	for name, row := range map[string]struct {
		publish func(*diskStore) error
		faults  string
		sealed  bool
	}{
		"put": {func(st *diskStore) error {
			return st.put(k, canonicalBytes(t, search.Run(fn, search.Options{})), keyedEntry(k))
		}, "dirsyncfail=1", true},
		"final write": {func(st *diskStore) error {
			search.Run(fn, search.Options{CheckpointPath: st.path(k)})
			return st.published(k, keyedEntry(k))
		}, "dirsyncfail=1", true},
		"unreadable entry": {func(st *diskStore) error {
			if err := os.Mkdir(st.path(k), 0o755); err != nil {
				return err
			}
			return st.published(k, keyedEntry(k))
		}, "", false},
	} {
		st, err := newDiskStore(t.TempDir(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		st.faults = faultinject.MustParse(row.faults)
		err = row.publish(st)
		if row.sealed && !errors.Is(err, faultinject.ErrDirSync) {
			t.Fatalf("%s: err = %v, want the injected directory fsync failure", name, err)
		}
		if !row.sealed && (err == nil || !strings.Contains(err.Error(), "cache write")) {
			t.Fatalf("%s: err = %v, want the failure to read the entry back", name, err)
		}
		if _, err := st.answer(k); (err == nil) != row.sealed {
			t.Fatalf("%s: answer err = %v, want a sealed pair: %v", name, err, row.sealed)
		}
		if got, want := st.diskBytes(), dirBytes(t, st.dir); got != want || got == 0 {
			t.Fatalf("%s: budget tracks %d bytes, what is on disk has %d", name, got, want)
		}
		want := pairNames(string(k))
		if !row.sealed {
			want = want[1:] // the entry, with no record
		}
		if got := dirNames(t, st.dir); !slices.Equal(got, want) {
			t.Fatalf("%s: the directory holds %v, want only %v", name, got, want)
		}
	}
}
