package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/search"
)

// TestDamagedPairIsAMiss provokes every way an entry and its answer
// record can disagree and asks a restarted server for the key. Whatever
// is wrong, the request is a miss that answers the original hash and
// leaves a pair that checks out; a pair that was there and did not
// check out is counted corrupt and enumerated once, a key that simply
// has no record is not counted: its space file is a finished space in
// the slot, found and sealed with no enumeration.
func TestDamagedPairIsAMiss(t *testing.T) {
	flip := func(t *testing.T, path string, at func(size int) int) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[at(len(b))] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	halve := func(t *testing.T, path string) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	// other is another function's published pair, in a directory of its
	// own: a loadable space and a record that checks out, for another key.
	other, err := newDiskStore(t.TempDir(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	otherKey := putSpaces(t, other, lruSrcs, []string{"neg"})[0]
	copyOver := func(t *testing.T, from, to string) {
		b, err := os.ReadFile(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, row := range []struct {
		name string
		// damage is applied to the stopped server's directory, or, with
		// live set, under the restarted one (after its start-up scan).
		damage  func(t *testing.T, st *diskStore, k cacheKey)
		live    bool
		corrupt int64
		found   bool // the space file is found finished: no enumeration
	}{
		{name: "record absent", found: true,
			damage: func(t *testing.T, st *diskStore, k cacheKey) { remove(t, st.recordPath(k)) }},
		{name: "record truncated", corrupt: 1,
			damage: func(t *testing.T, st *diskStore, k cacheKey) { halve(t, st.recordPath(k)) }},
		{name: "record cut inside its checksum line", corrupt: 1,
			damage: func(t *testing.T, st *diskStore, k cacheKey) {
				if err := os.Truncate(st.recordPath(k), 10); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "record fails its own checksum", corrupt: 1,
			damage: func(t *testing.T, st *diskStore, k cacheKey) {
				flip(t, st.recordPath(k), func(size int) int { return size - 2 })
			}},
		{name: "record names another key", corrupt: 1,
			damage: func(t *testing.T, st *diskStore, k cacheKey) {
				copyOver(t, other.recordPath(otherKey), st.recordPath(k))
			}},
		{name: "entry with one byte flipped", corrupt: 1,
			damage: func(t *testing.T, st *diskStore, k cacheKey) {
				flip(t, st.path(k), func(size int) int { return size / 2 })
			}},
		{name: "entry truncated", corrupt: 1,
			damage: func(t *testing.T, st *diskStore, k cacheKey) { halve(t, st.path(k)) }},
		{name: "entry is another function's space", corrupt: 1,
			damage: func(t *testing.T, st *diskStore, k cacheKey) {
				copyOver(t, other.path(otherKey), st.path(k))
			}},
		{name: "entry is a checkpoint document", corrupt: 1,
			damage: func(t *testing.T, st *diskStore, k cacheKey) {
				fn := mustCompile(t, clampSrc, "clamp")
				search.Run(fn, search.Options{CheckpointPath: st.path(k), StopAtFrontier: 2})
				if res, err := search.LoadFile(st.path(k)); err != nil || res.Checkpoint == nil {
					t.Fatalf("the planted checkpoint does not load as one: %v", err)
				}
			}},
		{name: "entry absent at start-up", // the scan drops the widowed record
			damage: func(t *testing.T, st *diskStore, k cacheKey) { remove(t, st.path(k)) }},
		{name: "entry absent under a running server", live: true, corrupt: 1,
			damage: func(t *testing.T, st *diskStore, k cacheKey) { remove(t, st.path(k)) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1 := newTestServer(t, Config{Dir: dir})
			status, cold, _ := post(t, ts1, srcBody(clampSrc))
			if status != http.StatusOK {
				t.Fatalf("seed request: status %d: %v", status, cold)
			}
			key := cacheKey(cold["key"].(string))
			ts1.Close()
			s1.Close()

			if !row.live {
				row.damage(t, s1.store, key)
			}
			s2, ts2 := newTestServer(t, Config{Dir: dir})
			if row.live {
				row.damage(t, s2.store, key)
			}
			status, doc, _ := post(t, ts2, srcBody(clampSrc))
			if status != http.StatusOK {
				t.Fatalf("request over the damaged pair: status %d: %v", status, doc)
			}
			if doc["cache"] != "miss" {
				t.Errorf("answered as %q, want a miss", doc["cache"])
			}
			if doc["space_hash"] != cold["space_hash"] {
				t.Errorf("answered hash %v, the space's is %v", doc["space_hash"], cold["space_hash"])
			}
			enums := int64(1)
			if row.found {
				enums = 0
			}
			for name, want := range map[string]int64{"server.cache.corrupt": row.corrupt,
				"server.enumerations": enums, "server.cache.hit_disk": 0} {
				if got := counter(s2, name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if got := dirNames(t, dir); !slices.Equal(got, pairNames(string(key))) {
				t.Errorf("cache dir holds %v afterwards, want the re-published pair", got)
			}
			ent, err := s2.store.answer(key)
			if err != nil {
				t.Fatalf("the re-published pair does not check out: %v", err)
			}
			if ent.answer.SpaceHash != cold["space_hash"] {
				t.Errorf("the re-published record answers hash %s, want %v", ent.answer.SpaceHash, cold["space_hash"])
			}
			if _, err := s2.store.load(key); err != nil {
				t.Errorf("the re-published entry does not load: %v", err)
			}
		})
	}
}

// TestDiskHitIsTheColdAnswer: what a restarted server answers from the
// record is, field for field, what the enumeration answered — the
// response but for the request's own cache tier and latency, and the
// statistics a flight record reads — for default, equiv and check
// requests alike, with no enumeration in the new process.
func TestDiskHitIsTheColdAnswer(t *testing.T) {
	dir := t.TempDir()
	type request struct{ body, name string }
	var reqs []request
	for _, fn := range [][2]string{{"sha", "rotl"}, {"bitcount", "bit_shifter"}, {"fft", "fix_sin"}} {
		for _, opt := range []string{"", `"equiv":true`, `"check":true`} {
			reqs = append(reqs, request{
				body: fmt.Sprintf(`{"bench":%q,"func":%q,"options":{%s}}`, fn[0], fn[1], opt),
				name: fn[0] + "/" + fn[1] + " {" + opt + "}"})
		}
	}
	s1, ts1 := newTestServer(t, Config{Dir: dir})
	cold := make([]entry, len(reqs))
	for i, rq := range reqs {
		status, doc, _ := post(t, ts1, rq.body)
		if status != http.StatusOK || doc["cache"] != "miss" {
			t.Fatalf("%s cold: status %d: %v", rq.name, status, doc)
		}
		ent, ok := s1.mem.get(cacheKey(doc["key"].(string)))
		if !ok || ent.stats.Attempts == 0 {
			t.Fatalf("%s: the cold answer is not in the memory cache: %+v", rq.name, ent)
		}
		cold[i] = ent
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{Dir: dir})
	for i, rq := range reqs {
		status, doc, _ := post(t, ts2, rq.body)
		if status != http.StatusOK || doc["cache"] != "disk" {
			t.Fatalf("%s after the restart: status %d: %v", rq.name, status, doc)
		}
		// The wire answer is the cold entry's but for the request's own two
		// fields.
		var got enumerateResponse
		wire, _ := json.Marshal(doc)
		if err := json.Unmarshal(wire, &got); err != nil {
			t.Fatal(err)
		}
		got.Cache, got.ElapsedMS = "", 0
		if got != cold[i].answer {
			t.Errorf("%s: the disk hit answered\n %+v\nthe enumeration answered\n %+v", rq.name, got, cold[i].answer)
		}
		ent, _ := s2.mem.get(cacheKey(doc["key"].(string)))
		if ent.answer != cold[i].answer || ent.stats != cold[i].stats {
			t.Errorf("%s: the disk hit filled the LRU with\n %+v\nthe enumeration with\n %+v", rq.name, ent, cold[i])
		}
	}
	for name, want := range map[string]int64{"server.enumerations": 0, "server.cache.corrupt": 0,
		"server.cache.hit_disk": int64(len(reqs))} {
		if got := counter(s2, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestDiskHitDecodesNothing: a disk hit reads a record and checksums
// the stored bytes through one copy buffer. Decoding a space of this
// size allocates megabytes, so a reintroduced decode fails here and not
// only in a benchmark.
func TestDiskHitDecodesNothing(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Dir: dir})
	status, cold, _ := post(t, ts1, `{"bench":"stringsearch","func":"bmh_search"}`)
	if status != http.StatusOK || cold["nodes"].(float64) < 1000 {
		t.Fatalf("cold request: status %d: %v; want a space of 1,000 nodes or more", status, cold)
	}
	fn, err := s1.resolve(&enumerateRequest{Bench: "stringsearch", Func: "bmh_search"})
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	s2, _ := newTestServer(t, Config{Dir: dir})
	fl := &flight{key: cacheKey(cold["key"].(string)), fn: fn, done: make(chan struct{}), startedAt: time.Now()}
	fl.ctx, fl.cancel = context.WithCancelCause(context.Background())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2.runFlight(fl)
	runtime.ReadMemStats(&after)
	if fl.err != nil || fl.cacheHow != "disk" || fl.ent.answer.SpaceHash != cold["space_hash"] {
		t.Fatalf("flight resolved as %q (err %v) with hash %s, want a disk hit on %v",
			fl.cacheHow, fl.err, fl.ent.answer.SpaceHash, cold["space_hash"])
	}
	t.Logf("disk hit allocated %d bytes", after.TotalAlloc-before.TotalAlloc)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("a disk hit on a %v-node space allocated %d bytes, want under 64 KiB", cold["nodes"], got)
	}
}

// TestStatsDropsUnloadableEntry: an entry the /v1/stats fold cannot
// decode is treated as the flight path treats one — counted, removed
// with its record, logged once — and not retried on every call.
func TestStatsDropsUnloadableEntry(t *testing.T) {
	dir := t.TempDir()
	var logs bytes.Buffer
	s, ts := newTestServer(t, Config{Dir: dir, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	status, doc, _ := post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK {
		t.Fatalf("seed request: status %d: %v", status, doc)
	}
	key := doc["key"].(string)
	if err := os.WriteFile(s.store.path(cacheKey(key)), []byte("definitely not a space file"), 0o644); err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 2; call++ {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats struct {
			Spaces int `json:"spaces"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if stats.Spaces != 0 {
			t.Errorf("call %d: %d spaces tabulated, want none", call, stats.Spaces)
		}
		if got := counter(s, "server.cache.corrupt"); got != 1 {
			t.Errorf("call %d: server.cache.corrupt = %d, want 1", call, got)
		}
	}
	if left := dirNames(t, dir); len(left) != 0 {
		t.Errorf("%v left in the cache dir, want the pair removed", left)
	}
	if got := s.store.diskBytes(); got != 0 {
		t.Errorf("%d bytes still tracked", got)
	}
	if n := strings.Count(logs.String(), `"msg":"cache entry dropped"`); n != 1 || !strings.Contains(logs.String(), key) {
		t.Errorf("%d \"cache entry dropped\" records naming %s, want 1:\n%s", n, key, logs.String())
	}
}

// TestSpaceDownloadHasALength: the stored bytes go out with their
// length, not chunked.
func TestSpaceDownloadHasALength(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, doc, _ := post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK {
		t.Fatalf("enumerate: status %d: %v", status, doc)
	}
	key := doc["key"].(string)
	stored, err := os.ReadFile(s.store.path(cacheKey(key)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/space/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(stored)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v; want %d and none", resp.ContentLength, resp.TransferEncoding, len(stored))
	}
	if !bytes.Equal(body.Bytes(), stored) {
		t.Error("the served body is not the stored entry")
	}
}

// TestSpaceDownloadIsTagged: the record's SHA-256 of the stored bytes
// goes out as a strong entity tag, so a client that has the space gets
// 304 and a range is held to the tag; a key whose record is gone has no
// entry, only a space file, and answers 404.
func TestSpaceDownloadIsTagged(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, doc, _ := post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK {
		t.Fatalf("enumerate: status %d: %v", status, doc)
	}
	key := doc["key"].(string)
	stored, err := os.ReadFile(s.store.path(cacheKey(key)))
	if err != nil {
		t.Fatal(err)
	}
	get := func(header ...string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/space/"+key, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(header); i += 2 {
			req.Header.Set(header[i], header[i+1])
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, body.Bytes()
	}

	tag := `"` + hexSum(stored) + `"`
	resp, body := get()
	if got := resp.Header.Get("ETag"); got != tag || tag != `"`+doc["space_hash"].(string)+`"` {
		t.Fatalf("ETag %s, the stored bytes hash to %s and the answer's space_hash is %v", got, tag, doc["space_hash"])
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, stored) {
		t.Errorf("plain GET: status %d, %d bytes; want 200 and the stored %d", resp.StatusCode, len(body), len(stored))
	}
	if resp, body := get("If-None-Match", tag); resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Errorf("If-None-Match with the tag: status %d, %d bytes; want 304 and none", resp.StatusCode, len(body))
	}
	if resp, _ := get("If-None-Match", `"0000"`); resp.StatusCode != http.StatusOK {
		t.Errorf("If-None-Match with another tag: status %d, want 200", resp.StatusCode)
	}
	if resp, body := get("Range", "bytes=0-9", "If-Range", tag); resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, stored[:10]) {
		t.Errorf("If-Range with the tag: status %d, %d bytes; want 206 and the first 10", resp.StatusCode, len(body))
	}
	if resp, body := get("Range", "bytes=0-9", "If-Range", `"0000"`); resp.StatusCode != http.StatusOK || !bytes.Equal(body, stored) {
		t.Errorf("If-Range with another tag: status %d, %d bytes; want 200 and the whole entry", resp.StatusCode, len(body))
	}

	if err := os.Remove(s.store.recordPath(cacheKey(key))); err != nil {
		t.Fatal(err)
	}
	if resp, _ = get("If-None-Match", tag); resp.StatusCode != http.StatusNotFound {
		t.Errorf("without a record: status %d, want 404", resp.StatusCode)
	}
}
