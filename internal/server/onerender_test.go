package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/distcl"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// download is the body of GET /v1/space/{key}.
func download(t *testing.T, url, key string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/space/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/space/%s: status %d, %v", key, resp.StatusCode, err)
	}
	return b
}

// mallocs is the number of heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStoredBytesAreTheHash: what a cold flight stores is what it
// hashed. For default-tier, equiv and check requests the SHA-256 of the
// downloaded space is the answer's space_hash and the record's
// entry_sha256.
func TestStoredBytesAreTheHash(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, opt := range []string{"", `"equiv":true`, `"check":true`} {
		status, doc, _ := post(t, ts, fmt.Sprintf(`{"bench":"sha","func":"rotl","options":{%s}}`, opt))
		if status != http.StatusOK || doc["cache"] != "miss" {
			t.Fatalf("{%s}: status %d: %v", opt, status, doc)
		}
		key := doc["key"].(string)
		rec, err := s.store.record(cacheKey(key))
		if err != nil {
			t.Fatalf("{%s}: %v", opt, err)
		}
		if got := hexSum(download(t, ts.URL, key)); got != doc["space_hash"] || got != rec.EntrySHA256 {
			t.Errorf("{%s}: the download hashes to %s, the answer's space_hash is %v, the record's entry_sha256 %s",
				opt, got, doc["space_hash"], rec.EntrySHA256)
		}
	}
}

// timedSpace enumerates clamp with the clock on, so that the space as
// SaveFile writes it — what builds before this rule stored — differs
// from its canonical bytes.
func timedSpace(t *testing.T) (key cacheKey, res *search.Result, hash string) {
	t.Helper()
	fn := mustCompile(t, clampSrc, "clamp")
	res = search.Run(fn, search.Options{Metrics: telemetry.NewRegistry()})
	hash, err := res.CanonicalHash()
	if err != nil || res.Aborted {
		t.Fatalf("reference run: aborted=%v, %v", res.Aborted, err)
	}
	return requestKey(fn, normOptions{}), res, hash
}

// TestOlderPairStillHits: a pair an older build published — the entry
// written by SaveFile, wall-clock fields and all, so that its
// entry_sha256 is not its space_hash — is as valid as it ever was: a
// restarted server answers it from the record.
func TestOlderPairStillHits(t *testing.T) {
	dir := t.TempDir()
	key, res, want := timedSpace(t)
	s1, _ := newTestServer(t, Config{Dir: dir})
	var ent entry
	s1.admit(key, res, want, &ent)
	if err := res.SaveFile(s1.store.path(key)); err != nil {
		t.Fatal(err)
	}
	if err := s1.store.published(key, ent); err != nil {
		t.Fatal(err)
	}
	if rec, err := s1.store.record(key); err != nil || rec.EntrySHA256 == want {
		t.Fatalf("the planted pair is not in the older shape: entry_sha256 %s, space_hash %s (%v)", rec.EntrySHA256, want, err)
	}
	s1.Close()

	s2, ts2 := newTestServer(t, Config{Dir: dir})
	status, doc, _ := post(t, ts2, srcBody(clampSrc))
	if status != http.StatusOK || doc["cache"] != "disk" || doc["space_hash"] != want {
		t.Fatalf("status %d cache %v hash %v, want 200 disk %s", status, doc["cache"], doc["space_hash"], want)
	}
	for name, want := range map[string]int64{"server.enumerations": 0, "server.cache.corrupt": 0, "server.cache.hit_disk": 1} {
		if got := counter(s2, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestFoundSlotIsRehashed: a finished space found in the checkpoint
// slot carries no hash of its bytes — an older build's final write kept
// its timing — so it is named by rendering it, and promoted as it is.
func TestFoundSlotIsRehashed(t *testing.T) {
	dir := t.TempDir()
	key, res, want := timedSpace(t)
	slot := dir + "/" + string(key) + ckptSuffix
	if err := res.SaveFile(slot); err != nil {
		t.Fatal(err)
	}
	planted, err := os.ReadFile(slot)
	if err != nil || hexSum(planted) == want {
		t.Fatalf("the planted slot is already canonical (%v)", err)
	}

	s, ts := newTestServer(t, Config{Dir: dir})
	status, doc, _ := post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK || doc["cache"] != "miss" || doc["space_hash"] != want {
		t.Fatalf("status %d cache %v hash %v, want 200 miss %s", status, doc["cache"], doc["space_hash"], want)
	}
	if got := counter(s, "server.enumerations"); got != 0 {
		t.Errorf("server.enumerations = %d, want 0: the slot held the space", got)
	}
	if !bytes.Equal(download(t, ts.URL, string(key)), planted) {
		t.Error("the promoted entry is not the file the slot held")
	}
	if ent, err := s.store.answer(key); err != nil || ent.answer.SpaceHash != want {
		t.Errorf("the promoted pair answers %q (%v), want %s", ent.answer.SpaceHash, err, want)
	}
}

// TestColdFlightRendersOnce: a cold flight builds its space's document
// once. The bound is on heap objects allocated — a render allocates
// several per node, whatever the encoder and compressor pools hold, so
// the count barely moves between runs: publishing a flight of either
// tier, whose engine wrote and hashed the canonical bytes in its final
// write, allocates a small fraction of a render's.
func TestColdFlightRendersOnce(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	fn, err := s.resolve(&enumerateRequest{Bench: "stringsearch", Func: "bmh_search"})
	if err != nil {
		t.Fatal(err)
	}
	for _, no := range []normOptions{{}, {Equiv: true}} {
		fl := &flight{key: requestKey(fn, no), fn: fn, no: no, done: make(chan struct{}), startedAt: time.Now()}
		fl.ctx, fl.cancel = context.WithCancelCause(context.Background())
		res, err := s.resolveFlight(fl)
		if err != nil || len(res.Nodes) < 1000 {
			t.Fatalf("%+v: %v; want a space of 1,000 nodes or more", no, err)
		}
		render := mallocs(func() { res.CanonicalBytes() }) //nolint:errcheck // sized, not used
		publish := mallocs(func() { err = s.publish(fl, res) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%+v: one render allocates %d objects, the publish allocated %d", no, render, publish)
		stored, err := os.ReadFile(s.store.path(fl.key))
		if err != nil || hexSum(stored) != fl.ent.answer.SpaceHash {
			t.Fatalf("%+v: the stored entry does not hash to the answer's space_hash (%v)", no, err)
		}
		if res.SpaceHash == "" || publish >= render/4 {
			t.Errorf("publishing a flight %+v (SpaceHash %q) allocated %d objects, one render %d: want no render",
				no, res.SpaceHash, publish, render)
		}
	}
}

// TestFleetCompletionRendersOnce: the coordinator renders a fleet upload
// at most once. A shard part is named by the SHA-256 of the bytes it
// arrived as, so accepting it costs the decode and no render: beyond
// what search.Load of the same bytes allocates, under a quarter of one
// render's objects. A whole-space completion is rendered once to verify
// the worker's claim, and publish puts that render: the completion and
// its publish, beyond the decode, allocate about one render, not two.
func TestFleetCompletionRendersOnce(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	fn, err := s.resolve(&enumerateRequest{Bench: "stringsearch", Func: "bmh_search"})
	if err != nil {
		t.Fatal(err)
	}
	docs, _, err := search.PartitionCheckpoint(search.Run(fn, search.Options{StopAtFrontier: 2}), 2)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := search.Load(bytes.NewReader(docs[0]))
	if err != nil {
		t.Fatal(err)
	}
	part, err := search.Resume(seed, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		res   *search.Result
		whole bool
	}{
		{"part", part, false},
		{"whole", search.Run(fn, search.Options{}), true},
	} {
		body, err := c.res.CanonicalBytes()
		if err != nil || c.res.Aborted || len(c.res.Nodes) < 500 {
			t.Fatalf("%s: aborted=%v, %d nodes, %v; want a finished space of 500 nodes or more", c.name, c.res.Aborted, len(c.res.Nodes), err)
		}
		render := mallocs(func() { c.res.CanonicalBytes() })             //nolint:errcheck // sized, not used
		decode := mallocs(func() { search.Load(bytes.NewReader(body)) }) //nolint:errcheck // sized, not used
		fl := &flight{key: requestKey(fn, normOptions{}), fn: fn}
		a := &assignment{id: "a-" + c.name, fl: fl, whole: c.whole, state: stateAssigned,
			leaseUntil: time.Now().Add(time.Hour), done: make(chan struct{})}
		s.dist.mu.Lock()
		s.dist.assignments[a.id] = a
		s.dist.mu.Unlock()
		req, _ := json.Marshal(distcl.CompleteRequest{WorkerID: "w1", AssignmentID: a.id,
			SpaceHash: hexSum(body), SpaceB64: base64.StdEncoding.EncodeToString(body)})
		w := httptest.NewRecorder()
		cost := mallocs(func() {
			s.handleDistComplete(w, httptest.NewRequest(http.MethodPost, distcl.PathComplete, bytes.NewReader(req)))
			if c.whole {
				res, _ := s.dist.assemble(fl, nil, []*assignment{a}, nil)
				err = s.publish(fl, res)
			}
		})
		if w.Code != http.StatusOK || a.state != stateDone || err != nil {
			t.Fatalf("%s: completion answered %d %s (state %s, publish %v)", c.name, w.Code, w.Body, a.state, err)
		}
		extra := int64(cost) - int64(decode)
		t.Logf("%s: one render allocates %d objects, one decode %d; the completion allocated %d, %d beyond the decode",
			c.name, render, decode, cost, extra)
		if c.whole {
			if stored, err := os.ReadFile(s.store.path(fl.key)); err != nil || hexSum(stored) != hexSum(body) {
				t.Errorf("whole: the stored entry is not the canonical bytes (%v)", err)
			}
			if extra < int64(render)/2 || extra >= int64(render)*3/2 {
				t.Errorf("a whole completion and its publish allocated %d objects beyond the decode, one render %d: want one render", extra, render)
			}
		} else if extra >= int64(render)/4 {
			t.Errorf("accepting a part allocated %d objects beyond the decode, one render %d: want no render", extra, render)
		}
	}
}
