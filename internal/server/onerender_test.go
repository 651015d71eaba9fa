package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
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

// clampSpace enumerates clamp with the clock on, so that a space file
// that kept the run's wall-clock fields would differ from its canonical
// bytes.
func clampSpace(t *testing.T) (key cacheKey, res *search.Result, hash string) {
	t.Helper()
	fn := mustCompile(t, clampSrc, "clamp")
	res = search.Run(fn, search.Options{Metrics: telemetry.NewRegistry()})
	hash, err := res.CanonicalHash()
	if err != nil || res.Aborted {
		t.Fatalf("reference run: aborted=%v, %v", res.Aborted, err)
	}
	return requestKey(fn, normOptions{}), res, hash
}

// timed is canon, a complete space's canonical bytes, as a build from
// before Save wrote those left it: elapsed_ns set.
func timed(t *testing.T, canon []byte) []byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(canon))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := io.ReadAll(gz)
	if err != nil || !bytes.Contains(doc, []byte(`"elapsed_ns":0,`)) {
		t.Fatalf("no zero elapsed_ns to set (%v)", err)
	}
	var out bytes.Buffer
	w := gzip.NewWriter(&out)
	w.Write(bytes.Replace(doc, []byte(`"elapsed_ns":0,`), []byte(`"elapsed_ns":1234567,`), 1))
	w.Close()
	return out.Bytes()
}

// TestOlderPairStillHits: a pair an older build published — an entry
// with wall-clock fields, so that its entry_sha256 is not its
// space_hash — is as valid as it ever was: a restarted server answers it
// from the record.
func TestOlderPairStillHits(t *testing.T) {
	dir := t.TempDir()
	key, res, want := clampSpace(t)
	s1, _ := newTestServer(t, Config{Dir: dir})
	var ent entry
	s1.admit(key, res, want, &ent)
	if err := os.WriteFile(s1.store.path(key), timed(t, canonicalBytes(t, res)), 0o644); err != nil {
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

// TestFoundSlotIsRehashed: a finished space found in the key's space
// file with no answer record is named by the SHA-256 of its file. A
// canonical one — what Save and the engine's final write put down — is
// published as it is, by writing its record, with no enumeration and no
// render, and sha256sum of the entry is the answer's space_hash. One
// that kept its timing was written by an older build; its file's hash is
// not its space_hash, so it is enumerated again.
func TestFoundSlotIsRehashed(t *testing.T) {
	t.Run("canonical slot is promoted", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := newTestServer(t, Config{Dir: dir})
		fn, err := s.resolve(&enumerateRequest{Bench: "stringsearch", Func: "bmh_search"})
		if err != nil {
			t.Fatal(err)
		}
		fl := &flight{key: requestKey(fn, normOptions{}), fn: fn, done: make(chan struct{}), startedAt: time.Now()}
		fl.ctx, fl.cancel = context.WithCancelCause(context.Background())
		ref := search.Run(fn, search.Options{Metrics: telemetry.NewRegistry()})
		want, err := ref.CanonicalHash()
		if err != nil || len(ref.Nodes) < 1000 {
			t.Fatalf("%d nodes, %v; want a space of 1,000 nodes or more", len(ref.Nodes), err)
		}
		if err := search.WriteFile(s.store.path(fl.key), ref.Save, true); err != nil {
			t.Fatal(err)
		}
		before := search.Rendered()
		res, err := s.resolveFlight(fl)
		if err != nil {
			t.Fatal(err)
		}
		if err = s.publish(fl, res); err != nil {
			t.Fatal(err)
		}
		renders := search.Rendered() - before
		if got := counter(s, "server.enumerations"); got != 0 {
			t.Errorf("server.enumerations = %d, want 0: the slot held the space", got)
		}
		if res.SpaceHash != want || renders != 0 {
			t.Errorf("finding and publishing a slot (SpaceHash %q, want %s) rendered the space %d times: want no render",
				res.SpaceHash, want, renders)
		}
		stored, err := os.ReadFile(s.store.path(fl.key))
		if err != nil || hexSum(stored) != want || fl.ent.answer.SpaceHash != want {
			t.Errorf("the entry hashes to %s, the answer's space_hash is %s, want %s (%v)", hexSum(stored), fl.ent.answer.SpaceHash, want, err)
		}
	})
	t.Run("timed older-build slot is enumerated again", func(t *testing.T) {
		dir := t.TempDir()
		key, res, want := clampSpace(t)
		if err := os.WriteFile(dir+"/"+string(key)+spaceSuffix, timed(t, canonicalBytes(t, res)), 0o644); err != nil {
			t.Fatal(err)
		}
		s, ts := newTestServer(t, Config{Dir: dir})
		status, doc, _ := post(t, ts, srcBody(clampSrc))
		if status != http.StatusOK || doc["cache"] != "miss" || doc["space_hash"] != want {
			t.Fatalf("status %d cache %v hash %v, want 200 miss %s", status, doc["cache"], doc["space_hash"], want)
		}
		if got := counter(s, "server.enumerations"); got != 1 {
			t.Errorf("server.enumerations = %d, want 1: the timed slot is replaced", got)
		}
		if got := hexSum(download(t, ts.URL, string(key))); got != want {
			t.Errorf("the published entry hashes to %s, want %s", got, want)
		}
	})
}

// TestColdFlightRendersOnce: a cold flight builds its space's document
// once. A flight of either tier renders the complete space in its
// engine's final write, which hashes the canonical bytes as they go to
// the key's space file, and publishing it renders nothing more
// (search.Rendered counts renders; a render's heap cost is no
// yardstick, it holds one node at a time in pooled scratch).
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
		before := search.Rendered()
		if err = s.publish(fl, res); err != nil {
			t.Fatal(err)
		}
		renders := search.Rendered() - before
		stored, err := os.ReadFile(s.store.path(fl.key))
		if err != nil || hexSum(stored) != fl.ent.answer.SpaceHash {
			t.Fatalf("%+v: the stored entry does not hash to the answer's space_hash (%v)", no, err)
		}
		if res.SpaceHash == "" || renders != 0 {
			t.Errorf("publishing a flight %+v (SpaceHash %q) rendered its space %d times: want no render",
				no, res.SpaceHash, renders)
		}
	}
}

// TestFleetCompletionStoresTheUploadAsItArrived: the coordinator does
// not render a canonical fleet upload to store it. search.LoadCanonical
// proves the upload is what Save would write, and publish puts it as it
// arrived. The completion and its publish render the space once: the
// document the proof re-encodes against the decompressed upload, which
// streams into the comparison and is never stored.
func TestFleetCompletionStoresTheUploadAsItArrived(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	fn, err := s.resolve(&enumerateRequest{Bench: "stringsearch", Func: "bmh_search"})
	if err != nil {
		t.Fatal(err)
	}
	full := search.Run(fn, search.Options{})
	if full.Aborted || len(full.Nodes) < 500 {
		t.Fatalf("aborted=%v, %d nodes; want a finished space of 500 nodes or more", full.Aborted, len(full.Nodes))
	}
	body := canonicalBytes(t, full)
	fl := &flight{key: requestKey(fn, normOptions{}), fn: fn}
	a := &assignment{id: "a-whole", fl: fl, state: stateAssigned,
		leaseUntil: time.Now().Add(time.Hour), done: make(chan struct{})}
	s.dist.mu.Lock()
	s.dist.assignments[a.id] = a
	s.dist.mu.Unlock()
	req, _ := json.Marshal(distcl.CompleteRequest{WorkerID: "w1", AssignmentID: a.id,
		SpaceHash: hexSum(body), SpaceB64: base64.StdEncoding.EncodeToString(body)})
	w := httptest.NewRecorder()
	before := search.Rendered()
	s.handleDistComplete(w, httptest.NewRequest(http.MethodPost, distcl.PathComplete, bytes.NewReader(req)))
	fl.canon = a.canon // what dispatcher.enumerate hands publish
	err = s.publish(fl, a.res)
	renders := search.Rendered() - before
	if w.Code != http.StatusOK || a.state != stateDone || err != nil {
		t.Fatalf("completion answered %d %s (state %s, publish %v)", w.Code, w.Body, a.state, err)
	}
	if stored, err := os.ReadFile(s.store.path(fl.key)); err != nil || !bytes.Equal(stored, body) {
		t.Errorf("the stored entry is not the upload as it arrived (%v)", err)
	}
	if renders != 1 {
		t.Errorf("a completion and its publish rendered the space %d times: want once, the proof's re-encode", renders)
	}
}
