package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mc"
	"repro/internal/rtl"
	"repro/internal/search"
)

const (
	clampSrc = `int clamp(int x, int lo, int hi) {
    if (x < lo) return lo;
    if (x > hi) return hi;
    return x;
}`
	absSrc = `int myabs(int x) { if (x < 0) return 0 - x; return x; }`
	negSrc = `int neg(int x) { return 0 - x; }`
	sumSrc = `
int a[16] = {5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int sum(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) s += a[i];
    return s;
}`
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends an enumerate request and decodes the JSON response.
func post(t *testing.T, ts *httptest.Server, body string) (int, map[string]any, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, doc, resp.Header
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func counter(s *Server, name string) int64 { return s.reg.Counter(name).Value() }

func srcBody(src string) string {
	b, _ := json.Marshal(map[string]string{"source": src})
	return string(b)
}

// TestCoalescesIdenticalRequests holds the first flight open on the
// worker while more identical requests arrive: all of them must join
// that flight (singleflight), the function must be enumerated exactly
// once, and a later request must be served from the in-memory cache.
func TestCoalescesIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	s.beforeEnumerate = func(*flight) { <-release }

	const n = 3
	type reply struct {
		status int
		doc    map[string]any
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			status, doc, _ := post(t, ts, srcBody(clampSrc))
			replies <- reply{status, doc}
		}()
	}
	// Only release the worker once the other requests have provably
	// coalesced onto the first one's flight.
	waitFor(t, "2 coalesced requests", func() bool { return counter(s, "server.coalesced") == 2 })
	unblock()

	hashes := map[string]bool{}
	caches := map[string]int{}
	for i := 0; i < n; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %v", i, r.status, r.doc)
		}
		hashes[r.doc["space_hash"].(string)] = true
		caches[r.doc["cache"].(string)]++
	}
	if len(hashes) != 1 {
		t.Fatalf("coalesced requests saw different spaces: %v", hashes)
	}
	if caches["miss"] != 1 || caches["coalesced"] != 2 {
		t.Fatalf("cache statuses = %v, want 1 miss + 2 coalesced", caches)
	}
	if got := counter(s, "server.enumerations"); got != 1 {
		t.Fatalf("%d identical concurrent requests ran %d enumerations, want exactly 1", n, got)
	}

	// Warm repeat: served from the LRU, still exactly one enumeration.
	status, doc, _ := post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK || doc["cache"] != "mem" {
		t.Fatalf("warm repeat: status %d cache %v, want 200 mem", status, doc["cache"])
	}
	if got := counter(s, "server.enumerations"); got != 1 {
		t.Fatalf("warm repeat re-enumerated: %d enumerations", got)
	}
}

// TestParallelIdenticalAndDistinct hammers the server with identical
// and distinct requests concurrently (meant for -race): every distinct
// (function, options) key must be enumerated exactly once, whichever
// way the requests interleave.
func TestParallelIdenticalAndDistinct(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	bodies := []string{srcBody(clampSrc), srcBody(absSrc), srcBody(negSrc)}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for _, body := range bodies {
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				status, doc, _ := post(t, ts, body)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %v", status, doc)
				}
			}(body)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := counter(s, "server.enumerations"); got != int64(len(bodies)) {
		t.Fatalf("%d distinct keys ran %d enumerations, want exactly %d", len(bodies), got, len(bodies))
	}
}

// TestQueueOverflowSheds fills the single-worker, depth-one queue and
// checks the next request is shed with 429 + Retry-After instead of
// queueing without bound.
func TestQueueOverflowSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	entered := make(chan *flight, 8)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	s.beforeEnumerate = func(fl *flight) {
		entered <- fl
		<-release
	}

	done := make(chan int, 2)
	go func() { st, _, _ := post(t, ts, srcBody(clampSrc)); done <- st }()
	<-entered // the lone worker is now held busy
	go func() { st, _, _ := post(t, ts, srcBody(absSrc)); done <- st }()
	waitFor(t, "second request queued", func() bool { return len(s.pool.queue) == 1 })

	status, doc, hdr := post(t, ts, srcBody(negSrc))
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d (%v), want 429", status, doc)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if got := counter(s, "server.shed"); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	unblock()
	for i := 0; i < 2; i++ {
		if st := <-done; st != http.StatusOK {
			t.Fatalf("held request finished with status %d", st)
		}
	}
}

// TestCorruptDiskEntryReEnumerates damages a cached space file and
// checks the next request treats it as a miss — dropping the damaged
// entry, re-enumerating and healing the slot — rather than failing.
func TestCorruptDiskEntryReEnumerates(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Dir: dir})
	status, doc, _ := post(t, ts1, srcBody(clampSrc))
	if status != http.StatusOK {
		t.Fatalf("seed request: status %d: %v", status, doc)
	}
	key := doc["key"].(string)
	wantHash := doc["space_hash"].(string)
	path := filepath.Join(dir, key+spaceSuffix)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cache entry not on disk: %v", err)
	}
	if err := os.WriteFile(path, []byte("definitely not a space file"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh server over the same directory has a cold LRU, so the
	// damaged file is its first stop.
	s2, ts2 := newTestServer(t, Config{Dir: dir})
	status, doc, _ = post(t, ts2, srcBody(clampSrc))
	if status != http.StatusOK {
		t.Fatalf("request over damaged entry: status %d: %v", status, doc)
	}
	if doc["cache"] != "miss" {
		t.Fatalf("damaged entry served as %q, want a miss", doc["cache"])
	}
	if doc["space_hash"] != wantHash {
		t.Fatalf("re-enumeration produced hash %v, want %v", doc["space_hash"], wantHash)
	}
	if got := counter(s2, "server.cache.corrupt"); got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
	if got := counter(s2, "server.enumerations"); got != 1 {
		t.Fatalf("re-enumerations = %d, want 1", got)
	}
	// The slot healed: the rewritten file loads.
	if _, err := s2.store.load(cacheKey(key)); err != nil {
		t.Fatalf("slot did not heal: %v", err)
	}
}

// TestCorruptDiskEntryConcurrentRequests hammers a damaged disk entry
// with N identical concurrent requests (meant for -race): exactly one
// flight forms, discovers the corruption, and re-enumerates exactly
// once; every response carries the healed space.
func TestCorruptDiskEntryConcurrentRequests(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Dir: dir})
	status, doc, _ := post(t, ts1, srcBody(clampSrc))
	if status != http.StatusOK {
		t.Fatalf("seed request: status %d: %v", status, doc)
	}
	key := doc["key"].(string)
	wantHash := doc["space_hash"].(string)
	if err := os.WriteFile(filepath.Join(dir, key+spaceSuffix), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh server has a cold LRU, so every request races toward the
	// damaged disk entry.
	s2, ts2 := newTestServer(t, Config{Dir: dir, Workers: 2, QueueDepth: 32})
	const n = 8
	type reply struct {
		status int
		doc    map[string]any
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			st, doc, _ := post(t, ts2, srcBody(clampSrc))
			replies <- reply{st, doc}
		}()
	}
	for i := 0; i < n; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %v", i, r.status, r.doc)
		}
		if r.doc["space_hash"] != wantHash {
			t.Fatalf("request %d: hash %v, want %v", i, r.doc["space_hash"], wantHash)
		}
	}
	if got := counter(s2, "server.enumerations"); got != 1 {
		t.Fatalf("%d concurrent requests over a corrupt entry ran %d enumerations, want exactly 1", n, got)
	}
	if got := counter(s2, "server.cache.corrupt"); got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
}

// TestDrainCheckpointsInFlight is the SIGTERM path: Close cancels an
// in-flight enumeration (held slow by an injected hang fault), which
// must checkpoint its partial space into the key's space file. With no
// answer record that file is no entry: a fresh server over the same
// cache directory neither serves it nor folds or drops it in /v1/stats,
// and the next request resumes from it and serves a space identical to
// an uninterrupted run. Both tiers drain and resume alike.
func TestDrainCheckpointsInFlight(t *testing.T) {
	for _, equiv := range []bool{false, true} {
		t.Run(fmt.Sprintf("equiv=%v", equiv), func(t *testing.T) {
			drainAndResume(t, equiv)
		})
	}
}

func drainAndResume(t *testing.T, equiv bool) {
	dir := t.TempDir()
	s1, err := New(Config{
		Dir:     dir,
		Workers: 1,
		// Every application of phase c stalls 150ms: the sum space has
		// dozens of instances, so the enumeration reliably outlives the
		// Close below.
		Faults: faultinject.MustParse("hang=c:150ms"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()

	body := fmt.Sprintf(`{"source":%s,"options":{"equiv":%v}}`, jsonStr(sumSrc), equiv)
	replies := postAsync(t, ts1, body)
	waitFor(t, "enumeration to start", func() bool { return counter(s1, "server.enumerations") == 1 })
	s1.Close() // SIGTERM: cancel, checkpoint, drain

	r := <-replies
	if r.status != http.StatusServiceUnavailable {
		t.Fatalf("drained request: status %d (%v), want 503", r.status, r.doc)
	}

	fn := mustCompile(t, sumSrc, "sum")
	key := requestKey(fn, normOptions{Equiv: equiv})
	ckpt, err := search.LoadFile(s1.store.path(key))
	if err != nil {
		t.Fatalf("drain left no checkpoint: %v", err)
	}
	if ckpt.Checkpoint == nil || (ckpt.Equiv != nil) != equiv {
		t.Fatalf("drain checkpoint has no frontier to resume from, or is of the other tier (equiv %v)", ckpt.Equiv)
	}

	// The resumed space must match a clean, uninterrupted enumeration.
	clean := search.Run(fn, search.Options{Equiv: equiv})
	want, err := clean.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Dir: dir})
	resp, err := http.Get(ts2.URL + "/v1/space/" + string(key))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of the drained space: status %d, want 404", resp.StatusCode)
	}
	var stats struct {
		Spaces int `json:"spaces"`
	}
	getJSON(t, ts2, "/v1/stats", &stats)
	if got := counter(s2, "server.cache.corrupt"); stats.Spaces != 0 || got != 0 {
		t.Fatalf("/v1/stats over the drained space: spaces %d, server.cache.corrupt %d; want 0 and 0", stats.Spaces, got)
	}
	if _, err := os.Stat(s2.store.path(key)); err != nil {
		t.Fatalf("/v1/stats touched the drained space: %v", err)
	}
	status, doc, _ := post(t, ts2, body)
	if status != http.StatusOK {
		t.Fatalf("resume request: status %d: %v", status, doc)
	}
	if got := counter(s2, "server.enumerations.resumed"); got != 1 {
		t.Fatalf("resumed counter = %d, want 1 (fresh enumeration instead of resume?)", got)
	}
	if doc["space_hash"] != want {
		t.Fatalf("resumed space hash %v differs from a clean run %v", doc["space_hash"], want)
	}
}

// TestDeadlineDetachesRequestFromFlight: a request whose deadline
// expires gets 504, but its flight is NOT canceled — the enumeration's
// lifetime belongs to the flight, not to any request — so it runs to
// completion and caches its space, and the inevitable retry is a cache
// hit instead of a second enumeration.
func TestDeadlineDetachesRequestFromFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Faults:  faultinject.MustParse("hang=c:100ms"),
	})
	status, doc, _ := post(t, ts, `{"source":`+jsonStr(clampSrc)+`,"options":{"deadline_ms":30}}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("impatient request: status %d (%v), want 504", status, doc)
	}
	// The abandoned flight keeps running and retires into the cache.
	waitFor(t, "abandoned flight to finish", func() bool { return s.pool.flightCount() == 0 })

	status, doc, _ = post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK {
		t.Fatalf("retry: status %d (%v), want 200", status, doc)
	}
	if doc["cache"] != "mem" {
		t.Fatalf("retry served as %q, want mem (the abandoned flight should have cached its space)", doc["cache"])
	}
	if got := counter(s, "server.enumerations"); got != 1 {
		t.Fatalf("enumerations = %d, want exactly 1 (the retry must not re-enumerate)", got)
	}
	want, err := search.Run(mustCompile(t, clampSrc, "clamp"), search.Options{
		Faults: faultinject.MustParse("hang=c:100ms"),
	}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if doc["space_hash"] != want {
		t.Fatalf("space after abandoned flight %v differs from clean run %v", doc["space_hash"], want)
	}
}

// TestLeaderDisconnectKeepsFlightForFollowers is the regression test
// for tying an enumeration's lifetime to a request context: a leader
// that disconnects mid-flight must not cancel the work — a follower
// that joins after the leader is gone still gets the space, from the
// one and only enumeration.
func TestLeaderDisconnectKeepsFlightForFollowers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{})
	release := make(chan struct{})
	var startOnce, releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	s.beforeEnumerate = func(*flight) {
		startOnce.Do(func() { close(started) })
		<-release
	}

	// The leader posts with a cancelable request and walks away while
	// its flight is held on the worker.
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodPost,
			ts.URL+"/v1/enumerate", strings.NewReader(srcBody(clampSrc)))
		if err != nil {
			leaderErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderErr <- err
	}()
	<-started
	cancelLeader()
	if err := <-leaderErr; err == nil {
		t.Fatal("leader request completed; it should have been canceled client-side")
	}
	// Wait until the server has fully processed the disconnect: the
	// leader has left and the flight has no waiters at all.
	key := requestKey(mustCompile(t, clampSrc, "clamp"), normOptions{})
	waitFor(t, "leader to leave the flight", func() bool {
		s.pool.mu.Lock()
		defer s.pool.mu.Unlock()
		fl := s.pool.flights[key]
		return fl != nil && fl.waiters == 0
	})

	// A follower arriving after the leader is gone coalesces onto the
	// still-running flight.
	type reply struct {
		status int
		doc    map[string]any
	}
	follower := make(chan reply, 1)
	go func() {
		st, doc, _ := post(t, ts, srcBody(clampSrc))
		follower <- reply{st, doc}
	}()
	waitFor(t, "follower to coalesce", func() bool { return counter(s, "server.coalesced") == 1 })
	unblock()

	r := <-follower
	if r.status != http.StatusOK {
		t.Fatalf("follower: status %d (%v), want 200", r.status, r.doc)
	}
	if r.doc["cache"] != "coalesced" {
		t.Fatalf("follower served as %q, want coalesced", r.doc["cache"])
	}
	if got := counter(s, "server.enumerations"); got != 1 {
		t.Fatalf("enumerations = %d, want exactly 1", got)
	}
}

func jsonStr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func mustCompile(t *testing.T, src, name string) *rtl.Func {
	t.Helper()
	prog, err := mc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func(name)
	if f == nil {
		t.Fatalf("source does not define %s", name)
	}
	return f
}

// TestSpaceEndpointServesAuditableBytes: the gzip served by
// /v1/space/{key} must load as a space whose canonical hash matches the
// one the enumerate response reported — the spacedot -hash audit.
func TestSpaceEndpointServesAuditableBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, doc, _ := post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK {
		t.Fatalf("enumerate: status %d: %v", status, doc)
	}
	// A small cold flight serializes its space once for durability: the
	// engine's final checkpoint, renamed into the cache slot. Nothing
	// else is encoded and nothing is left beside the entry but its answer
	// record.
	if got := counter(s, "search.checkpoint.writes"); got != 1 {
		t.Fatalf("search.checkpoint.writes = %d after one small cold flight, want 1", got)
	}
	if h := s.reg.Snapshot().Histograms["search.checkpoint.duration_ns"]; h.Count != 1 || h.Sum <= 0 {
		t.Fatalf("search.checkpoint.duration_ns = %+v, want the one write timed", h)
	}
	if got := dirNames(t, s.cfg.Dir); !slices.Equal(got, pairNames(doc["key"].(string))) {
		t.Fatalf("cache dir holds %v, want only the published pair", got)
	}
	resp, err := http.Get(ts.URL + "/v1/space/" + doc["key"].(string))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("space fetch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("space fetch Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := search.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("served space does not load: %v", err)
	}
	hash, err := loaded.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if hash != doc["space_hash"] {
		t.Fatalf("served space hashes to %s, response promised %v", hash, doc["space_hash"])
	}

	for path, want := range map[string]int{
		"/v1/space/not-a-key":                  http.StatusBadRequest,
		"/v1/space/" + strings.Repeat("0", 64): http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// pairNames is what the cache directory lists for one published key:
// the answer record and the entry, in ReadDir's order.
func pairNames(key string) []string {
	return []string{key + recordSuffix, key + spaceSuffix}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestCompleteCheckpointIsPromoted is the crash window between the
// engine's final checkpoint write and its answer record: a restart
// finds a complete space in the key's space file and no record. The
// request must be answered from that file — published by writing its
// record, not enumerated again.
func TestCompleteCheckpointIsPromoted(t *testing.T) {
	dir := t.TempDir()
	fn := mustCompile(t, clampSrc, "clamp")
	key := requestKey(fn, normOptions{})
	slot := filepath.Join(dir, string(key)+spaceSuffix)
	want, err := search.Run(fn, search.Options{CheckpointPath: slot}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}

	s, ts := newTestServer(t, Config{Dir: dir})
	status, doc, _ := post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK || doc["cache"] != "miss" || doc["space_hash"] != want {
		t.Fatalf("status %d cache %v hash %v, want 200 miss %s", status, doc["cache"], doc["space_hash"], want)
	}
	if got := counter(s, "server.enumerations"); got != 0 {
		t.Fatalf("server.enumerations = %d, want 0: the checkpoint was the space", got)
	}
	if got := dirNames(t, dir); !slices.Equal(got, pairNames(string(key))) {
		t.Fatalf("cache dir holds %v, want only the published pair", got)
	}
	if _, err := s.store.load(key); err != nil {
		t.Fatalf("published entry does not load: %v", err)
	}
}

// TestStatsEndpoint: /v1/stats reports the instruments and the phase
// interaction tables, including spaces cached by an earlier process
// over the same directory.
func TestStatsEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Dir: dir})
	if status, doc, _ := post(t, ts1, srcBody(clampSrc)); status != http.StatusOK {
		t.Fatalf("enumerate: status %d: %v", status, doc)
	}

	getStats := func(ts *httptest.Server) map[string]any {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats: status %d", resp.StatusCode)
		}
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	doc := getStats(ts1)
	if doc["spaces"] != float64(1) {
		t.Fatalf("spaces = %v, want 1", doc["spaces"])
	}
	if got := doc["counters"].(map[string]any)["server.enumerations"]; got != float64(1) {
		t.Fatalf("counters[server.enumerations] = %v, want 1", got)
	}
	tables := doc["tables"].(map[string]any)
	for _, name := range []string{"enabling", "disabling", "independence"} {
		m := tables[name].([]any)
		if len(m) != 15 || len(m[0].([]any)) != 15 {
			t.Fatalf("table %s is %dx%d, want 15x15", name, len(m), len(m[0].([]any)))
		}
	}
	if probs := tables["start_probabilities"].([]any); len(probs) != 15 {
		t.Fatalf("start_probabilities has %d entries, want 15", len(probs))
	}

	// A fresh server over the same directory folds the on-disk spaces
	// into its tables without having served them.
	_, ts2 := newTestServer(t, Config{Dir: dir})
	if doc := getStats(ts2); doc["spaces"] != float64(1) {
		t.Fatalf("fresh server over warm dir reports %v spaces, want 1", doc["spaces"])
	}
}

// TestEquivOption: options.equiv enumerates with the equivalence tier —
// a distinct cache key, equiv_raw/equiv_merged in the response, an
// "equiv" summary in /v1/stats — and the stats survive the disk
// round-trip to a fresh server; a request without the option reports no
// equiv fields at all.
func TestEquivOption(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Dir: dir})

	equivBody := `{"source":` + jsonStr(clampSrc) + `,"options":{"equiv":true}}`
	status, doc, _ := post(t, ts, equivBody)
	if status != http.StatusOK {
		t.Fatalf("equiv enumerate: status %d: %v", status, doc)
	}
	raw, ok := doc["equiv_raw"].(float64)
	if !ok || raw <= 0 {
		t.Fatalf("equiv response has no equiv_raw: %v", doc)
	}
	merged, _ := doc["equiv_merged"].(float64) // absent when nothing folded
	if nodes := doc["nodes"].(float64); nodes != raw-merged {
		t.Fatalf("nodes = %v, want equiv_raw - equiv_merged = %v", nodes, raw-merged)
	}

	status, plain, _ := post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK {
		t.Fatalf("plain enumerate: status %d: %v", status, plain)
	}
	if plain["key"] == doc["key"] {
		t.Fatal("equiv and plain requests share a cache key")
	}
	if _, ok := plain["equiv_raw"]; ok {
		t.Fatalf("plain response leaks equiv fields: %v", plain)
	}

	getStats := func(ts *httptest.Server) map[string]any {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	eq, ok := getStats(ts)["equiv"].(map[string]any)
	if !ok {
		t.Fatal("/v1/stats has no equiv summary after an equiv enumeration")
	}
	if eq["spaces"] != float64(1) || eq["raw"] != raw || eq["merged"] != merged {
		t.Fatalf("stats equiv = %v, want spaces 1, raw %v, merged %v", eq, raw, merged)
	}

	// A fresh server over the same directory serves the equiv space from
	// disk with its tier stats intact, and folds them into /v1/stats.
	s2, ts2 := newTestServer(t, Config{Dir: dir})
	status, doc2, _ := post(t, ts2, equivBody)
	if status != http.StatusOK {
		t.Fatalf("disk replay: status %d: %v", status, doc2)
	}
	if doc2["cache"] != "disk" {
		t.Fatalf("disk replay served as %q, want disk", doc2["cache"])
	}
	if doc2["equiv_raw"] != raw {
		t.Fatalf("disk replay lost the equiv stats: %v", doc2)
	}
	if got := counter(s2, "server.enumerations"); got != 0 {
		t.Fatalf("disk replay ran %d enumerations, want 0", got)
	}
	if eq, ok := getStats(ts2)["equiv"].(map[string]any); !ok || eq["spaces"] != float64(1) {
		t.Fatalf("fresh server over warm dir reports equiv = %v, want 1 space", eq)
	}
}

// TestRequestKeyContentAddressing: textually different but semantically
// identical sources share a key; different options or functions do not.
func TestRequestKeyContentAddressing(t *testing.T) {
	a := mustCompile(t, clampSrc, "clamp")
	b := mustCompile(t, "int clamp(int x,int lo,int hi){if(x<lo)return lo;\n\n if(x>hi)return hi; return x;}", "clamp")
	if requestKey(a, normOptions{}) != requestKey(b, normOptions{}) {
		t.Fatal("reformatted source changed the cache key")
	}
	if requestKey(a, normOptions{}) == requestKey(a, normOptions{Check: true}) {
		t.Fatal("options do not reach the cache key")
	}
	if requestKey(a, normOptions{}) == requestKey(a, normOptions{MaxNodes: 10}) {
		t.Fatal("MaxNodes does not reach the cache key")
	}
	if requestKey(a, normOptions{}) == requestKey(a, normOptions{Equiv: true}) {
		t.Fatal("Equiv does not reach the cache key")
	}
	c := mustCompile(t, absSrc, "myabs")
	if requestKey(a, normOptions{}) == requestKey(c, normOptions{}) {
		t.Fatal("different functions share a cache key")
	}
	if !keyPattern.MatchString(string(requestKey(a, normOptions{}))) {
		t.Fatal("key is not 64 hex digits")
	}
}

// TestEnumerateNormalizesOptions: a negative cap or max_nodes is a bad
// request, and naming the engine's default cap enumerates the space an
// omitted cap does, so it shares that request's key and is answered
// from memory.
func TestEnumerateNormalizesOptions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, opts := range []string{`{"cap":-1}`, `{"max_nodes":-1}`} {
		if status, doc, _ := post(t, ts, `{"source":`+jsonStr(negSrc)+`,"options":`+opts+`}`); status != http.StatusBadRequest {
			t.Fatalf("options %s: status %d, want 400: %v", opts, status, doc)
		}
	}
	status, omitted, _ := post(t, ts, srcBody(negSrc))
	if status != http.StatusOK || omitted["cache"] != "miss" {
		t.Fatalf("omitted cap: status %d: %v", status, omitted)
	}
	status, named, _ := post(t, ts, `{"source":`+jsonStr(negSrc)+`,"options":{"cap":1000000}}`)
	if status != http.StatusOK || named["key"] != omitted["key"] || named["cache"] != "mem" {
		t.Fatalf("cap 1000000 answered %d %v, want the omitted cap's key %v as a mem hit", status, named, omitted["key"])
	}
	if got := counter(s, "server.enumerations"); got != 1 {
		t.Fatalf("%d enumerations, want 1", got)
	}
}

// TestMemHitAnswersWithoutTheSpace: a memory hit repeats the answer
// admit computed; it does not walk the node table again to count
// leaves. It cannot: the cached entry holds no decoded space, at any
// depth, only the answer and the flight record's two facts.
func TestMemHitAnswersWithoutTheSpace(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, cold, _ := post(t, ts, `{"source":`+jsonStr(sumSrc)+`,"options":{"equiv":true}}`)
	if status != http.StatusOK || cold["cache"] != "miss" {
		t.Fatalf("cold request: status %d: %v", status, cold)
	}
	ent, ok := s.mem.get(cacheKey(cold["key"].(string)))
	if !ok {
		t.Fatal("the cold answer is not in the memory cache")
	}
	if ent.stats.Attempts == 0 || ent.answer.Nodes == 0 {
		t.Fatalf("the cached entry lost its facts: %+v", ent)
	}
	var holdsSpace func(reflect.Type) bool
	holdsSpace = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			if ty == reflect.TypeOf(search.Result{}) {
				return true
			}
			for i := 0; i < ty.NumField(); i++ {
				if holdsSpace(ty.Field(i).Type) {
					return true
				}
			}
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
			return holdsSpace(ty.Elem())
		case reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			return true // could hide one
		}
		return false
	}
	if holdsSpace(reflect.TypeOf(ent)) {
		t.Fatalf("a memory-cache entry can reach a *search.Result: %T pins decoded spaces", ent)
	}

	status, warm, _ := post(t, ts, `{"source":`+jsonStr(sumSrc)+`,"options":{"equiv":true}}`)
	if status != http.StatusOK || warm["cache"] != "mem" {
		t.Fatalf("warm request: status %d: %v", status, warm)
	}
	for _, field := range []string{"func", "key", "space_hash", "nodes", "edges", "leaves",
		"attempted_phases", "equiv_raw"} {
		if warm[field] == nil || warm[field] != cold[field] {
			t.Errorf("%s: the memory hit answers %v, the enumeration answered %v", field, warm[field], cold[field])
		}
	}
}

// TestMemCacheLRU: the LRU holds at most max entries, evicting the
// least recently used.
func TestMemCacheLRU(t *testing.T) {
	c := newMemCache(2)
	k := func(i int) cacheKey { return cacheKey(fmt.Sprintf("%064d", i)) }
	answer := func(i int) entry { return entry{answer: enumerateResponse{Nodes: i}} }
	c.add(k(1), answer(1))
	c.add(k(2), answer(2))
	if ent, ok := c.get(k(1)); !ok || ent.answer.Nodes != 1 { // 1 is now most recently used
		t.Fatalf("entry 1 missing or not its own: %+v", ent)
	}
	c.add(k(3), answer(3)) // evicts 2
	if _, ok := c.get(k(2)); ok {
		t.Fatal("LRU kept the least recently used entry past its bound")
	}
	if ent, ok := c.get(k(1)); !ok || ent.answer.Nodes != 1 {
		t.Fatal("LRU evicted the recently used entry")
	}
	if c.len() != 2 {
		t.Fatalf("LRU holds %d entries, bound is 2", c.len())
	}
}
