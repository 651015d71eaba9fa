package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// syncBuf is a goroutine-safe log sink: the access log and the search
// engine's flight logs write from different goroutines.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// records parses every JSON log line currently in the buffer.
func (b *syncBuf) records(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// TestRequestIDAssignedAndPropagated checks both halves of the
// X-Request-ID contract: a valid client-supplied ID is echoed
// verbatim, anything else is replaced with a fresh server-minted one.
func TestRequestIDAssignedAndPropagated(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-id_42.x")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id_42.x" {
		t.Fatalf("valid client ID not echoed: got %q", got)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "bad id with spaces!")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-ID")
	if minted == "" || strings.Contains(minted, " ") {
		t.Fatalf("invalid client ID not replaced: got %q", minted)
	}
	if len(minted) != 16 || !validRequestID(minted) {
		t.Fatalf("minted ID %q is not 16 hex chars", minted)
	}
}

// TestAccessLogCarriesRequestID checks that the access line is in the
// sink by the time the handler returns — it is written synchronously,
// there is nothing to flush — once per request whatever the route or
// status, carrying the request_id the client got back in X-Request-ID
// plus the route/status/cache/latency fields.
func TestAccessLogCarriesRequestID(t *testing.T) {
	var buf syncBuf
	s, _ := newTestServer(t, Config{Logger: telemetry.NewLogger(&buf, "json", slog.LevelInfo)})

	var access map[string]any
	for i, rq := range []struct {
		method, path, body string
		status             int
		cache              any
	}{
		{"POST", "/v1/enumerate", srcBody(clampSrc), 200, "miss"},
		{"POST", "/v1/enumerate", srcBody(clampSrc), 200, "mem"},
		{"POST", "/v1/enumerate", "not json", 400, nil},
		{"GET", "/v1/space/nope", "", 400, nil},
		{"GET", "/healthz", "", 200, nil},
	} {
		id := fmt.Sprintf("probe-%d", i)
		req := httptest.NewRequest(rq.method, rq.path, strings.NewReader(rq.body))
		req.Header.Set("X-Request-ID", id)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != rq.status || rec.Header().Get("X-Request-ID") != id {
			t.Fatalf("%s %s: status %d, echoed ID %q", rq.method, rq.path, rec.Code, rec.Header().Get("X-Request-ID"))
		}
		var lines []map[string]any
		for _, r := range buf.records(t) {
			if r["msg"] == "access" && r["request_id"] == id {
				lines = append(lines, r)
			}
		}
		if len(lines) != 1 {
			t.Fatalf("%s %s: %d access lines for %s when the handler returned, want 1:\n%s",
				rq.method, rq.path, len(lines), id, buf.String())
		}
		got := lines[0]
		if got["method"] != rq.method || got["status"] != float64(rq.status) || got["cache"] != rq.cache {
			t.Fatalf("access record fields wrong: %v", got)
		}
		if i == 0 {
			access = got
		}
	}
	if access["route"] != "/v1/enumerate" {
		t.Fatalf("access record route = %v", access["route"])
	}
	for _, k := range []string{"bytes", "duration_ms", "flight_id", "queue_wait_ms"} {
		if _, ok := access[k]; !ok {
			t.Fatalf("access record missing %q: %v", k, access)
		}
	}
}

// TestMetricsEndpointServesOpenMetrics runs a cold and a warm request,
// then checks /metrics parses as OpenMetrics and covers the families
// the acceptance criteria name: endpoint latency histograms, cache
// tier counters, queue depth and in-flight gauges.
func TestMetricsEndpointServesOpenMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, doc, _ := post(t, ts, srcBody(clampSrc)); status != 200 || doc["cache"] != "miss" {
		t.Fatalf("cold request: %d %v", status, doc)
	}
	if status, doc, _ := post(t, ts, srcBody(clampSrc)); status != 200 || doc["cache"] != "mem" {
		t.Fatalf("warm request: %d %v", status, doc)
	}

	status, body, hdr := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if ct := hdr.Get("Content-Type"); ct != telemetry.OpenMetricsContentType {
		t.Fatalf("Content-Type %q", ct)
	}
	if err := telemetry.ValidateOpenMetrics(body); err != nil {
		t.Fatalf("/metrics is not valid OpenMetrics: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		`http_request_duration_ns_bucket{endpoint="/v1/enumerate",status="200",le="+Inf"}`,
		`http_requests_total{endpoint="/v1/enumerate",status="200"} 2`,
		`server_cache_requests_total{cache_tier="miss"} 1`,
		`server_cache_requests_total{cache_tier="mem"} 1`,
		"server_queue_depth",
		`http_in_flight{endpoint="/metrics"}`,
		"server_flight_duration_ns_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestFlightRecorderLinksFollowerToLeader coalesces a second request
// onto a held flight and checks /v1/debug/flights replays both with
// their timing splits and the follower→leader request linkage.
func TestFlightRecorderLinksFollowerToLeader(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	s.beforeEnumerate = func(*flight) { close(entered); <-release }

	send := func(id string, out chan<- int) {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/enumerate", strings.NewReader(srcBody(clampSrc)))
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			out <- 0
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		out <- resp.StatusCode
	}
	statuses := make(chan int, 2)
	go send("leader-req", statuses)
	<-entered // the leader's flight is on the worker
	go send("follower-req", statuses)
	waitFor(t, "follower coalesced", func() bool { return counter(s, "server.coalesced") == 1 })
	unblock()
	for i := 0; i < 2; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Fatalf("request status %d", st)
		}
	}

	status, body, _ := get(t, ts.URL+"/v1/debug/flights")
	if status != http.StatusOK {
		t.Fatalf("/v1/debug/flights status %d", status)
	}
	var doc struct {
		Capacity int            `json:"capacity"`
		Count    int            `json:"count"`
		Flights  []flightRecord `json:"flights"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Capacity != 128 || doc.Count != 2 {
		t.Fatalf("recorder capacity/count = %d/%d, want 128/2: %s", doc.Capacity, doc.Count, body)
	}
	var leader, follower *flightRecord
	for i := range doc.Flights {
		switch doc.Flights[i].RequestID {
		case "leader-req":
			leader = &doc.Flights[i]
		case "follower-req":
			follower = &doc.Flights[i]
		}
	}
	if leader == nil || follower == nil {
		t.Fatalf("recorder missing a request: %s", body)
	}
	if !follower.Coalesced || follower.LeaderRequestID != "leader-req" {
		t.Fatalf("follower not linked to leader: %+v", follower)
	}
	if follower.Cache != "coalesced" || follower.FlightID != leader.FlightID {
		t.Fatalf("follower cache/flight = %q/%q, leader flight %q", follower.Cache, follower.FlightID, leader.FlightID)
	}
	if leader.Coalesced || leader.LeaderRequestID != "leader-req" || leader.Cache != "miss" {
		t.Fatalf("leader record wrong: %+v", leader)
	}
	if leader.Func != "clamp" || leader.Status != 200 {
		t.Fatalf("leader func/status: %+v", leader)
	}
	if leader.EnumerateMS <= 0 || leader.TotalMS < leader.EnumerateMS ||
		leader.CheckpointMS+leader.PublishMS > leader.EnumerateMS {
		t.Fatalf("leader timing split implausible: %+v", leader)
	}
}

// TestHealthzReportsDrain covers the drain satellite: /healthz is 200
// {"draining":false} while serving and flips to 503 {"draining":true}
// the moment drain begins.
func TestHealthzReportsDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, body, _ := get(t, ts.URL+"/healthz")
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || doc["draining"] != false {
		t.Fatalf("healthy: %d %s", status, body)
	}

	s.Close() // drain: idle pool, returns immediately

	status, body, hdr := get(t, ts.URL+"/healthz")
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503: %s", status, body)
	}
	if doc["draining"] != true {
		t.Fatalf(`draining body = %s, want {"draining":true,...}`, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining healthz without Retry-After")
	}
}

// TestRetryAfterSeconds pins the backoff arithmetic.
func TestRetryAfterSeconds(t *testing.T) {
	sec := func(d time.Duration) float64 { return float64(d) }
	cases := []struct {
		queued  int
		mean    float64
		workers int
		want    int
	}{
		{0, 0, 2, 1},                           // no history: minimal backoff
		{0, sec(500 * time.Millisecond), 1, 1}, // sub-second rounds up to 1
		{1, sec(3 * time.Second), 1, 6},        // (1+1)×3s/1
		{3, sec(2 * time.Second), 2, 4},        // (3+1)×2s/2
		{50, sec(10 * time.Second), 1, 60},     // clamped to a minute
		{1, sec(time.Second), 0, 2},            // workers default to 1
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.queued, c.mean, c.workers); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %.0f, %d) = %d, want %d",
				c.queued, c.mean, c.workers, got, c.want)
		}
	}
}

// TestShedRetryAfterTracksQueueDepth fills the one-deep queue behind a
// held worker and checks the shed response's Retry-After reflects the
// observed flight latency instead of the old constant 1.
func TestShedRetryAfterTracksQueueDepth(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unblock)
	entered := make(chan struct{})
	var enteredOnce sync.Once
	s.beforeEnumerate = func(*flight) {
		enteredOnce.Do(func() { close(entered) })
		<-release
	}

	// Seed the flight-latency history: mean 4s. With one queued flight
	// and one worker the estimate is (1+1)×4s/1 = 8s.
	s.flightDur.Observe(int64(4 * time.Second))

	// asyncPost avoids t.Fatal off the test goroutine.
	asyncPost := func(body string, done chan<- struct{}) {
		resp, err := http.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
		if done != nil {
			close(done)
		}
	}
	done := make(chan struct{})
	go asyncPost(srcBody(clampSrc), done) // occupies the single worker
	<-entered
	go asyncPost(srcBody(absSrc), nil) // fills the queue
	waitFor(t, "queue to fill", func() bool { return s.pool.queued() == 1 })

	status, doc, hdr := post(t, ts, srcBody(negSrc))
	if status != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d: %v", status, doc)
	}
	if got := hdr.Get("Retry-After"); got != "8" {
		t.Fatalf("Retry-After = %q, want 8 (queue 1 × mean 4s ÷ 1 worker, +1 for the refused request)", got)
	}
	unblock()
	<-done
}

// TestSlowFlightLogBreakdown drops the slow-flight threshold to zero
// so the cold enumeration qualifies, and checks the diagnostic carries
// the per-phase breakdown from the search's own statistics.
func TestSlowFlightLogBreakdown(t *testing.T) {
	var buf syncBuf
	_, ts := newTestServer(t, Config{
		Logger:     telemetry.NewLogger(&buf, "json", slog.LevelDebug),
		SlowFlight: time.Nanosecond,
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/enumerate", strings.NewReader(srcBody(clampSrc)))
	req.Header.Set("X-Request-ID", "slow-probe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()

	var slow map[string]any
	for _, rec := range buf.records(t) {
		if rec["msg"] == "slow flight" {
			slow = rec
		}
	}
	if slow == nil {
		t.Fatalf("no slow-flight record in:\n%s", buf.String())
	}
	if slow["request_id"] != "slow-probe" {
		t.Fatalf("slow-flight record request_id = %v", slow["request_id"])
	}
	if slow["func"] != "clamp" || slow["cache"] != "miss" {
		t.Fatalf("slow-flight identity fields: %v", slow)
	}
	for _, k := range []string{"flight_id", "queue_wait_ms", "enumerate_ms", "checkpoint_ms",
		"publish_ms", "serialize_ms", "total_ms", "attempts", "active", "dormant", "merged", "levels"} {
		if _, ok := slow[k]; !ok {
			t.Fatalf("slow-flight record missing %q: %v", k, slow)
		}
	}
	if slow["attempts"] == float64(0) {
		t.Fatalf("slow-flight attempts = 0; Result.Stats not surfaced: %v", slow)
	}
}

// TestPprofGatedByConfig: the profile handlers exist only when the
// operator opted in.
func TestPprofGatedByConfig(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if status, _, _ := get(t, off.URL+"/debug/pprof/"); status != http.StatusNotFound {
		t.Fatalf("pprof reachable without EnablePprof: %d", status)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	if status, _, _ := get(t, on.URL+"/debug/pprof/"); status != http.StatusOK {
		t.Fatalf("pprof index with EnablePprof: %d", status)
	}
}

// TestFlightLogRing checks the ring buffer really is fixed-size and
// newest-first.
func TestFlightLogRing(t *testing.T) {
	l := newFlightLog(3)
	if got := l.snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot has %d records", len(got))
	}
	for i := 1; i <= 5; i++ {
		l.add(flightRecord{RequestID: fmt.Sprintf("r%d", i)})
	}
	got := l.snapshot()
	if len(got) != 3 {
		t.Fatalf("ring holds %d records, want 3", len(got))
	}
	for i, want := range []string{"r5", "r4", "r3"} {
		if got[i].RequestID != want {
			t.Fatalf("snapshot[%d] = %q, want %q (newest first)", i, got[i].RequestID, want)
		}
	}
}

// BenchmarkWarmCacheOverhead prices the request log on the cheapest
// request the server answers — a warm mem-cache hit over real HTTP with
// a keep-alive client: a server with no logger (spaced's default, -log
// off) against one writing the JSON access line. The comparison is
// paired: both servers are up at once and every iteration sends one
// request to each, so the two variants see identical machine
// conditions and the estimate is immune to run-to-run drift that
// plagues sequential A/B runs on shared hardware. The benchmark's own
// ns/op is the sum of both requests and is meaningless; read the
// ns/log-off, ns/log-json and pct-overhead metrics.
func BenchmarkWarmCacheOverhead(b *testing.B) {
	mk := func(cfg Config) (*httptest.Server, func()) {
		cfg.Dir = b.TempDir()
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		b.Cleanup(ts.Close)
		client := ts.Client()
		body := srcBody(clampSrc)
		do := func() {
			resp, err := client.Post(ts.URL+"/v1/enumerate", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		return ts, do
	}
	_, doOff := mk(Config{})
	_, doJSON := mk(Config{Logger: telemetry.NewLogger(io.Discard, "json", slog.LevelInfo), SlowFlight: 30 * time.Second})
	doOff()
	doJSON()
	var offNS, jsonNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate which variant goes first so neither systematically
		// pays or pockets whatever the preceding request warmed up.
		t0 := time.Now()
		if i%2 == 0 {
			doOff()
			t1 := time.Now()
			doJSON()
			offNS += int64(t1.Sub(t0))
			jsonNS += int64(time.Since(t1))
		} else {
			doJSON()
			t1 := time.Now()
			doOff()
			jsonNS += int64(t1.Sub(t0))
			offNS += int64(time.Since(t1))
		}
	}
	b.StopTimer()
	off := float64(offNS) / float64(b.N)
	logged := float64(jsonNS) / float64(b.N)
	b.ReportMetric(off, "ns/log-off")
	b.ReportMetric(logged, "ns/log-json")
	b.ReportMetric(100*(logged-off)/off, "pct-overhead")
}
