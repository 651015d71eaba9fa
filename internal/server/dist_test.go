package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distcl"
	"repro/internal/faultinject"
	"repro/internal/search"
)

// gatedTransport simulates a network partition: once killed, every new
// round trip fails at the transport layer — the coordinator hears
// nothing, exactly like a SIGKILLed or partitioned worker.
type gatedTransport struct{ dead atomic.Bool }

func (g *gatedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if g.dead.Load() {
		return nil, errors.New("injected partition")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// startWorker runs an in-process fleet worker against ts and arranges
// its clean shutdown at test end (before the coordinator's). The
// returned stop drains it sooner; it is safe to call more than once.
func startWorker(t *testing.T, ts *httptest.Server, id string, transport http.RoundTripper, faults *faultinject.Plan) (stop func()) {
	t.Helper()
	hc := &http.Client{}
	if transport != nil {
		hc.Transport = transport
	}
	wk, err := distcl.NewWorker(distcl.WorkerConfig{
		Client: distcl.NewClient(distcl.Config{
			BaseURL:     ts.URL,
			Timeout:     5 * time.Second,
			MaxAttempts: 2,
			BackoffBase: 5 * time.Millisecond,
			BackoffCap:  50 * time.Millisecond,
			HTTPClient:  hc,
		}),
		ID:            id,
		ScratchDir:    t.TempDir(),
		SearchWorkers: 2,
		DrainTimeout:  5 * time.Second,
		Faults:        faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- wk.Run(ctx) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			select {
			case <-done:
			case <-time.After(15 * time.Second):
				t.Errorf("worker %s did not drain", id)
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

func mustB64(t *testing.T, s string) []byte {
	t.Helper()
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
}

func fleetLive(s *Server) int {
	fs := s.dist.fleet()
	if fs == nil {
		return 0
	}
	return fs.WorkersLive
}

// TestDistributedEnumerationMatchesLocal: with a worker joined, a cache
// miss is dispatched to the fleet, and the space the coordinator serves
// is byte-identical (canonical hash) to a single-node enumeration. The
// per-worker observability trail must exist end to end.
func TestDistributedEnumerationMatchesLocal(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DistLeaseTTL: 2 * time.Second, DistPollWait: 200 * time.Millisecond,
	})
	startWorker(t, ts, "w1", nil, nil)
	waitFor(t, "worker to register", func() bool { return fleetLive(s) == 1 })

	status, doc, _ := post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK {
		t.Fatalf("dispatched request: status %d: %v", status, doc)
	}
	if doc["cache"] != "miss" {
		t.Fatalf("cache = %v, want miss", doc["cache"])
	}
	want, err := search.Run(mustCompile(t, clampSrc, "clamp"), search.Options{}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if doc["space_hash"] != want {
		t.Fatalf("distributed hash %v != single-node hash %s", doc["space_hash"], want)
	}

	// The enumeration ran on the worker, not the local pool.
	if got := counter(s, "server.enumerations"); got != 0 {
		t.Fatalf("local enumerations = %d, want 0 (the fleet should have run it)", got)
	}
	if got := s.dist.assignVec.With("w1").Value(); got != 1 {
		t.Fatalf(`dist.assignments{worker="w1"} = %d, want 1`, got)
	}
	if got := s.dist.completeVec.With("w1").Value(); got != 1 {
		t.Fatalf(`dist.completions{worker="w1"} = %d, want 1`, got)
	}

	// The repeat is a plain cache hit; the fleet is not consulted again.
	status, doc, _ = post(t, ts, srcBody(clampSrc))
	if status != http.StatusOK || doc["cache"] != "mem" {
		t.Fatalf("repeat: status %d cache %v, want 200 mem", status, doc["cache"])
	}
	if got := s.dist.assignVec.With("w1").Value(); got != 1 {
		t.Fatalf("repeat re-dispatched: assignments = %d", got)
	}

	// The flight recorder saw the dispatch and the completion.
	var dispatched, completed bool
	for _, rec := range s.flights.snapshot() {
		switch rec.Event {
		case "dispatch":
			dispatched = dispatched || rec.Worker == "w1"
		case "complete":
			completed = completed || rec.Worker == "w1"
		}
	}
	if !dispatched || !completed {
		t.Fatalf("flight recorder missing dispatch/complete events (dispatch=%v complete=%v)", dispatched, completed)
	}
}

// TestLeaseExpiryRecoversOnSecondWorker is the crash-recovery path in
// miniature: worker w1 takes the assignment, uploads a progress
// checkpoint, then partitions away without a goodbye. Its lease expires,
// the assignment is re-dispatched to w2 seeded with w1's checkpoint,
// and the final space still hashes identically to a clean local run.
func TestLeaseExpiryRecoversOnSecondWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DistLeaseTTL: 600 * time.Millisecond, DistPollWait: 100 * time.Millisecond,
	})
	gate := &gatedTransport{}
	// w1's searches stall 60ms per application of phase c: slow enough
	// to heartbeat checkpoints mid-enumeration and to still be running
	// when the partition hits.
	startWorker(t, ts, "w1", gate, faultinject.MustParse("hang=c:60ms"))
	waitFor(t, "w1 to register", func() bool { return fleetLive(s) == 1 })

	type reply struct {
		status int
		doc    map[string]any
	}
	replies := make(chan reply, 1)
	go func() {
		st, doc, _ := post(t, ts, srcBody(sumSrc))
		replies <- reply{st, doc}
	}()

	// Wait until w1 holds the lease and has uploaded at least one
	// validated checkpoint, then cut the network.
	waitFor(t, "a checkpoint upload from w1", func() bool {
		s.dist.mu.Lock()
		defer s.dist.mu.Unlock()
		for _, a := range s.dist.assignments {
			if a.worker == "w1" && a.ckptNodes > 0 {
				return true
			}
		}
		return false
	})
	gate.dead.Store(true)
	startWorker(t, ts, "w2", nil, nil)

	r := <-replies
	if r.status != http.StatusOK {
		t.Fatalf("recovered request: status %d: %v", r.status, r.doc)
	}
	want, err := search.Run(mustCompile(t, sumSrc, "sum"), search.Options{}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if r.doc["space_hash"] != want {
		t.Fatalf("recovered hash %v != clean single-node hash %s", r.doc["space_hash"], want)
	}
	if got := s.dist.expiryVec.With("w1").Value(); got < 1 {
		t.Fatalf(`dist.lease_expiries{worker="w1"} = %d, want >= 1`, got)
	}
	if got := s.dist.recoverVec.With("w2").Value(); got < 1 {
		t.Fatalf(`dist.recoveries{worker="w2"} = %d, want >= 1 (re-dispatch was not checkpoint-seeded)`, got)
	}
	if got := s.dist.completeVec.With("w2").Value(); got != 1 {
		t.Fatalf(`dist.completions{worker="w2"} = %d, want 1`, got)
	}
}

// TestStaleLeaseUploadFenced is the expired-lease upload race, played
// out by hand so every step is deterministic: a worker holds a lease,
// uploads a checkpoint, loses the lease to the sweeper, wins the SAME
// assignment back under a new generation — and then its original
// upload, which had been crawling through an httpslow link the whole
// time, finally arrives carrying the old generation. The coordinator
// must fence the straggler completely: no watermark regression, no
// lease renewal, and no abandon echo (an abandon-by-ID would kill the
// worker's current run of the very assignment it just re-won).
func TestStaleLeaseUploadFenced(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DistLeaseTTL: 10 * time.Second, DistPollWait: 200 * time.Millisecond,
	})
	d := s.dist
	ctx := context.Background()
	cl := distcl.NewClient(distcl.Config{BaseURL: ts.URL, Timeout: 5 * time.Second})
	// The straggler heartbeat travels the slow link that makes this race
	// reachable in the wild.
	slow := distcl.NewClient(distcl.Config{BaseURL: ts.URL, Timeout: 5 * time.Second,
		Faults: faultinject.MustParse("httpslow=1:150ms")})

	var reg distcl.RegisterResponse
	if _, err := cl.Call(ctx, distcl.PathRegister, distcl.RegisterRequest{WorkerID: "w1"}, &reg); err != nil {
		t.Fatal(err)
	}

	type reply struct {
		status int
		doc    map[string]any
	}
	replies := make(chan reply, 1)
	go func() {
		st, doc, _ := post(t, ts, srcBody(sumSrc))
		replies <- reply{st, doc}
	}()

	var asn distcl.Assignment
	waitFor(t, "the flight's assignment", func() bool {
		st, err := cl.Call(ctx, distcl.PathPoll, distcl.PollRequest{WorkerID: "w1"}, &asn)
		return err == nil && st == http.StatusOK
	})
	if asn.LeaseGen != 1 {
		t.Fatalf("first dispatch lease_gen = %d, want 1", asn.LeaseGen)
	}

	// Two genuine partial enumerations of the assigned function, each
	// the resumable document a node cap leaves at its checkpoint path —
	// the second resumed from the first under a higher cap — so the
	// deeper one is the watermark the shallow straggler must not undo.
	enc := func(r *search.Result) string {
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return base64.StdEncoding.EncodeToString(buf.Bytes())
	}
	paused := func(path string) *search.Result {
		res, err := search.LoadFile(path)
		if err != nil || res.Checkpoint == nil || res.Aborted {
			t.Fatalf("%s is not a resumable document (%v)", path, err)
		}
		return res
	}
	fn := mustCompile(t, sumSrc, "sum")
	dir := t.TempDir()
	smallPath, bigPath := filepath.Join(dir, "small"+spaceSuffix), filepath.Join(dir, "big"+spaceSuffix)
	search.Run(fn, search.Options{MaxNodes: 5, CheckpointPath: smallPath})
	if _, err := search.Resume(paused(smallPath), search.Options{MaxNodes: 40, CheckpointPath: bigPath}); err != nil {
		t.Fatal(err)
	}
	small, big := paused(smallPath), paused(bigPath)
	if len(big.Nodes) <= len(small.Nodes) {
		t.Fatalf("deeper pause did not grow (small %d nodes, big %d)", len(small.Nodes), len(big.Nodes))
	}
	hb := func(c *distcl.Client, gen int64, ckpt string) distcl.HeartbeatResponse {
		var resp distcl.HeartbeatResponse
		if _, err := c.Call(ctx, distcl.PathHeartbeat, distcl.HeartbeatRequest{
			WorkerID: "w1",
			Assignments: []distcl.HeartbeatAssignment{
				{AssignmentID: asn.AssignmentID, CheckpointB64: ckpt, LeaseGen: gen},
			},
		}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	lookup := func() (int, time.Time) {
		d.mu.Lock()
		defer d.mu.Unlock()
		a := d.assignments[asn.AssignmentID]
		if a == nil {
			t.Fatal("assignment vanished")
		}
		return a.ckptNodes, a.leaseUntil
	}

	hb(cl, 1, enc(big))
	waitFor(t, "the gen-1 upload to be accepted", func() bool {
		nodes, _ := lookup()
		return nodes == len(big.Nodes)
	})

	// The sweeper fires after the TTL: the lease expires and the work is
	// re-queued.
	d.sweep(time.Now().Add(15 * time.Second))
	if got := d.expiryVec.With("w1").Value(); got != 1 {
		t.Fatalf(`dist.lease_expiries{worker="w1"} = %d, want 1`, got)
	}

	// The same worker wins the assignment back under generation 2,
	// seeded with its own last good checkpoint.
	var asn2 distcl.Assignment
	waitFor(t, "the re-dispatch", func() bool {
		st, err := cl.Call(ctx, distcl.PathPoll, distcl.PollRequest{WorkerID: "w1"}, &asn2)
		return err == nil && st == http.StatusOK
	})
	if asn2.AssignmentID != asn.AssignmentID || asn2.LeaseGen != 2 {
		t.Fatalf("re-dispatch = %s gen %d, want %s gen 2", asn2.AssignmentID, asn2.LeaseGen, asn.AssignmentID)
	}
	if asn2.CheckpointB64 == "" {
		t.Fatal("re-dispatch was not seeded with the accepted checkpoint")
	}
	_, leaseBefore := lookup()

	// The straggler lands: generation 1, smaller checkpoint.
	resp := hb(slow, 1, enc(small))
	if len(resp.Abandon) != 0 {
		t.Fatalf("stale entry echoed abandon %v — that would kill the new lease on this worker", resp.Abandon)
	}
	nodes, leaseAfter := lookup()
	if nodes != len(big.Nodes) {
		t.Fatalf("watermark regressed to %d nodes by a stale upload, want %d", nodes, len(big.Nodes))
	}
	if !leaseAfter.Equal(leaseBefore) {
		t.Fatal("stale heartbeat entry renewed the lease")
	}
	if got := d.staleVec.With("w1").Value(); got < 1 {
		t.Fatalf(`dist.stale_uploads{worker="w1"} = %d, want >= 1`, got)
	}

	// Generation 0 — an entry that echoes no generation — is no
	// wildcard: it is fenced like any other stale one.
	staleBefore := d.staleVec.With("w1").Value()
	if resp := hb(cl, 0, enc(small)); len(resp.Abandon) != 0 {
		t.Fatalf("gen-0 entry echoed abandon %v", resp.Abandon)
	}
	nodes, leaseAfter = lookup()
	if got := d.staleVec.With("w1").Value(); nodes != len(big.Nodes) || !leaseAfter.Equal(leaseBefore) || got != staleBefore+1 {
		t.Fatalf("gen-0 entry: watermark %d nodes (want %d), lease renewed %v, stale uploads %d (want %d)",
			nodes, len(big.Nodes), !leaseAfter.Equal(leaseBefore), got, staleBefore+1)
	}

	// The current generation still reports normally.
	hb(cl, 2, enc(big))
	waitFor(t, "the gen-2 heartbeat to renew the lease", func() bool {
		_, lu := lookup()
		return lu.After(leaseBefore)
	})

	// And the gen-2 holder finishes the space; the client sees the
	// single-node hash.
	full := search.Run(fn, search.Options{})
	hash, err := full.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	var cresp distcl.CompleteResponse
	if _, err := cl.Call(ctx, distcl.PathComplete, distcl.CompleteRequest{
		WorkerID: "w1", AssignmentID: asn.AssignmentID, Key: asn.Key,
		SpaceHash: hash, SpaceB64: enc(full),
	}, &cresp); err != nil {
		t.Fatal(err)
	}
	if cresp.Status != "accepted" {
		t.Fatalf("completion status %q, want accepted", cresp.Status)
	}
	r := <-replies
	if r.status != http.StatusOK || r.doc["space_hash"] != hash {
		t.Fatalf("flight answered %d %v, want 200 with hash %s", r.status, r.doc["space_hash"], hash)
	}
}

// TestOtherTierUploadDropped: a heartbeat that uploads a checkpoint of
// the assignment's function but of the other tier is dropped — a
// re-dispatch seeded with it would resume the wrong space. The equiv
// upload is the larger one, so had it been taken, the watermark would
// refuse the smaller default-tier upload that follows.
func TestOtherTierUploadDropped(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DistLeaseTTL: 10 * time.Second, DistPollWait: 200 * time.Millisecond,
	})
	ctx := context.Background()
	cl := distcl.NewClient(distcl.Config{BaseURL: ts.URL, Timeout: 5 * time.Second})
	if _, err := cl.Call(ctx, distcl.PathRegister, distcl.RegisterRequest{WorkerID: "w1"}, &distcl.RegisterResponse{}); err != nil {
		t.Fatal(err)
	}
	replies := postAsync(t, ts, srcBody(sumSrc))
	var asn distcl.Assignment
	waitFor(t, "the flight's assignment", func() bool {
		st, err := cl.Call(ctx, distcl.PathPoll, distcl.PollRequest{WorkerID: "w1"}, &asn)
		return err == nil && st == http.StatusOK
	})

	fn := mustCompile(t, sumSrc, "sum")
	capped := func(opts search.Options) (string, int) {
		opts.CheckpointPath = filepath.Join(t.TempDir(), "sum.ckpt.space.gz")
		if r := search.Run(fn, opts); !r.Aborted {
			t.Fatal("the capped run finished")
		}
		b, err := os.ReadFile(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		r, err := search.Load(bytes.NewReader(b))
		if err != nil || r.Checkpoint == nil {
			t.Fatalf("no checkpoint to upload (%v)", err)
		}
		return base64.StdEncoding.EncodeToString(b), len(r.Nodes)
	}
	equiv, equivNodes := capped(search.Options{Equiv: true, MaxNodes: 40})
	plain, plainNodes := capped(search.Options{MaxNodes: 5})
	if equivNodes <= plainNodes {
		t.Fatalf("the equiv upload (%d nodes) must outgrow the default-tier one (%d)", equivNodes, plainNodes)
	}
	for _, ckpt := range []string{equiv, plain} {
		if _, err := cl.Call(ctx, distcl.PathHeartbeat, distcl.HeartbeatRequest{WorkerID: "w1",
			Assignments: []distcl.HeartbeatAssignment{{AssignmentID: asn.AssignmentID, CheckpointB64: ckpt, LeaseGen: asn.LeaseGen}},
		}, &distcl.HeartbeatResponse{}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the default-tier upload to be accepted", func() bool {
		s.dist.mu.Lock()
		defer s.dist.mu.Unlock()
		return s.dist.assignments[asn.AssignmentID].ckptNodes == plainNodes
	})

	full := search.Run(fn, search.Options{})
	hash, err := full.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := full.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Call(ctx, distcl.PathComplete, distcl.CompleteRequest{
		WorkerID: "w1", AssignmentID: asn.AssignmentID, Key: asn.Key,
		SpaceHash: hash, SpaceB64: base64.StdEncoding.EncodeToString(buf.Bytes()),
	}, &distcl.CompleteResponse{}); err != nil {
		t.Fatal(err)
	}
	if r := <-replies; r.status != http.StatusOK || r.doc["space_hash"] != hash {
		t.Fatalf("flight answered %d %v, want 200 with hash %s", r.status, r.doc["space_hash"], hash)
	}
}

// TestWorkerAbortPropagates: a cap abort on the worker comes back to
// the requesting client as the same 422 a local abort produces.
func TestWorkerAbortPropagates(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DistLeaseTTL: 2 * time.Second, DistPollWait: 100 * time.Millisecond,
	})
	startWorker(t, ts, "w1", nil, nil)
	waitFor(t, "worker to register", func() bool { return fleetLive(s) == 1 })

	status, doc, _ := post(t, ts, `{"source":`+jsonStr(sumSrc)+`,"options":{"max_nodes":3}}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("capped request: status %d (%v), want 422", status, doc)
	}
	if got := s.dist.assignVec.With("w1").Value(); got != 1 {
		t.Fatalf("abort was not produced by the fleet: assignments = %d", got)
	}
}

// TestFleetStatsAndHealth: /v1/stats and /healthz report the fleet.
func TestFleetStatsAndHealth(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DistLeaseTTL: 2 * time.Second, DistPollWait: 100 * time.Millisecond,
	})

	// Before any worker registers, the fleet section is absent.
	var stats struct {
		Fleet *fleetSummary `json:"fleet"`
	}
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Fleet != nil {
		t.Fatalf("fleet reported with no workers ever: %+v", stats.Fleet)
	}

	startWorker(t, ts, "w1", nil, nil)
	waitFor(t, "worker to register", func() bool { return fleetLive(s) == 1 })
	getJSON(t, ts, "/v1/stats", &stats)
	if stats.Fleet == nil || stats.Fleet.WorkersLive != 1 {
		t.Fatalf("stats fleet = %+v, want 1 live worker", stats.Fleet)
	}
	if len(stats.Fleet.Workers) != 1 || stats.Fleet.Workers[0].ID != "w1" {
		t.Fatalf("stats fleet workers = %+v, want [w1]", stats.Fleet.Workers)
	}

	var health struct {
		Status string        `json:"status"`
		Fleet  *fleetSummary `json:"fleet"`
	}
	getJSON(t, ts, "/healthz", &health)
	if health.Status != "ok" || health.Fleet == nil || health.Fleet.WorkersLive != 1 {
		t.Fatalf("healthz = %+v, want ok with 1 live worker", health)
	}
}

// reply is an enumerate response collected off the test goroutine.
type reply struct {
	status int
	doc    map[string]any
}

// postAsync sends body to ts's enumerate route; the reply arrives on
// the returned channel.
func postAsync(t *testing.T, ts *httptest.Server, body string) <-chan reply {
	replies := make(chan reply, 1)
	go func() {
		st, doc, _ := post(t, ts, body)
		replies <- reply{st, doc}
	}()
	return replies
}

// TestWholeAssignmentHolderKillEquivTier kills the holder of an
// equivalence-tier request's whole-space assignment once the holder has
// uploaded a checkpoint. The lease expires, and a second worker resumes
// the assignment from that upload, as it would a default-tier one: the
// re-dispatch is a recovery. The answer still hashes to a direct equiv
// enumeration.
func TestWholeAssignmentHolderKillEquivTier(t *testing.T) {
	s, ts := newTestServer(t, Config{
		DistLeaseTTL: 600 * time.Millisecond, DistPollWait: 100 * time.Millisecond,
		DefaultDeadline: 5 * time.Minute,
	})
	// w1 crawls at 60ms per application of phase c, so it is still
	// mid-space when the partition hits.
	gate := &gatedTransport{}
	startWorker(t, ts, "w1", gate, faultinject.MustParse("hang=c:60ms"))
	waitFor(t, "w1 to register", func() bool { return fleetLive(s) == 1 })

	want, err := search.Run(mustCompile(t, sumSrc, "sum"), search.Options{Equiv: true}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	replies := postAsync(t, ts, `{"source":`+jsonStr(sumSrc)+`,"options":{"equiv":true}}`)
	waitFor(t, "an equiv checkpoint upload from w1", func() bool {
		s.dist.mu.Lock()
		defer s.dist.mu.Unlock()
		for _, a := range s.dist.assignments {
			if a.state == stateAssigned && a.worker == "w1" && a.ckptNodes > 0 {
				return true
			}
		}
		return false
	})
	gate.dead.Store(true)
	startWorker(t, ts, "w2", nil, nil)

	r := <-replies
	if r.status != http.StatusOK {
		t.Fatalf("recovered equiv request: status %d: %v", r.status, r.doc)
	}
	if r.doc["space_hash"] != want {
		t.Fatalf("recovered equiv hash %v != direct equiv hash %s", r.doc["space_hash"], want)
	}
	if got := s.dist.expiryVec.With("w1").Value(); got < 1 {
		t.Fatalf(`dist.lease_expiries{worker="w1"} = %d, want >= 1`, got)
	}
	if got := s.dist.assignVec.With("w2").Value(); got != 1 {
		t.Fatalf(`dist.assignments{worker="w2"} = %d, want 1`, got)
	}
	if got := s.dist.recoverVec.With("w2").Value(); got < 1 {
		t.Fatalf(`dist.recoveries{worker="w2"} = %d, want >= 1 (the re-dispatch was not checkpoint-seeded)`, got)
	}
}
