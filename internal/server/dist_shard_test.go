package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/search"
)

// TestShardedEnumerationMatchesLocal: with intra-space sharding on and
// two workers joined, a default-tier enumeration is warmed up locally,
// split into two frontier shards, run on the fleet, and merged — and
// the space the coordinator serves hashes byte-identically to a
// single-node run. An equivalence-tier enumeration on the same fleet is
// one whole-space assignment, never split, and hashes identically to a
// direct equiv run.
func TestShardedEnumerationMatchesLocal(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ShardFanout: 2, DistLeaseTTL: 2 * time.Second, DistPollWait: 100 * time.Millisecond,
		// Under -race on a small box the sharded round trips run well
		// past the 60s default request deadline.
		DefaultDeadline: 5 * time.Minute,
	})
	startWorker(t, ts, "w1", nil, nil)
	startWorker(t, ts, "w2", nil, nil)
	waitFor(t, "workers to register", func() bool { return fleetLive(s) == 2 })

	want, err := search.Run(mustCompile(t, sumSrc, "sum"), search.Options{}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	status, doc, _ := post(t, ts, srcBody(sumSrc))
	if status != http.StatusOK {
		t.Fatalf("sharded request: status %d: %v", status, doc)
	}
	if doc["space_hash"] != want {
		t.Fatalf("sharded hash %v != single-node hash %s", doc["space_hash"], want)
	}
	if got := s.dist.shardSplits.Value(); got != 1 {
		t.Fatalf("dist.shard.splits = %d, want 1", got)
	}
	if got := s.dist.shardMerges.Value(); got != 1 {
		t.Fatalf("dist.shard.merges = %d, want 1", got)
	}
	if got := s.dist.shardAssignments.Value(); got != 2 {
		t.Fatalf("dist.shard.assignments = %d, want 2", got)
	}
	if got := s.dist.shardMergeFails.Value() + s.dist.shardFallbacks.Value(); got != 0 {
		t.Fatalf("shard merge failures + fallbacks = %d, want 0", got)
	}

	// events counts the flight recorder's records by event.
	events := func() map[string]int {
		n := map[string]int{}
		for _, rec := range s.flights.snapshot() {
			n[rec.Event]++
			if rec.Event == "" && rec.MergeMS+rec.CheckpointMS+rec.PublishMS > rec.EnumerateMS {
				t.Fatalf("flight record's parts exceed its enumerate_ms: %+v", rec)
			}
		}
		return n
	}
	before := events()
	if before["shard-split"] != 1 || before["shard-merge"] != 1 || before["dispatch"] < 2 {
		t.Fatalf("flight recorder after the default-tier flight: %v, want one split, one merge, a dispatch per part", before)
	}

	// The equivalence tier is one assignment on the same two-worker
	// fleet: no split, no merge, and the answer is the worker's live
	// equiv run, hashing to a direct -equiv enumeration.
	wantEq, err := search.Run(mustCompile(t, sumSrc, "sum"), search.Options{Equiv: true}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	status, doc, _ = post(t, ts, `{"source":`+jsonStr(sumSrc)+`,"options":{"equiv":true}}`)
	if status != http.StatusOK {
		t.Fatalf("fleet equiv request: status %d: %v", status, doc)
	}
	if doc["space_hash"] != wantEq {
		t.Fatalf("fleet equiv hash %v != direct equiv hash %s", doc["space_hash"], wantEq)
	}
	after := events()
	if d := after["dispatch"] - before["dispatch"]; d != 1 || after["shard-split"] != 1 || after["shard-merge"] != 1 {
		t.Fatalf("the equiv flight added %d dispatches and %d splits, %d merges; want one dispatch and neither",
			d, after["shard-split"]-1, after["shard-merge"]-1)
	}
	for name, want := range map[string]int64{"dist.shard.splits": 1, "dist.shard.merges": 1,
		"dist.shard.assignments": 2, "server.enumerations": 1} {
		if got := counter(s, name); got != want {
			t.Errorf("%s = %d after the equiv flight, want %d", name, got, want)
		}
	}
	if m := s.reg.Snapshot().Histograms["dist.shard.merge.duration_ns"]; m.Count != 1 || m.Sum <= 0 {
		t.Fatalf("dist.shard.merge.duration_ns saw %d observations (sum %d), want 1", m.Count, m.Sum)
	}

	// No shard checkpoint slots were left behind (pinned or otherwise).
	keys, err := s.store.keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !keyPattern.MatchString(string(k)) {
			t.Fatalf("stray cache entry %s after shard merges", k)
		}
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

// TestShardHolderKillDefaultTier is the acceptance-criteria drill: one
// of the two shard holders is killed (network partition = SIGKILL to
// the coordinator) mid-shard, its lease expires, only that shard is
// re-dispatched — seeded with the dead holder's last uploaded
// checkpoint — and the merged space still hashes identically to a
// clean single-node enumeration.
func TestShardHolderKillDefaultTier(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ShardFanout: 2, DistLeaseTTL: 600 * time.Millisecond, DistPollWait: 100 * time.Millisecond,
		DefaultDeadline: 5 * time.Minute,
	})
	gate := &gatedTransport{}
	// w1 crawls (60ms per application of phase c) so it is still
	// mid-shard when the partition hits; w2 runs clean.
	startWorker(t, ts, "w1", gate, faultinject.MustParse("hang=c:60ms"))
	startWorker(t, ts, "w2", nil, nil)
	waitFor(t, "workers to register", func() bool { return fleetLive(s) == 2 })

	want, err := search.Run(mustCompile(t, sumSrc, "sum"), search.Options{}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	replies := postAsync(t, ts, srcBody(sumSrc))

	// Wait until w1 holds a shard and has uploaded progress, then cut
	// the network and bring in a replacement.
	waitFor(t, "a shard checkpoint upload from w1", func() bool {
		s.dist.mu.Lock()
		defer s.dist.mu.Unlock()
		for _, a := range s.dist.assignments {
			if !a.whole && a.worker == "w1" && a.ckptNodes > 0 {
				return true
			}
		}
		return false
	})
	gate.dead.Store(true)
	startWorker(t, ts, "w3", nil, nil)

	r := <-replies
	if r.status != http.StatusOK {
		t.Fatalf("recovered sharded request: status %d: %v", r.status, r.doc)
	}
	if r.doc["space_hash"] != want {
		t.Fatalf("recovered sharded hash %v != clean single-node hash %s", r.doc["space_hash"], want)
	}
	if got := s.dist.expiryVec.With("w1").Value(); got < 1 {
		t.Fatalf(`dist.lease_expiries{worker="w1"} = %d, want >= 1`, got)
	}
	// Only the dead holder's shard was re-dispatched: w2 never lost its
	// lease.
	if got := s.dist.retryVec.With("w2").Value(); got != 0 {
		t.Fatalf(`dist.retries{worker="w2"} = %d, want 0 (the healthy shard was reassigned)`, got)
	}
	if got := s.dist.shardMerges.Value(); got != 1 {
		t.Fatalf("dist.shard.merges = %d, want 1", got)
	}
	if got := s.dist.shardMergeFails.Value(); got != 0 {
		t.Fatalf("dist.shard.merge_failures = %d, want 0", got)
	}
}

// TestShardHolderKillEquivTier kills the holder of an equivalence-tier
// request's one assignment, on a coordinator that would split a
// default-tier request across its two live workers. The lease expires,
// and the other worker runs the assignment again from nothing: an equiv
// run uploads no checkpoint, so nothing is recovered. The answer still
// hashes to a direct equiv enumeration.
func TestShardHolderKillEquivTier(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ShardFanout: 2, DistLeaseTTL: 600 * time.Millisecond, DistPollWait: 100 * time.Millisecond,
		DefaultDeadline: 5 * time.Minute,
	})
	// w0 never polls, so w1 — crawling at 60ms per application of phase
	// c, still mid-space when the partition hits — takes the assignment;
	// w0 still counts as live when the flight picks its fan-out.
	registerIdle(t, ts, "w0")
	gate := &gatedTransport{}
	startWorker(t, ts, "w1", gate, faultinject.MustParse("hang=c:60ms"))
	waitFor(t, "workers to register", func() bool { return fleetLive(s) == 2 })

	want, err := search.Run(mustCompile(t, sumSrc, "sum"), search.Options{Equiv: true}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	replies := postAsync(t, ts, `{"source":`+jsonStr(sumSrc)+`,"options":{"equiv":true}}`)
	waitFor(t, "w1 to hold the equiv assignment", func() bool {
		s.dist.mu.Lock()
		defer s.dist.mu.Unlock()
		for _, a := range s.dist.assignments {
			if a.whole && a.state == stateAssigned && a.worker == "w1" {
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
	for name, got := range s.reg.Snapshot().Counters {
		if (strings.HasPrefix(name, "dist.recoveries") || strings.HasPrefix(name, "dist.shard.")) && got != 0 {
			t.Errorf("%s = %d, want 0: the equiv assignment is never split and has nothing to recover from", name, got)
		}
	}
}
