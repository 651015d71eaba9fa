package server

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/search"
)

// TestShardedEnumerationMatchesLocal: with intra-space sharding on and
// two workers joined, one enumeration is warmed up locally, split into
// two frontier shards, run on the fleet, and merged — and the space the
// coordinator serves hashes byte-identically to a single-node run, for
// the default tier and for the equivalence tier derived from a second
// sharded merge.
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

	// The equivalence tier is derived from a fresh sharded merge and
	// must match a direct -equiv enumeration exactly.
	wantEq, err := search.Run(mustCompile(t, sumSrc, "sum"), search.Options{Equiv: true}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	status, doc, _ = post(t, ts, `{"source":`+jsonStr(sumSrc)+`,"options":{"equiv":true}}`)
	if status != http.StatusOK {
		t.Fatalf("sharded equiv request: status %d: %v", status, doc)
	}
	if doc["space_hash"] != wantEq {
		t.Fatalf("sharded equiv hash %v != direct equiv hash %s", doc["space_hash"], wantEq)
	}
	if got := s.dist.shardMerges.Value(); got != 2 {
		t.Fatalf("dist.shard.merges = %d after the equiv flight, want 2", got)
	}

	// The flight recorder saw the split and the merge, and the
	// coordinator's own share of both flights is on the record: each
	// request's merge/derive time sits inside its enumerate time, and
	// the histograms saw two merges and the one derivation.
	var split, merge bool
	for _, rec := range s.flights.snapshot() {
		switch rec.Event {
		case "shard-split":
			split = true
		case "shard-merge":
			merge = true
		case "":
			if rec.MergeMS+rec.DeriveMS+rec.CheckpointMS+rec.PublishMS > rec.EnumerateMS {
				t.Fatalf("flight record's parts exceed its enumerate_ms: %+v", rec)
			}
		}
	}
	if !split || !merge {
		t.Fatalf("flight recorder missing shard events (split=%v merge=%v)", split, merge)
	}
	hists := s.reg.Snapshot().Histograms
	if m, d := hists["dist.shard.merge.duration_ns"], hists["dist.shard.derive.duration_ns"]; m.Count != 2 || d.Count != 1 || m.Sum <= 0 || d.Sum <= 0 {
		t.Fatalf("dist.shard.merge/derive.duration_ns saw %d/%d observations (sums %d/%d), want 2/1", m.Count, d.Count, m.Sum, d.Sum)
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

// runShardKillScenario is the acceptance-criteria drill: one of the two
// shard holders is killed (network partition = SIGKILL to the
// coordinator) mid-shard, its lease expires, only that shard is
// re-dispatched — seeded with the dead holder's last uploaded
// checkpoint — and the merged space still hashes identically to a
// clean single-node enumeration of the requested tier.
func runShardKillScenario(t *testing.T, equiv bool) {
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

	opts := search.Options{Equiv: equiv}
	want, err := search.Run(mustCompile(t, sumSrc, "sum"), opts).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	body := srcBody(sumSrc)
	if equiv {
		body = `{"source":` + jsonStr(sumSrc) + `,"options":{"equiv":true}}`
	}

	type reply struct {
		status int
		doc    map[string]any
	}
	replies := make(chan reply, 1)
	go func() {
		st, doc, _ := post(t, ts, body)
		replies <- reply{st, doc}
	}()

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
		t.Fatalf("recovered sharded hash %v != clean single-node hash %s (equiv=%v)",
			r.doc["space_hash"], want, equiv)
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

func TestShardHolderKillDefaultTier(t *testing.T) { runShardKillScenario(t, false) }
func TestShardHolderKillEquivTier(t *testing.T)   { runShardKillScenario(t, true) }
