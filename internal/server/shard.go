package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/distcl"
	"repro/internal/search"
)

// Intra-space sharding splits ONE enumeration across the fleet. The
// coordinator runs the space locally only until the frontier holds at
// least ShardFanout nodes (the warmup), partitions that frontier into
// disjoint sub-assignments — each a self-contained checkpoint document
// a worker resumes like any other — and dispatches them through the
// ordinary lease protocol: per-shard watermarks, per-shard recovery
// checkpoints, and re-dispatch of only the shard whose holder died.
// When every shard completes, the search engine runs its level loop
// from the warmup frontier over the sub-spaces' recorded outcomes,
// reproducing byte-for-byte the space a single node would have
// enumerated (search.MergeShards). Any
// wobble — a thinned-out fleet, an aborted shard, a failed merge —
// falls back to the whole-space dispatch path, which itself falls back
// to local enumeration, so sharding can only add capacity, never
// subtract correctness.

// shardSlot is the disk store checkpoint key for shard i of a flight
// key. Each shard assignment uses it as its assignment key, so the
// generic checkpoint mirroring in acceptCheckpoint lands each shard's
// recovery point in its own slot.
func shardSlot(key cacheKey, i int) cacheKey {
	return cacheKey(fmt.Sprintf("%s.shard%d", key, i))
}

// shardEnumerate offers fl to the fleet as ShardFanout frontier
// partitions. handled=false means the caller should fall through to
// the whole-space dispatch (and from there to local): sharding is
// disabled, the fleet is too small, a shard aborted or exhausted its
// attempts, or the merge failed verification. The warmup's paused
// checkpoint sits in the flight key's disk slot, so whatever path runs
// next resumes past the warmup instead of restarting.
func (d *dispatcher) shardEnumerate(fl *flight) (*search.Result, bool) {
	k := d.s.cfg.ShardFanout
	if k < 2 {
		return nil, false
	}
	d.mu.Lock()
	live := 0
	for _, w := range d.workers {
		if w.state == "live" {
			live++
		}
	}
	d.mu.Unlock()
	if live < 2 {
		// One worker gains nothing over the whole-space dispatch and
		// loses pipelining; let the plain path have it.
		return nil, false
	}

	warmup := d.shardWarmup(fl, k)
	if warmup == nil || warmup.Aborted {
		return nil, false
	}
	if warmup.Checkpoint == nil {
		// The space completed before the frontier ever grew to k nodes
		// (shallow spaces, tight caps): nothing to distribute.
		d.shardWarmupDone.Inc()
		return d.shardFinish(fl, warmup)
	}

	docs, ids, err := search.PartitionCheckpoint(warmup, k)
	if err != nil {
		d.s.logger.Warn("dist shard partition failed", "flight_id", fl.id, "err", err.Error())
		d.shardFallbacks.Inc()
		return nil, false
	}

	// Shards always enumerate the default tier: sub-space merge needs
	// raw nodes, and the equivalence tier is derived from the merged
	// space afterwards (shardFinish).
	wopts := distcl.SearchOptions{Cap: fl.no.Cap, MaxNodes: fl.no.MaxNodes, Check: fl.no.Check}
	slots := make([]cacheKey, len(docs))
	for i := range docs {
		slots[i] = shardSlot(fl.key, i)
	}

	d.mu.Lock()
	if !d.anyLiveLocked() {
		d.mu.Unlock()
		d.shardFallbacks.Inc()
		return nil, false
	}
	as := make([]*assignment, len(docs))
	for i := range docs {
		a := d.newAssignment(fl, slots[i], wopts, i, docs[i])
		d.assignments[a.id] = a
		as[i] = a
	}
	d.mu.Unlock()

	// Pin every shard slot for the life of the flight — the LRU sweep
	// must not evict a recovery point the sweeper may need within the
	// next lease TTL — and prime it with the shard's starting document,
	// overwriting whatever an earlier life of this key left behind (a
	// previous attempt partitions at a different boundary, so a stale
	// slot would seed a worker with the wrong sub-space).
	for i, slot := range slots {
		d.s.store.pinCkpt(slot)
		if err := d.s.store.writeCkpt(slot, docs[i]); err != nil {
			d.s.logger.Warn("dist shard slot not primed", "flight_id", fl.id,
				"shard", i, "err", err.Error())
		}
	}

	queued := 0
	for _, a := range as {
		select {
		case d.pending <- a:
			queued++
		default:
		}
	}
	if queued < len(as) {
		// Dispatch queue saturated; withdraw the whole split (queued
		// entries turn stale and polls skip them).
		for _, a := range as {
			d.cancelAssignment(a)
		}
		d.shardReleaseSlots(slots)
		d.shardFallbacks.Inc()
		return nil, false
	}

	d.shardSplits.Inc()
	d.shardAssignments.Add(int64(len(as)))
	d.inflight.Add(int64(len(as)))
	defer d.inflight.Add(-int64(len(as)))
	d.s.flights.add(flightRecord{Event: "shard-split", FlightID: fl.id})
	d.s.logger.InfoContext(fl.ctx, "dist space sharded", "flight_id", fl.id,
		"func", fl.fn.Name, "shards", len(as), "frontier", len(warmup.Checkpoint.Frontier))

	for _, a := range as {
		select {
		case <-a.done:
		case <-fl.ctx.Done():
			for _, b := range as {
				d.cancelAssignment(b)
			}
			d.shardReleaseSlots(slots)
			return &search.Result{FuncName: fl.fn.Name, Aborted: true,
				AbortReason: fmt.Sprintf("canceled: %v", context.Cause(fl.ctx))}, true
		}
	}

	shards := make([]search.ShardSpace, len(as))
	complete := true
	d.mu.Lock()
	for i, a := range as {
		if a.state == stateDone && !a.aborted && a.res != nil {
			shards[i] = search.ShardSpace{Res: a.res, FrontierIDs: ids[i]}
		} else {
			complete = false
		}
		delete(d.assignments, a.id)
	}
	d.mu.Unlock()
	d.shardReleaseSlots(slots)
	if !complete {
		// A shard aborted on its worker (cap, max-nodes, timeout) or
		// burned through its attempts. Shard-local caps do not land at
		// the serial positions, so the only byte-faithful answer is the
		// whole-space path.
		d.s.logger.Warn("dist shard set incomplete, falling back", "flight_id", fl.id)
		d.shardFallbacks.Inc()
		return nil, false
	}

	began := time.Now()
	merged, err := search.MergeShards(warmup, shards)
	fl.merge = time.Since(began)
	d.shardMergeDur.Observe(int64(fl.merge))
	if err != nil {
		d.shardMergeFails.Inc()
		d.s.logger.Warn("dist shard merge failed", "flight_id", fl.id, "err", err.Error())
		return nil, false
	}
	d.shardMerges.Inc()
	d.s.logger.InfoContext(fl.ctx, "dist shards merged", "flight_id", fl.id,
		"func", fl.fn.Name, "shards", len(shards), "nodes", len(merged.Nodes))
	res, handled := d.shardFinish(fl, merged)
	d.s.flights.add(flightRecord{Event: "shard-merge", FlightID: fl.id,
		MergeMS: fl.merge.Milliseconds(), DeriveMS: fl.derive.Milliseconds()})
	return res, handled
}

// shardWarmup runs (or resumes) the flight's enumeration with the
// pause-at-frontier option: the returned result either carries a
// checkpoint whose frontier is ready to partition, or is the complete
// space. nil reports an unresumable checkpoint; the caller falls back.
func (d *dispatcher) shardWarmup(fl *flight, k int) *search.Result {
	res, err := d.s.runOrResume(fl, k)
	if err != nil {
		d.s.logger.Warn("dist shard warmup resume failed", "flight_id", fl.id, "err", err.Error())
		return nil
	}
	return res
}

// shardFinish adapts a complete merged (or warmup-complete) default
// space to the flight's requested tier: equiv flights get the
// equivalence space derived from it — byte-identical to a direct equiv
// enumeration — and default flights take it as is.
func (d *dispatcher) shardFinish(fl *flight, full *search.Result) (*search.Result, bool) {
	if !fl.no.Equiv {
		return full, true
	}
	if full.Aborted {
		// A cap hit in the default tier says nothing about where the
		// equivalence tier (fewer nodes per level) would have landed;
		// only a real equiv enumeration answers that.
		d.shardFallbacks.Inc()
		return nil, false
	}
	began := time.Now()
	derived, err := search.DeriveEquiv(full, search.Options{
		MaxSeqPerLevel: fl.no.Cap,
		MaxNodes:       fl.no.MaxNodes,
		Check:          fl.no.Check,
		Logger:         d.s.logger,
		Metrics:        d.s.reg,
	})
	fl.derive = time.Since(began)
	d.shardDeriveDur.Observe(int64(fl.derive))
	if err != nil {
		d.s.logger.Warn("dist shard equiv derivation failed", "flight_id", fl.id, "err", err.Error())
		d.shardFallbacks.Inc()
		return nil, false
	}
	return derived, true
}

// shardReleaseSlots unpins and deletes every shard checkpoint slot.
// Shard progress is only meaningful against the exact partition that
// produced it, and a future attempt re-partitions at whatever boundary
// its own warmup pauses on, so terminal paths always clear the slots
// (cancelAssignment has already fenced late uploads by then).
func (d *dispatcher) shardReleaseSlots(slots []cacheKey) {
	for _, slot := range slots {
		d.s.store.unpinCkpt(slot)
		d.s.store.removeCkpt(slot)
	}
}
