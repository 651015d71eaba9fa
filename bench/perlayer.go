package main

import (
	"fmt"
	"time"

	"repro/internal/opt"
	"repro/internal/search"
)

// perLayerDefs are the traced run's metrics, one group per layer (the
// repository's packages). A traced run reports all of them; a probe
// runs only on the workloads whose end-to-end numbers its layer moves
// (README.md has the table), and a metric whose layer the workload does
// not exercise reads 0.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{Name: "mc.compile_ms", Unit: "ms", Better: "lower"},

		{Name: "rtl.clone_ns", Unit: "ns", Better: "lower"},
		{Name: "opt.attempt_ns", Unit: "ns", Better: "lower"},
		{Name: "opt.active_ratio", Unit: "ratio", Better: "higher"},
		{Name: "fingerprint.summarize_ns", Unit: "ns", Better: "lower"},
		{Name: "fingerprint.bytes_per_instance", Unit: "B", Better: "lower"},

		{Name: "search.run_w1_ms", Unit: "ms", Better: "lower"},
		{Name: "search.run_wN_ms", Unit: "ms", Better: "lower"},
		{Name: "search.width_speedup", Unit: "ratio", Better: "higher"},
		{Name: "search.engine_self_share", Unit: "ratio", Better: "lower"},
		{Name: "search.merged_ratio", Unit: "ratio", Better: "higher"},
		{Name: "search.dormant_ratio", Unit: "ratio", Better: "higher"},
		{Name: "search.index.probes", Unit: "count", Better: "lower"},
		{Name: "search.index.bytecompares", Unit: "count", Better: "lower"},
		{Name: "search.index.stripe.contended", Unit: "count", Better: "lower"},
		{Name: "search.index.retained_bytes", Unit: "B", Better: "lower"},

		{Name: "search.checkpoint_overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "search.checkpoint.writes", Unit: "count", Better: "lower"},
		{Name: "search.save_ms", Unit: "ms", Better: "lower"},
		{Name: "search.save_bytes", Unit: "B", Better: "lower"},
		{Name: "search.canonical_hash_ms", Unit: "ms", Better: "lower"},
		{Name: "search.load_ms", Unit: "ms", Better: "lower"},

		{Name: "search.warmup_ms", Unit: "ms", Better: "lower"},
		{Name: "search.partition_ms", Unit: "ms", Better: "lower"},
		{Name: "search.shard_bytes", Unit: "B", Better: "lower"},
		{Name: "search.shard_resume_max_ms", Unit: "ms", Better: "lower"},
		{Name: "search.shard_resume_sum_ms", Unit: "ms", Better: "lower"},
		{Name: "search.shard_redundant_attempt_ratio", Unit: "ratio", Better: "lower"},
		{Name: "search.merge_ms", Unit: "ms", Better: "lower"},

		{Name: "search.live_equiv_ms", Unit: "ms", Better: "lower"},
		{Name: "search.derive_equiv_ms", Unit: "ms", Better: "lower"},
		{Name: "search.equiv_fold_ratio", Unit: "ratio", Better: "higher"},

		{Name: "telemetry.registry_overhead_pct", Unit: "%", Better: "lower"},

		{Name: "server.flight_queue_wait_ms", Unit: "ms", Better: "lower"},
		{Name: "server.flight_enumerate_ms", Unit: "ms", Better: "lower"},
		{Name: "server.flight_serialize_ms", Unit: "ms", Better: "lower"},
		{Name: "server.cold_overhead_ratio", Unit: "ratio", Better: "lower"},
		{Name: "server.cache.hit_mem", Unit: "count", Better: "higher"},
		{Name: "server.cache.hit_disk", Unit: "count", Better: "higher"},
		{Name: "server.cache.miss", Unit: "count", Better: "lower"},
		{Name: "server.cpu_wait_ms", Unit: "ms", Better: "lower"},
		{Name: "server.http_overhead_us", Unit: "us", Better: "lower"},
		{Name: "server.disk_bytes", Unit: "B", Better: "lower"},
		// The read side of serve_warm. These are what a user of a warm
		// server sees, but an end-to-end metric has to exist on every
		// workload and these exist on one; README.md records the demotion.
		{Name: "server.disk_hit_set_ms", Unit: "ms", Better: "lower"},
		{Name: "server.mem_hit_p50_us", Unit: "us", Better: "lower"},
		{Name: "server.mem_hit_p99_us", Unit: "us", Better: "lower"},
		{Name: "server.mem_hit_req_per_s", Unit: "1/s", Better: "higher"},
		{Name: "server.space_get_mb_per_s", Unit: "MB/s", Better: "higher"},

		{Name: "dist.shard.splits", Unit: "count", Better: "higher"},
		{Name: "dist.shard.merges", Unit: "count", Better: "higher"},
		{Name: "dist.shard.fallbacks", Unit: "count", Better: "lower"},
		{Name: "dist.local_fallbacks", Unit: "count", Better: "lower"},
		{Name: "dist.heartbeats", Unit: "count", Better: "lower"},
		{Name: "dist.stale_uploads", Unit: "count", Better: "lower"},
		{Name: "dist.lease_expiries", Unit: "count", Better: "lower"},
		{Name: "dist.dispatch_overhead_ms", Unit: "ms", Better: "lower"},

		{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	}
	for _, p := range opt.All() {
		defs = append(defs, metricDef{Name: "opt.attempt_ns." + string(p.ID()), Unit: "ns", Better: "lower"})
	}
	return defs
}()

// toPerLayer turns an end-to-end report into a traced run's: the
// end-to-end numbers of the traced round stay as detail (tracing is
// on, so they are not the benchmark's), and every per-layer metric
// starts at 0.
func (rep *report) toPerLayer() {
	for _, d := range endToEndDefs {
		rep.detail(d.Name+" (traced round)", rep.Metrics[d.Name].Value, d.Unit, "")
	}
	rep.Metrics = make(map[string]metricValue, len(perLayerDefs))
	rep.defs = make(map[string]metricDef, len(perLayerDefs))
	for _, d := range perLayerDefs {
		rep.defs[d.Name] = d
		rep.set(d.Name, 0)
	}
}

// perLayer runs the probes of the layers this workload exercises and
// reads the traced round's server, filling rep with the per-layer
// metrics.
func (r *run) perLayer(w workload, m *measured, rep *report) error {
	rep.toPerLayer()
	sp := r.tr.begin(r.root, "bench", "probes", "")
	defer sp.end()
	if err := r.probeMC(sp, rep); err != nil {
		return err
	}
	if err := w.layers(r, sp, m.rounds[0], rep); err != nil {
		return err
	}
	rep.set("process.peak_rss_mb", peakRSSMB())
	rep.Attempted, rep.Failed, rep.Failures = r.attempted, r.failed, r.failures
	rep.Correct = r.failed == 0
	return rep.complete()
}

// layers of enumerate: everything under the engine, then the engine.
func (*enumerateWorkload) layers(r *run, sp *span, _ roundStats, rep *report) error {
	replay, err := r.probeReplay(sp, r.cfg.sz.f5)
	if err != nil {
		return err
	}
	replay.report(rep)
	engine, err := r.probeEngine(sp, r.cfg.sz.f5, 2)
	if err != nil {
		return err
	}
	engine.report(rep, replay)
	return nil
}

// layers of serve_cold: what the miss path adds to the engine —
// checkpointing, the codec, the live equiv tier — and the server's own
// account of the traced round.
func (w *serveColdWorkload) layers(r *run, sp *span, round roundStats, rep *report) error {
	sz := r.cfg.sz
	inProcess, _, err := r.runSet(sp, "search.Run(served width)", r.defaultSet(), search.Options{Workers: r.width}, nil)
	if err != nil {
		return err
	}
	rep.set("server.cold_overhead_ratio", round.def.sum().Seconds()/inProcess.Seconds())
	results, err := r.probeCheckpoint(sp, sz.f5, rep)
	if err != nil {
		return err
	}
	if err := r.probeCodec(sp, results, rep); err != nil {
		return err
	}
	if err := r.probeEquiv(sp, sz.e2, false, rep); err != nil {
		return err
	}
	reportServer(w.scrape, rep)
	r.expectCounts(w.scrape, 0, 0, r.requestsPerRound())
	return nil
}

// layers of serve_warm: the codec a disk hit runs, the read-side
// numbers and what HTTP transport adds to a mem hit.
func (w *serveWarmWorkload) layers(r *run, sp *span, round roundStats, rep *report) error {
	sz := r.cfg.sz
	_, results, err := r.runSet(sp, "search.Run(wN)", sz.f5, search.Options{Workers: r.nproc}, nil)
	if err != nil {
		return err
	}
	if err := r.probeCodec(sp, results, rep); err != nil {
		return err
	}
	reportServer(w.scrape, rep)
	hits := sz.memHits / r.width * r.width
	r.expectCounts(w.scrape, hits, r.requestsPerRound(), 0)
	v, _ := warmNumbers([]roundStats{round})
	rep.set("server.disk_hit_set_ms", v.diskHitSetMS)
	rep.set("server.mem_hit_p50_us", v.memP50US)
	rep.set("server.mem_hit_p99_us", v.memP99US)
	rep.set("server.mem_hit_req_per_s", v.memReqPerS)
	rep.set("server.space_get_mb_per_s", v.getMBPerS)
	rep.set("server.http_overhead_us", v.memP50US-us(w.handler))
	return nil
}

// layers of fleet_shard: the shard path without a fleet, both equivalence
// implementations, and the coordinator's own account of the traced
// round. What the fleet's wall adds to the in-process shard path of
// the same functions is dispatch: lease and poll, uploads, scheduling.
func (w *fleetWorkload) layers(r *run, sp *span, round roundStats, rep *report) error {
	sz := r.cfg.sz
	sc, err := r.probeShardPath(sp, sz.g3)
	if err != nil {
		return err
	}
	sc.report(rep)
	if err := r.probeEquiv(sp, sz.e2, true, rep); err != nil {
		return err
	}
	reportServer(w.scrape, rep)
	reportDist(w.scrape, rep)
	var dispatch time.Duration
	for _, name := range r.defaultSet() {
		dispatch += round.def[name].lat - sc.critical[name]
	}
	rep.set("dist.dispatch_overhead_ms", ms(dispatch))
	r.expectCounts(w.scrape, 0, 0, r.requestsPerRound())
	return nil
}

// requestsPerRound is how many enumerate requests threeSets sends.
func (r *run) requestsPerRound() int {
	return len(r.defaultSet()) + len(r.equivSet()) + r.smallPasses()*len(r.small)
}

// expectCounts gates the server's cache-tier counters for the traced
// round against what the workload's requests must have produced.
func (r *run) expectCounts(sc *serverScrape, mem, disk, miss int) {
	got := [3]float64{sc.counter("server.cache.hit_mem"), sc.counter("server.cache.hit_disk"), sc.counter("server.cache.miss")}
	want := [3]float64{float64(mem), float64(disk), float64(miss)}
	var err error
	if got != want {
		err = fmt.Errorf("server cache counters mem/disk/miss = %v, the round's requests make %v", got, want)
	}
	r.op(err)
}
