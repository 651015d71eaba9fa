package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/search"
	"repro/internal/telemetry"
)

// runSet enumerates names in-process under opts and returns the summed
// wall time of the search.Run calls and the results. mutate adjusts
// the options per function (checkpoint paths).
func (r *run) runSet(parent *span, label string, names []string, opts search.Options, mutate func(name string, o *search.Options)) (time.Duration, []*search.Result, error) {
	var wall time.Duration
	results := make([]*search.Result, 0, len(names))
	for _, name := range names {
		o := opts
		if mutate != nil {
			mutate(name, &o)
		}
		sp := r.tr.begin(parent, "search", label+":"+name, "")
		start := time.Now()
		res := search.Run(r.corp[name], o)
		wall += time.Since(start)
		sp.end()
		if res.Aborted {
			return 0, nil, fmt.Errorf("%s: %s aborted: %s", label, name, res.AbortReason)
		}
		results = append(results, res)
	}
	return wall, results, nil
}

// engineCost is the engine probe's reading over a set of functions.
type engineCost struct {
	w1, wN      time.Duration
	withMetrics time.Duration // width N, Options.Metrics set
	results     []*search.Result
	snap        telemetry.Snapshot
}

// probeEngine times the whole engine at width 1 and width nproc, and
// once more at nproc with a metrics registry attached. The two nproc
// timings alternate over reps passes and each is the median, so their
// difference (the registry's cost) is not one pass's noise.
func (r *run) probeEngine(parent *span, names []string, reps int) (*engineCost, error) {
	sp := r.tr.begin(parent, "bench", "probe:engine", "")
	defer sp.end()
	ec := &engineCost{}
	var err error
	if ec.w1, ec.results, err = r.runSet(sp, "search.Run(w1)", names, search.Options{Workers: 1}, nil); err != nil {
		return nil, err
	}
	var plain, metered []float64
	for i := 0; i < reps; i++ {
		wall, _, err := r.runSet(sp, "search.Run(wN)", names, search.Options{Workers: r.nproc}, nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, wall.Seconds())
		reg := telemetry.NewRegistry()
		wall, _, err = r.runSet(sp, "search.Run(wN,metrics)", names, search.Options{Workers: r.nproc, Metrics: reg}, nil)
		if err != nil {
			return nil, err
		}
		metered = append(metered, wall.Seconds())
		ec.snap = reg.Snapshot()
	}
	ec.wN = time.Duration(median(plain) * float64(time.Second))
	ec.withMetrics = time.Duration(median(metered) * float64(time.Second))
	return ec, nil
}

func (ec *engineCost) report(rep *report, replay *replayCost) {
	var attempts, active, dormant, merged int
	for _, res := range ec.results {
		attempts += res.Stats.Attempts
		active += res.Stats.Active
		dormant += res.Stats.Dormant
		merged += res.Stats.Merged
	}
	rep.set("search.run_w1_ms", ms(ec.w1))
	rep.set("search.run_wN_ms", ms(ec.wN))
	rep.set("search.width_speedup", ec.w1.Seconds()/ec.wN.Seconds())
	rep.set("search.merged_ratio", float64(merged)/float64(max(active, 1)))
	rep.set("search.dormant_ratio", float64(dormant)/float64(max(attempts, 1)))
	if replay != nil {
		rep.set("search.engine_self_share", (ec.w1-replay.total()).Seconds()/ec.w1.Seconds())
	}
	rep.set("search.index.probes", float64(ec.snap.Counters["search.index.probes"]))
	rep.set("search.index.bytecompares", float64(ec.snap.Counters["search.index.bytecompares"]))
	rep.set("search.index.stripe.contended", float64(ec.snap.Counters["search.index.stripe.contended"]))
	rep.set("search.index.retained_bytes", float64(ec.snap.Gauges["search.index.retained_bytes"]))
	rep.set("telemetry.registry_overhead_pct", 100*(ec.withMetrics-ec.wN).Seconds()/ec.wN.Seconds())
}

// probeCheckpoint prices per-level checkpointing, which the served
// cold path always pays: the same enumeration with and without
// Options.CheckpointPath, both with a registry attached so the ratio
// is checkpointing alone and the write count can be read. It returns
// the finished spaces.
func (r *run) probeCheckpoint(parent *span, names []string, rep *report) ([]*search.Result, error) {
	sp := r.tr.begin(parent, "bench", "probe:checkpoint", "")
	defer sp.end()
	dir, err := r.tempDir("ckpt")
	if err != nil {
		return nil, err
	}
	base, _, err := r.runSet(sp, "search.Run(wN,metrics)", names,
		search.Options{Workers: r.nproc, Metrics: telemetry.NewRegistry()}, nil)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	with, results, err := r.runSet(sp, "search.Run(wN,metrics,checkpoint)", names,
		search.Options{Workers: r.nproc, Metrics: reg}, func(name string, o *search.Options) {
			o.CheckpointPath = filepath.Join(dir, filepath.Base(name)+".ckpt.space.gz")
		})
	if err != nil {
		return nil, err
	}
	for _, res := range results {
		if res.CheckpointErr != "" {
			return nil, fmt.Errorf("checkpoint probe: %s: %s", res.FuncName, res.CheckpointErr)
		}
	}
	rep.set("search.checkpoint_overhead_ratio", with.Seconds()/base.Seconds())
	rep.set("search.checkpoint.writes", float64(reg.Snapshot().Counters["search.checkpoint.writes"]))
	return results, nil
}

// probeCodec prices what a cold answer pays to store a space (Save,
// CanonicalHash) and a disk hit pays to serve one (Load,
// CanonicalHash), over finished results.
func (r *run) probeCodec(parent *span, results []*search.Result, rep *report) error {
	sp := r.tr.begin(parent, "bench", "probe:codec", "")
	defer sp.end()
	var save, hash, load time.Duration
	var size int
	for _, res := range results {
		var buf bytes.Buffer
		s := r.tr.begin(sp, "search", "Result.Save:"+res.FuncName, "")
		start := time.Now()
		err := res.Save(&buf)
		save += time.Since(start)
		s.end()
		if err != nil {
			return err
		}
		size += buf.Len()

		s = r.tr.begin(sp, "search", "Result.CanonicalHash:"+res.FuncName, "")
		start = time.Now()
		want, err := res.CanonicalHash()
		hash += time.Since(start)
		s.end()
		if err != nil {
			return err
		}

		s = r.tr.begin(sp, "search", "search.Load:"+res.FuncName, "")
		start = time.Now()
		back, err := search.Load(bytes.NewReader(buf.Bytes()))
		load += time.Since(start)
		s.end()
		if err != nil {
			return err
		}
		got, err := back.CanonicalHash()
		if err == nil && got != want {
			err = fmt.Errorf("codec probe: %s hashes %s after Save+Load, %s before", res.FuncName, got, want)
		}
		r.op(err)
	}
	rep.set("search.save_ms", ms(save))
	rep.set("search.save_bytes", float64(size))
	rep.set("search.canonical_hash_ms", ms(hash))
	rep.set("search.load_ms", ms(load))
	return nil
}

// shardCost is the in-process shard path over a set of functions: what
// the fleet's answer costs before any dispatch is added.
type shardCost struct {
	warmup, partition, resumeMax, resumeSum, merge time.Duration
	bytes                                          int
	shardAttempts, serialAttempts                  int
	// critical is, per function, the steps a sharded answer waits for:
	// warm-up, the slowest shard, the merge.
	critical map[string]time.Duration
}

// probeShardPath walks the coordinator's steps without a fleet: pause
// at a K-node frontier, partition the checkpoint, Load and Resume each
// shard at one search thread (as a fleet worker does), merge. The
// merged space is gated like any other answer.
func (r *run) probeShardPath(parent *span, names []string) (*shardCost, error) {
	sp := r.tr.begin(parent, "bench", "probe:shard-path", "")
	defer sp.end()
	sc := &shardCost{critical: make(map[string]time.Duration)}
	timed := func(name string, f func() error) (time.Duration, error) {
		s := r.tr.begin(sp, "search", name, "")
		defer s.end()
		start := time.Now()
		err := f()
		return time.Since(start), err
	}
	for _, name := range names {
		var warm *search.Result
		d, _ := timed("search.Run(StopAtFrontier):"+name, func() error {
			warm = search.Run(r.corp[name], search.Options{Workers: r.nproc, StopAtFrontier: fleetWorkers})
			return nil
		})
		sc.warmup += d
		sc.critical[name] = d
		sc.serialAttempts += r.man.Spaces[name]["default"].Attempts
		sc.shardAttempts += warm.AttemptedPhases
		merged := warm
		if warm.Checkpoint != nil {
			var docs [][]byte
			var ids [][]int
			d, err := timed("search.PartitionCheckpoint:"+name, func() (err error) {
				docs, ids, err = search.PartitionCheckpoint(warm, fleetWorkers)
				return err
			})
			if err != nil {
				return nil, err
			}
			sc.partition += d
			shards := make([]search.ShardSpace, len(docs))
			var slowest time.Duration
			for i, doc := range docs {
				sc.bytes += len(doc)
				d, err := timed(fmt.Sprintf("search.Load+Resume(shard %d):%s", i, name), func() error {
					res, err := search.Load(bytes.NewReader(doc))
					if err != nil {
						return err
					}
					before := res.AttemptedPhases
					if res, err = search.Resume(res, search.Options{Workers: 1}); err != nil {
						return err
					}
					sc.shardAttempts += res.AttemptedPhases - before
					shards[i] = search.ShardSpace{Res: res, FrontierIDs: ids[i]}
					return nil
				})
				if err != nil {
					return nil, err
				}
				sc.resumeSum += d
				slowest = max(slowest, d)
			}
			sc.resumeMax += slowest
			sc.critical[name] += slowest
			d, err = timed("search.MergeShards:"+name, func() (err error) {
				merged, err = search.MergeShards(warm, shards)
				return err
			})
			if err != nil {
				return nil, err
			}
			sc.merge += d
			sc.critical[name] += d
		}
		r.gateResult(name, false, merged)
	}
	return sc, nil
}

func (sc *shardCost) report(rep *report) {
	rep.set("search.warmup_ms", ms(sc.warmup))
	rep.set("search.partition_ms", ms(sc.partition))
	rep.set("search.shard_bytes", float64(sc.bytes))
	rep.set("search.shard_resume_max_ms", ms(sc.resumeMax))
	rep.set("search.shard_resume_sum_ms", ms(sc.resumeSum))
	rep.set("search.shard_redundant_attempt_ratio", float64(sc.shardAttempts)/float64(max(sc.serialAttempts, 1)))
	rep.set("search.merge_ms", ms(sc.merge))
}

// probeEquiv prices the equivalence tier's two implementations over the
// same functions: the live tier (Options.Equiv) and derivation from a
// finished default-tier space (DeriveEquiv). Both results are gated
// against the manifest's equiv entries.
func (r *run) probeEquiv(parent *span, names []string, derive bool, rep *report) error {
	sp := r.tr.begin(parent, "bench", "probe:equiv", "")
	defer sp.end()
	live, results, err := r.runSet(sp, "search.Run(equiv)", names, search.Options{Workers: r.nproc, Equiv: true}, nil)
	if err != nil {
		return err
	}
	raw, folded := 0, 0
	for i, res := range results {
		raw += res.Equiv.Raw
		folded += res.Equiv.Merged
		r.gateResult(names[i], true, res)
	}
	rep.set("search.live_equiv_ms", ms(live))
	rep.set("search.equiv_fold_ratio", float64(folded)/float64(max(raw, 1)))
	if !derive {
		return nil
	}
	_, full, err := r.runSet(sp, "search.Run(wN)", names, search.Options{Workers: r.nproc}, nil)
	if err != nil {
		return err
	}
	var derived time.Duration
	for i, res := range full {
		s := r.tr.begin(sp, "search", "search.DeriveEquiv:"+names[i], "")
		start := time.Now()
		eq, err := search.DeriveEquiv(res, search.Options{})
		derived += time.Since(start)
		s.end()
		if err != nil {
			return err
		}
		r.gateResult(names[i], true, eq)
	}
	rep.set("search.derive_equiv_ms", ms(derived))
	return nil
}
