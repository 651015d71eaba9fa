package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/distcl"
	"repro/internal/server"
)

// fleetWorkers is the fleet's size and the coordinator's fan-out: the
// smallest fleet that shards at all.
const fleetWorkers = 2

// fleetWorkload is the shard path: a coordinator with ShardFanout=2
// and two in-process distcl workers (one search thread each) over
// loopback. Warm-up, partition, lease and poll, heartbeat uploads,
// merge replay and equiv derivation dominate. A request that falls
// back from the shard path is counted as failed, since the workload
// exists to measure that path.
type fleetWorkload struct {
	scrape *serverScrape // the last round's coordinator, read before it stops
}

// setup compiles the corpus and sends the small set through a fleet it
// then throws away: what a round pays per fleet, and the first
// requests' lazy initialisation, land here instead of in a timed
// request.
func (w *fleetWorkload) setup(r *run, parent *span) error {
	if err := r.prepare(parent); err != nil {
		return err
	}
	f, err := r.startFleet()
	if err != nil {
		return err
	}
	defer f.stop()
	c := newClient(f.d.url)
	defer c.close()
	return r.warmUp(parent, c)
}

// fleet is a coordinator plus its joined workers.
type fleet struct {
	d       *daemon
	cancel  context.CancelFunc
	workers []chan error
}

func (r *run) startFleet() (*fleet, error) {
	dir, err := r.tempDir("coord")
	if err != nil {
		return nil, err
	}
	// Lease TTL and poll wait stay at spaced's defaults: the workload
	// measures the fleet a user gets from `spaced -shard-fanout 2`.
	d, err := r.startDaemon(server.Config{Dir: dir, ShardFanout: fleetWorkers})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{d: d, cancel: cancel}
	for i := 0; i < fleetWorkers; i++ {
		scratch, err := r.tempDir("worker")
		if err != nil {
			f.stop()
			return nil, err
		}
		wk, err := distcl.NewWorker(distcl.WorkerConfig{
			Client:        distcl.NewClient(distcl.Config{BaseURL: d.url}),
			ID:            fmt.Sprintf("w%d", i+1),
			ScratchDir:    scratch,
			SearchWorkers: 1,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		done := make(chan error, 1)
		go func() { done <- wk.Run(ctx) }()
		f.workers = append(f.workers, done)
	}
	c := newClient(d.url)
	defer c.close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		live, err := fleetLive(c)
		if err != nil {
			f.stop()
			return nil, err
		}
		if live == fleetWorkers {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("fleet: %d of %d workers live after 30 s", live, fleetWorkers)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fleetLive reads the live worker count from /healthz.
func fleetLive(c *client) (int, error) {
	body, _, err := c.get("/healthz")
	if err != nil {
		return 0, err
	}
	var h struct {
		Fleet struct {
			WorkersLive int `json:"workers_live"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, fmt.Errorf("decoding /healthz: %w", err)
	}
	return h.Fleet.WorkersLive, nil
}

// stop drains the workers (each deregisters), waits for them, then
// stops the coordinator.
func (f *fleet) stop() {
	f.cancel()
	for _, done := range f.workers {
		<-done
	}
	f.d.stop()
}

func (w *fleetWorkload) round(r *run, parent *span) (roundStats, error) {
	var rs roundStats
	f, err := r.startFleet()
	if err != nil {
		return rs, err
	}
	defer f.stop()
	c := newClient(f.d.url)
	defer c.close()

	attempted, failed := r.attempted, r.failed
	r.threeSets(parent, c, "fleet", "miss", &rs)

	// A fallback means some answer above did not come from the shard
	// path. The counters do not say which, so every request of the
	// round that had passed the gate is failed.
	sc, err := scrapeServer(c)
	if err != nil {
		return rs, err
	}
	w.scrape = sc
	if fb := sc.counter("dist.shard.fallbacks") + sc.counter("dist.local_fallbacks") + sc.counter("dist.shard.merge_failures"); fb > 0 {
		passed := (r.attempted - attempted) - (r.failed - failed)
		r.failed += passed
		r.failures = append(r.failures, fmt.Sprintf("fleet round left the shard path %.0f times", fb))
	}
	return rs, nil
}
