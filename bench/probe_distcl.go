package main

// reportDist reads the coordinator's view of the fleet from its
// /metrics scrape: the shard path's counters and the lease protocol's.
// On a workload without a fleet the scrape is nil or the counters were
// never touched, and all of them read 0.
func reportDist(sc *serverScrape, rep *report) {
	for _, name := range []string{
		"dist.shard.splits", "dist.shard.merges", "dist.shard.fallbacks", "dist.local_fallbacks",
		"dist.heartbeats", "dist.stale_uploads", "dist.lease_expiries",
	} {
		rep.set(name, sc.counter(name))
	}
}
