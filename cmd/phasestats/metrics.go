package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/opt"
	"repro/internal/telemetry"
)

// runFromMetrics implements the -from-metrics mode: merge the named
// snapshot files and render the per-phase cost table that the metric
// names opt.attempt.<id>.{active,dormant} and
// opt.phase.<id>[.dormant].duration_ns encode, followed by the search and
// verifier totals. Labeled series (family{k="v"} names, as spaced's
// request metrics are recorded) are folded into their base family
// first, so totals and -require see the aggregate across labels; by,
// when non-empty, additionally prints a per-value breakdown over that
// label key. requireList names counters that must be nonzero, the
// hook "make bench-smoke" uses to assert an instrumented run actually
// measured something.
func runFromMetrics(patterns, requireList, by string) int {
	var paths []string
	for _, pat := range strings.Split(patterns, ",") {
		pat = strings.TrimSpace(pat)
		if pat == "" {
			continue
		}
		matches, err := filepath.Glob(pat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad pattern %q: %v\n", pat, err)
			return 2
		}
		if len(matches) == 0 {
			fmt.Fprintf(os.Stderr, "no metrics files match %q\n", pat)
			return 1
		}
		paths = append(paths, matches...)
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "-from-metrics needs at least one file")
		return 2
	}

	var merged telemetry.Snapshot
	for i, p := range paths {
		s, err := telemetry.ReadSnapshotFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if i == 0 {
			merged = s
		} else {
			merged = merged.Merge(s)
		}
	}

	merged = collapseLabels(merged)
	printPhaseCosts(merged, len(paths))
	printSearchTotals(merged)
	if by != "" {
		printLabelBreakdown(merged, by)
	}

	if requireList != "" {
		missing := 0
		for _, name := range strings.Split(requireList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if merged.Counters[name] <= 0 {
				fmt.Fprintf(os.Stderr, "require: counter %q is zero or absent\n", name)
				missing++
			}
		}
		if missing > 0 {
			return 1
		}
		fmt.Printf("require: all of [%s] nonzero\n", requireList)
	}
	return 0
}

// collapseLabels folds every labeled series into its base family —
// counters and histogram cells add, gauges keep the high-water reading
// — while leaving the labeled series in place for breakdowns. After
// this, code that addresses plain family names (the tables below,
// -require) sees the label-aggregated totals.
func collapseLabels(s telemetry.Snapshot) telemetry.Snapshot {
	base := telemetry.Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]telemetry.HistogramSnapshot{},
	}
	for name, v := range s.Counters {
		if fam, labels, ok := telemetry.ParseSeries(name); ok && len(labels) > 0 {
			base.Counters[fam] += v
		}
	}
	for name, v := range s.Gauges {
		if fam, labels, ok := telemetry.ParseSeries(name); ok && len(labels) > 0 {
			if cur, seen := base.Gauges[fam]; !seen || v > cur {
				base.Gauges[fam] = v
			}
		}
	}
	for name, h := range s.Histograms {
		if fam, labels, ok := telemetry.ParseSeries(name); ok && len(labels) > 0 {
			base = base.Merge(telemetry.Snapshot{
				Histograms: map[string]telemetry.HistogramSnapshot{fam: h},
			})
		}
	}
	return s.Merge(base)
}

// printLabelBreakdown renders counters and histograms that carry the
// given label key, grouped family → label value. This is the -by view:
// e.g. -by endpoint splits http.requests per route, -by cache_tier
// splits server.cache.requests per tier.
func printLabelBreakdown(s telemetry.Snapshot, key string) {
	type cell struct{ fam, val string }
	counters := map[cell]int64{}
	hists := map[cell]telemetry.HistogramSnapshot{}
	valueOf := func(series string) (string, string, bool) {
		fam, labels, ok := telemetry.ParseSeries(series)
		if !ok {
			return "", "", false
		}
		for _, l := range labels {
			if l.Key == key {
				return fam, l.Value, true
			}
		}
		return "", "", false
	}
	for name, v := range s.Counters {
		if fam, val, ok := valueOf(name); ok {
			counters[cell{fam, val}] += v
		}
	}
	for name, h := range s.Histograms {
		if fam, val, ok := valueOf(name); ok {
			c := cell{fam, val}
			merged := telemetry.Snapshot{Histograms: map[string]telemetry.HistogramSnapshot{"x": hists[c]}}.
				Merge(telemetry.Snapshot{Histograms: map[string]telemetry.HistogramSnapshot{"x": h}})
			hists[c] = merged.Histograms["x"]
		}
	}
	if len(counters) == 0 && len(hists) == 0 {
		fmt.Printf("\nno series carry label %q\n", key)
		return
	}

	sortCells := func(m map[cell]bool) []cell {
		out := make([]cell, 0, len(m))
		for c := range m {
			out = append(out, c)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].fam != out[j].fam {
				return out[i].fam < out[j].fam
			}
			return out[i].val < out[j].val
		})
		return out
	}
	if len(counters) > 0 {
		fmt.Printf("\nCounters by %s:\n\n", key)
		fmt.Printf("%-32s %-24s %12s\n", "counter", key, "value")
		keys := map[cell]bool{}
		for c := range counters {
			keys[c] = true
		}
		for _, c := range sortCells(keys) {
			fmt.Printf("%-32s %-24s %12d\n", c.fam, c.val, counters[c])
		}
	}
	if len(hists) > 0 {
		fmt.Printf("\nHistograms by %s:\n\n", key)
		fmt.Printf("%-32s %-24s %10s %12s %12s\n", "histogram", key, "count", "mean", "total")
		keys := map[cell]bool{}
		for c := range hists {
			keys[c] = true
		}
		for _, c := range sortCells(keys) {
			h := hists[c]
			fmt.Printf("%-32s %-24s %10d %12s %12s\n", c.fam, c.val, h.Count,
				time.Duration(int64(h.Mean())).Round(time.Nanosecond),
				time.Duration(h.Sum).Round(time.Microsecond))
		}
	}
}

// printPhaseCosts renders the per-phase attempt/cost table aggregated
// across every snapshot: the compile-time side of Table 3's "Attempted
// Phases" column and Table 7's cost comparison.
func printPhaseCosts(s telemetry.Snapshot, files int) {
	fmt.Printf("Per-phase cost, aggregated over %d metric snapshot(s):\n\n", files)
	fmt.Printf("%-3s %-28s %10s %9s %9s %8s %10s %10s %10s %10s\n",
		"ph", "name", "attempted", "active", "dormant", "act%", "total", "mean", "mean act", "mean dorm")
	var totAtt, totAct int64
	var totNS int64
	for _, p := range opt.All() {
		id := p.ID()
		active := s.Counters[fmt.Sprintf("opt.attempt.%c.active", id)]
		dormant := s.Counters[fmt.Sprintf("opt.attempt.%c.dormant", id)]
		attempted := active + dormant
		h := s.Histograms[fmt.Sprintf("opt.phase.%c.duration_ns", id)]
		totAtt += attempted
		totAct += active
		totNS += h.Sum
		actPct := 0.0
		if attempted > 0 {
			actPct = 100 * float64(active) / float64(attempted)
		}
		// The dormant attempts have a histogram of their own; the active
		// side is what is left of the phase's total. Snapshots written
		// before the split existed show dashes.
		meanAct, meanDorm := "-", "-"
		if hd, ok := s.Histograms[fmt.Sprintf("opt.phase.%c.dormant.duration_ns", id)]; ok {
			meanDorm = meanOrDash(hd)
			meanAct = meanOrDash(telemetry.HistogramSnapshot{Count: h.Count - hd.Count, Sum: h.Sum - hd.Sum})
		}
		fmt.Printf("%-3c %-28s %10d %9d %9d %7.1f%% %10s %10s %10s %10s\n",
			id, clipName(p.Name(), 28), attempted, active, dormant, actPct,
			time.Duration(h.Sum).Round(time.Microsecond),
			time.Duration(int64(h.Mean())).Round(time.Nanosecond), meanAct, meanDorm)
	}
	actPct := 0.0
	if totAtt > 0 {
		actPct = 100 * float64(totAct) / float64(totAtt)
	}
	fmt.Printf("%-3s %-28s %10d %9d %9d %7.1f%% %10s\n\n",
		"Σ", "all phases", totAtt, totAct, totAtt-totAct, actPct,
		time.Duration(totNS).Round(time.Microsecond))
}

// meanOrDash renders a histogram's mean as a duration, "-" without
// observations.
func meanOrDash(h telemetry.HistogramSnapshot) string {
	if h.Count == 0 {
		return "-"
	}
	return time.Duration(int64(h.Mean())).Round(time.Nanosecond).String()
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

func clipName(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

// printSearchTotals renders the enumeration and verification counters
// when present (they are absent from plain vpocc compiles).
func printSearchTotals(s telemetry.Snapshot) {
	nodes := s.Counters["search.nodes"]
	attempts := s.Counters["search.attempts"]
	if nodes > 0 || attempts > 0 {
		fmt.Printf("search: %d nodes (%d merged dups), %d edges, %d attempts (%d dormant)\n",
			nodes, s.Counters["search.merged"], s.Counters["search.edges"],
			attempts, s.Counters["search.dormant"])
		if h, ok := s.Histograms["search.expand.duration_ns"]; ok && h.Count > 0 {
			fmt.Printf("search: expand mean %s over %d evaluations; state-key mean %s\n",
				time.Duration(int64(h.Mean())).Round(time.Nanosecond), h.Count,
				time.Duration(int64(s.Histograms["search.statekey.duration_ns"].Mean())).Round(time.Nanosecond))
		}
		if probes := s.Counters["search.index.probes"]; probes > 0 {
			// Two-tier identical-instance index: nearly every probe
			// should resolve on the (flags, fingerprint) hash alone;
			// byte-compares count second-tier bucket scans and
			// fpcollisions the compares that found a fingerprint
			// collision rather than a true duplicate.
			fmt.Printf("search: index %d probes, %d byte-compares, %d fingerprint collisions; %s retained key bytes\n",
				probes, s.Counters["search.index.bytecompares"],
				s.Counters["search.index.fpcollisions"],
				fmtBytes(s.Gauges["search.index.retained_bytes"]))
		}
		if acq := s.Counters["search.index.stripe.acquisitions"]; acq > 0 {
			// Striped-lock contention: acquisitions counts stripe-lock
			// takes on the probe path, contended the subset that had to
			// block behind another worker. High contention means the
			// fingerprint CRC is clustering keys into few stripes (or
			// the worker count dwarfs the stripe count).
			cont := s.Counters["search.index.stripe.contended"]
			fmt.Printf("search: stripes %d lock acquisitions, %d contended (%.2f%%)\n",
				acq, cont, 100*float64(cont)/float64(acq))
		}
	}
	if calls := s.Counters["check.verify.calls"]; calls > 0 {
		var findings int64
		for name, v := range s.Counters {
			if strings.HasPrefix(name, "check.finding.") {
				findings += v
			}
		}
		h := s.Histograms["check.verify.duration_ns"]
		fmt.Printf("check:  %d verifications, %d findings, mean %s\n",
			calls, findings, time.Duration(int64(h.Mean())).Round(time.Nanosecond))
	}
	// Fleet counters from a coordinator snapshot. The labeled per-worker
	// series (dist.completions{worker=...}) were already folded into
	// their base families by collapseLabels, so these are fleet-wide
	// totals; -by worker recovers the per-worker split.
	if asn := s.Counters["dist.assignments"]; asn > 0 {
		fmt.Printf("dist:   %d assignments, %d completions, %d lease expiries, %d retries, %d recoveries, %d stale uploads, %d local fallbacks\n",
			asn, s.Counters["dist.completions"], s.Counters["dist.lease_expiries"],
			s.Counters["dist.retries"], s.Counters["dist.recoveries"],
			s.Counters["dist.stale_uploads"], s.Counters["dist.local_fallbacks"])
	}
	for _, compiler := range []string{"batch", "prob"} {
		if n := s.Counters["driver."+compiler+".compiles"]; n > 0 {
			h := s.Histograms["driver."+compiler+".duration_ns"]
			fmt.Printf("driver: %-5s %d compiles, %.1f attempted / %.1f active phases per function, mean %s\n",
				compiler, n,
				float64(s.Counters["driver."+compiler+".attempted"])/float64(n),
				float64(s.Counters["driver."+compiler+".active"])/float64(n),
				time.Duration(int64(h.Mean())).Round(time.Microsecond))
		}
	}
}
