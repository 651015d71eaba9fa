package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef declares one metric. BENCHMARK.json lists the same names,
// units, directions and bounds; bench_test.go holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndDefs are reported by every workload. Which requests each one
// is taken over, per workload, is tabulated in README.md.
var endToEndDefs = []metricDef{
	{"attempts_per_s", "1/s", "higher", 0.25},
	{"equiv_attempts_per_s", "1/s", "higher", 0.25},
	{"small_request_p50_ms", "ms", "lower", 0.25},
	{"alloc_bytes_per_attempt", "B", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result: the contract's last line plus what the
// human-readable part prints above it.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metricValue

	Workload  string
	Seed      int64
	Traced    bool
	Rounds    int
	Nproc     int
	Failures  []string
	Detail    []detailRow // named numbers that are not contract metrics of this run
	Notes     []string    // per-function rows
	TraceFile string
	defs      map[string]metricDef
}

type detailRow struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

func newReport(r *run, defs []metricDef) *report {
	rep := &report{
		Metrics: make(map[string]metricValue), defs: make(map[string]metricDef, len(defs)),
		Workload: r.cfg.workload, Seed: r.cfg.seed, Traced: r.cfg.trace, Nproc: r.nproc,
	}
	for _, d := range defs {
		rep.defs[d.Name] = d
	}
	return rep
}

// set records a declared metric. An undeclared name is a bug here, not
// a property of the run, so it panics.
func (rep *report) set(name string, v float64) {
	d, ok := rep.defs[name]
	if !ok {
		panic("bench: metric " + name + " is not declared")
	}
	rep.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
}

func (rep *report) detail(name string, v float64, unit, note string) {
	rep.Detail = append(rep.Detail, detailRow{name, v, unit, note})
}

// complete reports a declared metric that was never set or is not a
// finite number.
func (rep *report) complete() error {
	for name := range rep.defs {
		mv, ok := rep.Metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, mv.Value)
		}
	}
	return nil
}

func (rep *report) meta() map[string]any {
	return map[string]any{
		"workload": rep.Workload, "seed": rep.Seed, "cpus": rep.Nproc,
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

// perRound maps f over the rounds and returns the median.
func perRound(rounds []roundStats, f func(roundStats) float64) float64 {
	v := make([]float64, len(rounds))
	for i, rs := range rounds {
		v[i] = f(rs)
	}
	return median(v)
}

// functionQuantiles is each function's q-quantile nominal latency over
// passes.
func functionQuantiles(passes []latencyBy, q float64) []float64 {
	byName := make(map[string][]float64)
	for _, pass := range passes {
		for name, d := range pass {
			byName[name] = append(byName[name], d.nominal())
		}
	}
	out := make([]float64, 0, len(byName))
	for _, v := range byName {
		out = append(out, quantile(v, q))
	}
	return out
}

// steadyQuantile is the quantile of a function's latency over the
// rounds that a set's wall time is built from: the lower quartile. The
// host's interference only ever adds time, and it comes in bursts of
// seconds that cover a third to a half of a run, so a function's
// latencies fall into an undisturbed and a disturbed mode; with the
// disturbed share near a half the median sits on the edge between the
// two and jumps from run to run, while the lower quartile stays inside
// the undisturbed mode until three quarters of a run are disturbed.
const steadyQuantile = 0.25

// steadyWall is a set's wall time over the rounds: each function's
// lower-quartile latency over the rounds, summed. One slow request (a
// GC cycle, a stolen CPU) then does not move the result at all, and a
// slow stretch moves it only once it covers most of the run.
func steadyWall(rounds []roundStats, set func(roundStats) latencyBy) time.Duration {
	passes := make([]latencyBy, len(rounds))
	for i, rs := range rounds {
		passes[i] = set(rs)
	}
	var wall float64
	for _, m := range functionQuantiles(passes, steadyQuantile) {
		wall += m
	}
	return time.Duration(wall)
}

// smallMedian is the small set's latency: each function's median over
// every pass of every round, then the median over functions. It also
// returns the sample count. A small request has two modes of its own
// (a collection or an fsync burst falls into it or not) with the slow
// one the more common, so here the median is the steady choice.
func smallMedian(rounds []roundStats) (time.Duration, int) {
	var passes []latencyBy
	n := 0
	for _, rs := range rounds {
		passes = append(passes, rs.small...)
		for _, pass := range rs.small {
			n += len(pass)
		}
	}
	return time.Duration(median(functionQuantiles(passes, 0.5))), n
}

// defaultSet and equivSet name the requests attempts_per_s and
// equiv_attempts_per_s are taken over on this run's workload.
func (r *run) defaultSet() []string {
	switch r.cfg.workload {
	case "enumerate":
		return r.cfg.sz.enum
	case "fleet_shard":
		return r.cfg.sz.fleet
	}
	return r.cfg.sz.serve
}

func (r *run) equivSet() []string {
	if r.cfg.workload == "fleet_shard" {
		return []string{r.cfg.sz.fleetEquiv}
	}
	return r.cfg.sz.e2
}

// smallPasses is how many times a round requests the small set.
func (r *run) smallPasses() int {
	switch r.cfg.workload {
	case "enumerate":
		return r.cfg.sz.enumSmall
	case "fleet_shard":
		return r.cfg.sz.fleetSmall
	}
	return r.cfg.sz.serveSmall
}

// endToEnd turns the measured rounds into the end-to-end metrics:
// throughputs through steadyWall, the small set's latency through
// smallMedian, allocation and set-up as medians.
func (r *run) endToEnd(m *measured) (*report, error) {
	rep := newReport(r, endToEndDefs)
	rep.Rounds = len(m.rounds)
	defAttempts := float64(r.man.attempts(r.defaultSet(), false))
	equivAttempts := float64(r.man.attempts(r.equivSet(), true))

	setups := make([]float64, len(m.setups))
	for i, d := range m.setups {
		setups[i] = d.Seconds()
	}
	rep.set("setup_s", median(setups))
	rep.set("attempts_per_s", defAttempts/steadyWall(m.rounds, func(rs roundStats) latencyBy { return rs.def }).Seconds())
	rep.set("equiv_attempts_per_s", equivAttempts/steadyWall(m.rounds, func(rs roundStats) latencyBy { return rs.equiv }).Seconds())
	rep.set("alloc_bytes_per_attempt", perRound(m.rounds, func(rs roundStats) float64 { return float64(rs.defAlloc) / defAttempts }))
	small, n := smallMedian(m.rounds)
	rep.set("small_request_p50_ms", ms(small))
	rep.detail("small_request_samples", float64(n), "count", fmt.Sprintf("%d functions", len(r.small)))
	ref := summarize(r.reference)
	rep.detail("reference_walk_ms", ms(ref.P50), "ms", fmt.Sprintf("%s; nominal %v; every time above is scaled by nominal/walk", ref, referenceNominal))
	rep.detail("default_set_attempts", defAttempts, "count", fmt.Sprintf("%d functions", len(r.defaultSet())))
	rep.detail("equiv_set_attempts", equivAttempts, "count", fmt.Sprintf("%d functions", len(r.equivSet())))

	if err := r.warmDetail(m, rep); err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = r.attempted, r.failed
	rep.Failures, rep.Notes = r.failures, r.notes
	rep.Correct = r.failed == 0
	rep.detail("failed_share", float64(r.failed)/float64(max(r.attempted, 1)), "ratio",
		fmt.Sprintf("%d of %d operations", r.failed, r.attempted))
	return rep, rep.complete()
}

// warmValues are the read-side numbers of serve_warm: the untraced
// report prints them as detail, the traced run reports them as the
// server layer's metrics.
type warmValues struct {
	diskHitSetMS, memP50US, memP99US, memReqPerS, getMBPerS float64
}

// warmNumbers pools the mem-hit latencies of every round. The full
// size has 10k samples a round; only the tiny size has too few for a
// p99, which then reads 0.
func warmNumbers(rounds []roundStats) (warmValues, latencies) {
	var v warmValues
	var all []time.Duration
	for _, rs := range rounds {
		all = append(all, rs.warm.memLat...)
	}
	sum := summarize(all)
	p99, _ := percentile(all, 0.99)
	v.memP50US, v.memP99US = us(sum.P50), us(p99)
	v.diskHitSetMS = perRound(rounds, func(rs roundStats) float64 { return ms(rs.warm.diskHitSet) })
	v.memReqPerS = perRound(rounds, func(rs roundStats) float64 { return float64(len(rs.warm.memLat)) / rs.warm.memWall.Seconds() })
	v.getMBPerS = perRound(rounds, func(rs roundStats) float64 { return float64(rs.warm.getBytes) / 1e6 / rs.warm.getWall.Seconds() })
	return v, sum
}

// warmDetail adds the read-side detail and fails the run when the load
// generator's own per-request cost exceeds a tenth of the latency it
// reports.
func (r *run) warmDetail(m *measured, rep *report) error {
	if len(m.rounds) == 0 || m.rounds[0].warm == nil {
		return nil
	}
	v, sum := warmNumbers(m.rounds)
	rep.detail("disk_hit_set_ms", v.diskHitSetMS, "ms", "first request per key after a restart, default set + small set")
	rep.detail("mem_hit_p50_us", v.memP50US, "us", sum.String())
	rep.detail("mem_hit_p99_us", v.memP99US, "us", "")
	rep.detail("mem_hit_req_per_s", v.memReqPerS, "1/s", fmt.Sprintf("%d closed-loop clients", r.width))
	rep.detail("space_get_mb_per_s", v.getMBPerS, "MB/s", fmt.Sprintf("%d downloads per round", r.cfg.sz.gets))
	over := perRound(m.rounds, func(rs roundStats) float64 { return us(rs.warm.genOverhead) })
	rep.detail("generator_overhead_us", over, "us", "per mem-hit request, outside send to last byte")
	if over > 0.1*v.memP50US {
		return fmt.Errorf("load generator spends %.1f us per request outside the timed window, over a tenth of mem_hit_p50_us (%.1f us)", over, v.memP50US)
	}
	return nil
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (rep *report) print(w io.Writer) {
	mode := "end-to-end"
	if rep.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  rounds %d  cpus %d  %s  %s\n", rep.Workload, rep.Seed, rep.Rounds, rep.Nproc, runtime.Version(), mode)
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  ", n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "metrics:")
	for _, name := range names {
		mv := rep.Metrics[name]
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", name, mv.Value, mv.Unit)
	}
	if len(rep.Detail) > 0 {
		fmt.Fprintln(w, "detail:")
		for _, d := range rep.Detail {
			fmt.Fprintf(w, "  %-40s %16.4f %-6s %s\n", d.Name, d.Value, d.Unit, d.Note)
		}
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	if rep.TraceFile != "" {
		fmt.Fprintln(w, "spans written to", rep.TraceFile)
	}
	line, _ := json.Marshal(contractLine{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics}) //nolint:errcheck // finite floats and strings
	fmt.Fprintf(w, "%s\n", line)
}
