package search

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/mibench"
)

// TestMeasureEquivOverhead produced EXPERIMENTS.md's per-function
// equivalence table: for a representative set of functions it
// enumerates with and without the equivalence tier and writes nodes,
// collapse and median wall time to the file REPRO_MEASURE_EQUIV names.
// Skipped unless that is set — it is a measurement, not a regression
// test. The tier's tracked numbers are equiv_attempts_per_s,
// search.live_equiv_ms and search.equiv_fold_ratio in
// bench/baseline.json.
func TestMeasureEquivOverhead(t *testing.T) {
	out := os.Getenv("REPRO_MEASURE_EQUIV")
	if out == "" {
		t.Skip("set REPRO_MEASURE_EQUIV=<file> to run the measurement")
	}
	targets := []string{
		"bitcount/bit_count",
		"sha/sha_transform",
		"jpeg/get_code",
		"jpeg/rle_block",
		"stringsearch/bmh_search",
	}
	funcs, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*mibench.TaggedFunc{}
	for i := range funcs {
		byName[funcs[i].Bench+"/"+funcs[i].Func.Name] = &funcs[i]
	}

	const reps = 3
	type row struct {
		Function   string         `json:"function"`
		Nodes      int            `json:"nodes"`
		EquivNodes int            `json:"equiv_nodes"`
		Raw        int            `json:"equiv_raw"`
		Merged     int            `json:"equiv_merged"`
		ByPhase    map[string]int `json:"equiv_by_phase,omitempty"`
		BaseMS     float64        `json:"base_ms_median"`
		EquivMS    float64        `json:"equiv_ms_median"`
		Overhead   float64        `json:"overhead_ratio"`
	}
	median := func(ds []time.Duration) float64 {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return float64(ds[len(ds)/2]) / float64(time.Millisecond)
	}
	var rows []row
	for _, name := range targets {
		tf := byName[name]
		if tf == nil {
			t.Fatalf("no corpus function %s", name)
		}
		run := func(equiv bool) (*Result, []time.Duration) {
			var last *Result
			var times []time.Duration
			for i := 0; i < reps; i++ {
				start := time.Now()
				last = Run(tf.Func, Options{MaxNodes: 100000, Equiv: equiv})
				times = append(times, time.Since(start))
				if last.Aborted {
					t.Fatalf("%s aborted: %s", name, last.AbortReason)
				}
			}
			return last, times
		}
		base, baseT := run(false)
		eq, eqT := run(true)
		r := row{
			Function:   name,
			Nodes:      len(base.Nodes),
			EquivNodes: len(eq.Nodes),
			Raw:        eq.Equiv.Raw,
			Merged:     eq.Equiv.Merged,
			ByPhase:    eq.Equiv.RedundantByPhase,
			BaseMS:     median(baseT),
			EquivMS:    median(eqT),
		}
		r.Overhead = r.EquivMS / r.BaseMS
		rows = append(rows, r)
		t.Logf("%s: %d -> %d nodes, base %.0fms equiv %.0fms (%.2fx)",
			name, r.Nodes, r.EquivNodes, r.BaseMS, r.EquivMS, r.Overhead)
	}
	doc := map[string]any{
		"description": "equivalence tier (search.Options.Equiv): collapse and enumeration overhead, medians of 3 single-worker runs",
		"maxnodes":    100000,
		"rows":        rows,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
