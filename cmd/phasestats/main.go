// Command phasestats enumerates the phase order spaces of the
// benchmark suite and prints the optimization phase interaction
// statistics of Section 5: the enabling probabilities (Table 4), the
// disabling probabilities (Table 5) and the independence relationships
// (Table 6). With -out it also writes the probability tables to a JSON
// file that cmd/probcc feeds to the probabilistic batch compiler.
//
// With -from-metrics, phasestats instead aggregates metric snapshot
// files written by the -metrics flag of explore/vpocc/probcc into a
// per-phase cost table (attempts, active rate, total and mean time per
// phase — the cost side of the paper's Table 3/7 analysis) plus the
// search and verifier totals. Snapshots merge associatively, so any
// number of per-run files combine into one table.
//
// With -equiv the mining searches run with the equivalence tier
// (search.Options.Equiv) and an extra table attributes the folded
// instances to the phase that generated each redundant spelling —
// which phases merely reshuffle the representation rather than change
// the code. Saved spaces that were enumerated with explore -equiv
// contribute to the same table under -load.
//
// Usage:
//
//	phasestats [-maxnodes n] [-timeout d] [-enable] [-disable] [-indep] [-equiv] [-out file]
//	phasestats -from-metrics m1.json,m2.json [-require counter,...] [-by label]
//
// Labeled series (family{k="v"} names, as spaced's request metrics
// are recorded) fold into their base family for the tables and
// -require; -by <label> additionally prints per-label-value breakdowns
// (e.g. -by endpoint, -by cache_tier).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/driver"
	"repro/internal/mibench"
	"repro/internal/opt"
	"repro/internal/search"
)

func main() {
	var (
		maxNodes    = flag.Int("maxnodes", 20000, "per-function instance cap for the mining searches")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-function search budget")
		enable      = flag.Bool("enable", false, "print only the enabling table")
		disable     = flag.Bool("disable", false, "print only the disabling table")
		indep       = flag.Bool("indep", false, "print only the independence table")
		out         = flag.String("out", "", "write probability tables to this JSON file")
		equiv       = flag.Bool("equiv", false, "mine with the equivalence tier and attribute redundant instances per phase")
		loadDir     = flag.String("load", "", "analyze saved spaces from this directory (explore -save) instead of re-enumerating")
		fromMetrics = flag.String("from-metrics", "", "aggregate per-phase costs from these metrics snapshots (comma-separated paths or globs) instead of enumerating")
		require     = flag.String("require", "", "with -from-metrics: comma-separated counters that must be nonzero (exit 1 otherwise)")
		by          = flag.String("by", "", "with -from-metrics: also break labeled families down by this label key (e.g. endpoint, cache_tier)")
	)
	flag.Parse()

	if *fromMetrics != "" {
		os.Exit(runFromMetrics(*fromMetrics, *require, *by))
	}
	if *require != "" || *by != "" {
		fmt.Fprintln(os.Stderr, "-require and -by only apply with -from-metrics")
		os.Exit(2)
	}
	all := !*enable && !*disable && !*indep

	x := analysis.NewInteractions()
	mined, skipped, cyclic := 0, 0, 0
	equivRaw, equivMerged := 0, 0
	equivByPhase := make(map[string]int)
	collectEquiv := func(r *search.Result) {
		if r.Equiv == nil {
			return
		}
		equivRaw += r.Equiv.Raw
		equivMerged += r.Equiv.Merged
		for id, n := range r.Equiv.RedundantByPhase {
			equivByPhase[id] += n
		}
	}
	start := time.Now()
	if *loadDir != "" {
		paths, err := filepath.Glob(filepath.Join(*loadDir, "*.space.gz"))
		if err != nil || len(paths) == 0 {
			fmt.Fprintf(os.Stderr, "no saved spaces in %s\n", *loadDir)
			os.Exit(1)
		}
		for _, p := range paths {
			r, err := search.LoadFile(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if r.Checkpoint != nil {
				// An interrupted or aborted explore -save run left a
				// partial enumeration; mining it would bias the tables.
				fmt.Fprintf(os.Stderr, "phasestats: %s is an unfinished checkpoint (%d frontier nodes); skipping — resume it with explore -save %s -resume\n",
					p, len(r.Checkpoint.Frontier), *loadDir)
				skipped++
				continue
			}
			collectEquiv(r)
			if !x.Accumulate(r) {
				cyclic++
				continue
			}
			mined++
		}
	} else {
		funcs, err := mibench.AllFunctions()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, tf := range funcs {
			r := search.Run(tf.Func, search.Options{
				MaxNodes: *maxNodes,
				Timeout:  *timeout,
				Equiv:    *equiv,
			})
			if r.Aborted {
				skipped++
				continue
			}
			collectEquiv(r)
			if !x.Accumulate(r) {
				cyclic++
				continue
			}
			mined++
		}
	}
	fmt.Printf("mined %d function spaces (%d exceeded caps) in %s\n",
		mined, skipped, time.Since(start).Round(time.Millisecond))
	if cyclic > 0 {
		// Folding a spelling back into an ancestor class makes the
		// collapsed graph cyclic; the Figure 7 weighting behind the
		// probability tables is undefined there.
		fmt.Printf("%d equivalence-collapsed spaces are cyclic and were left out of Tables 4-6 (their collapse still counts below)\n", cyclic)
	}
	fmt.Println()

	if *equiv || equivRaw > 0 {
		printEquivTable(equivRaw, equivMerged, equivByPhase)
	}

	if all || *enable {
		fmt.Println(analysis.FormatTable(
			"Table 4: probability of each phase (row) being ENABLED by another phase (column)",
			x.Enabling(), x.StartProbabilities(), 0.005, 0))
	}
	if all || *disable {
		fmt.Println(analysis.FormatTable(
			"Table 5: probability of each phase (row) being DISABLED by another phase (column)",
			x.Disabling(), nil, 0.005, 0))
	}
	if all || *indep {
		fmt.Println(analysis.FormatTable(
			"Table 6: probability of each phase pair being INDEPENDENT (blank > 0.995)",
			x.Independence(), nil, 0.005, 0.995))
	}

	if *out != "" {
		if err := driver.SaveProbabilities(*out, driver.FromInteractions(x)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("probability tables written to %s\n", *out)
	}
}

// printEquivTable renders the equivalence-tier attribution: how many
// raw-distinct instances each phase generated that were equivalent —
// beyond register/label renumbering — to an instance already in the
// space. A high share means the phase often reshuffles the spelling of
// the code (jump layout, operand order) without changing it.
func printEquivTable(raw, merged int, byPhase map[string]int) {
	fmt.Println("Equivalence-tier redundancy by phase (instances folded into an existing class):")
	if merged == 0 {
		fmt.Printf("  none: all %d raw instances were pairwise distinct beyond renumbering\n\n", raw)
		return
	}
	ids := make([]string, 0, len(byPhase))
	for id := range byPhase {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		name := "?"
		if len(id) == 1 {
			if p := opt.ByID(id[0]); p != nil {
				name = p.Name()
			}
		}
		fmt.Printf("  %s  %-34s %8d  %5.1f%%\n", id, name, byPhase[id],
			100*float64(byPhase[id])/float64(merged))
	}
	fmt.Printf("  total: %d of %d raw instances folded (%.1f%% collapse)\n\n",
		merged, raw, 100*float64(merged)/float64(raw))
}
