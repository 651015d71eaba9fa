// Command bench is the repository's benchmark: four workloads over
// the enumeration engine, spaced cold and warm, and the sharded fleet,
// each gated on the canonical space hashes in expected_hashes.json.
//
//	bash bench/run.sh --workload serve_cold --seed 1 --seconds 30 --trace 0
//
// prints a report and, as the last line of standard output, one JSON
// object with the run's metrics. README.md describes the workloads,
// the metrics and how they relate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "one of enumerate, serve_cold, serve_warm, fleet_shard; empty runs all four in turn")
	seed := fs.Int64("seed", 1, "seed of the request order, the small-set draw and the mem-hit key sequence")
	seconds := fs.Float64("seconds", 30, "budget of the run: set-up, then rounds until it is spent, at least one")
	trace := fs.Int("trace", 0, "1 = traced run: one round under spans plus the layer probes; prints the per-layer metrics and writes trace-<workload>.json")
	workDir := fs.String("work", ".bench_build", "scratch directory (caches, checkpoints, span files); created inside the checkout")
	update := fs.Bool("update-manifest", false, "regenerate expected_hashes.json from a Workers=1 in-process run; refuses if any route disagrees with it")
	manifestOut := fs.String("manifest-out", "bench/expected_hashes.json", "where -update-manifest writes")
	spacesDir := fs.String("spaces", "spaces", "directory of committed *.space.gz artifacts -update-manifest cross-checks against")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *update {
		if err := updateManifest(*manifestOut, *spacesDir, *workDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench: manifest not written:", err)
			return 1
		}
		return 0
	}
	names := workloadNames
	if *workloadName != "" {
		names = []string{*workloadName}
	}
	code := 0
	for _, name := range names {
		cfg := config{
			workload: name, seed: *seed, seconds: *seconds,
			trace: *trace != 0, workDir: *workDir, sz: fullSizes,
		}
		rep, err := runWorkload(cfg, filepath.Join(*workDir, "trace-"+name+".json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		rep.print(os.Stdout)
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload runs one workload to a report. In a traced run it also
// runs the layer probes and writes the span file.
func runWorkload(cfg config, tracePath string) (*report, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	m, err := r.measure(w)
	if err != nil {
		return nil, err
	}
	rep, err := r.endToEnd(m)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := r.perLayer(w, m, rep); err != nil {
			return nil, err
		}
		r.root.end()
		r.tr.finish()
		if err := r.tr.write(tracePath, rep.meta()); err != nil {
			return nil, fmt.Errorf("writing %s: %w", tracePath, err)
		}
		rep.TraceFile = tracePath
	}
	return rep, nil
}
