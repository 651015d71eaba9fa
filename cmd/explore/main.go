// Command explore exhaustively enumerates the optimization phase order
// space of the benchmark functions and prints the per-function search
// statistics of Table 3.
//
// Usage:
//
//	explore [flags]
//
//	-bench name     restrict to one benchmark (default: all six)
//	-func name      restrict to one function
//	-cap n          per-level sequence cap (paper: 1000000)
//	-maxnodes n     abort a function beyond n distinct instances
//	-timeout d      per-function wall-clock budget (0 = none)
//	-verify         differentially execute every instance (slow)
//	-check          run the internal/check semantic verifier on every
//	                instance; failing sequences are reported and the
//	                exit status is nonzero
//	-phases         print the Table 1 phase catalog and exit
//	-list           print the Table 2 benchmark list and exit
//	-levels         also print instances per level (Figure 4 view)
//	-jobs n         enumerate up to n functions concurrently; output
//	                stays in deterministic input order (default 1)
//	-equiv          collapse instances that are equivalent beyond
//	                register/label renumbering into one node (the
//	                equivalence tier); prints a collapse summary
//	                per function. Checkpoints and resumes like the
//	                default tier; a checkpoint file of the other tier
//	                is another enumeration, left alone
//	-speed          best-performing leaf via CF-class inference (Sec. 7)
//	-save dir       persist each space for phasestats -load / spacedot
//
// Robustness (see DESIGN.md §Robustness):
//
//	-checkpoint dir   write a crash-safe checkpoint of each search to
//	                  <dir>/<bench>.<func>.ckpt.space.gz at level
//	                  boundaries, paced so that writing takes about a
//	                  tenth of the run at most, and on every abort
//	                  (including Ctrl-C); when the search completes,
//	                  the file holds the finished space
//	-resume           continue each function from its checkpoint file in
//	                  the -checkpoint dir instead of starting over; a
//	                  damaged file is warned about and enumerated
//	                  afresh, one holding another function's space
//	                  (told by its root instance, not its name) is an
//	                  error and is left alone
//	-watchdog d       quarantine any single phase application running
//	                  longer than d (0 = no watchdog)
//	-faults spec      inject faults (internal/faultinject syntax); the
//	                  REPRO_FAULTS environment variable is the fallback
//
// The exit status is 0 on success, 1 on usage, per-function or check
// failures, 3 when any function's search aborted (timeout, cap, or
// cancellation) or produced quarantined nodes (the space is then
// incomplete), and 130 on interrupt. A function that fails mid-batch
// still flushes its buffered output un-interleaved, and the remaining
// functions of the batch are committed before the process exits, so
// -jobs N reports every function and the exit code deterministically,
// whatever the scheduling.
//
// Observability (see DESIGN.md §Observability):
//
//	-metrics file   write a metrics snapshot (per-phase attempt counts
//	                and durations, prune counters) as JSON on exit;
//	                aggregate with "phasestats -from-metrics"
//	-progress       log one line per completed search level to stderr
//	                (level, frontier, attempts, cumulative nodes,
//	                dormant and merged counts, elapsed), live even under
//	                -jobs; stdout and the space are unaffected
//	-pprof addr     serve net/http/pprof (CPU/heap profiles and the
//	                runtime execution trace at /debug/pprof/trace) and
//	                /debug/vars
//
// An interrupt (Ctrl-C) cancels the running search cooperatively and
// still flushes the -metrics file.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/check"
	"repro/internal/faultinject"
	"repro/internal/interp"
	"repro/internal/mibench"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/search"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run())
}

// run is main with deferred cleanup: the telemetry session must flush
// its files even on early returns and interrupts, which os.Exit in
// main would skip.
func run() int {
	var (
		benchName = flag.String("bench", "", "restrict to one benchmark")
		funcName  = flag.String("func", "", "restrict to one function")
		levelCap  = flag.Int("cap", 1_000_000, "per-level sequence cap")
		maxNodes  = flag.Int("maxnodes", 0, "abort beyond this many distinct instances (0 = unlimited)")
		timeout   = flag.Duration("timeout", 0, "per-function time budget (0 = none)")
		verify    = flag.Bool("verify", false, "differentially execute every enumerated instance")
		checkAll  = flag.Bool("check", false, "statically verify every enumerated instance (internal/check)")
		phases    = flag.Bool("phases", false, "print the phase catalog (Table 1) and exit")
		list      = flag.Bool("list", false, "print the benchmark list (Table 2) and exit")
		levels    = flag.Bool("levels", false, "print instances per level for each function")
		speed     = flag.Bool("speed", false, "find the best-performing leaf instance via control-flow-class inference (Section 7)")
		equiv     = flag.Bool("equiv", false, "collapse equivalence classes beyond renumbering (fingerprint.EquivEncode tier)")
		saveDir   = flag.String("save", "", "write each enumerated space to <dir>/<bench>.<func>.space.gz")
		jobs      = flag.Int("jobs", 1, "number of functions enumerated concurrently")
		searchW   = flag.Int("search-workers", 0, "worker parallelism inside each enumeration (0 = NumCPU; the space is byte-identical at any width)")
		ckptDir   = flag.String("checkpoint", "", "write crash-safe checkpoints to <dir>/<bench>.<func>.ckpt.space.gz")
		resume    = flag.Bool("resume", false, "continue each function from its -checkpoint file")
		watchdog  = flag.Duration("watchdog", 0, "quarantine a phase application running longer than this (0 = off)")
		faultSpec = flag.String("faults", "", "fault injection spec (falls back to $"+faultinject.EnvVar+")")
		tflags    telemetry.Flags
	)
	tflags.Register(flag.CommandLine)
	flag.Parse()

	if *phases {
		fmt.Println("Candidate optimization phases (Table 1):")
		for _, p := range opt.All() {
			req := "any order"
			switch p.ID() {
			case 'o':
				req = "only before register assignment"
			case 'k':
				req = "only after instruction selection"
			case 'g', 'l':
				req = "only after register allocation"
			}
			fmt.Printf("  %c  %-34s (%s)\n", p.ID(), p.Name(), req)
		}
		return 0
	}
	if *list {
		fmt.Println("Benchmarks (Table 2):")
		for _, p := range mibench.All() {
			fmt.Printf("  %-10s %-12s %s\n", p.Category, p.Name, p.Description)
		}
		return 0
	}

	faults, err := faultinject.FromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *faultSpec != "" {
		if faults, err = faultinject.Parse(*faultSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "explore: -resume requires -checkpoint")
		return 1
	}

	session, err := tflags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer session.Close()
	if session.Registry != nil {
		opt.Metrics = opt.NewPhaseMetrics(session.Registry)
		check.Metrics = check.NewVerifyMetrics(session.Registry)
	}
	// -progress is the engine's own per-level log record, written to
	// stderr as it happens rather than buffered with the function's output.
	var progressLog *slog.Logger
	if session.Progress {
		progressLog = telemetry.NewLogger(os.Stderr, "text", slog.LevelInfo)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	funcs, err := mibench.AllFunctions()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	fmt.Println(search.TableHeader())
	totalStart := time.Now()
	done := 0
	aborted := 0
	checkFails := 0
	totalNodes, totalEdges := 0, 0
	var totalElapsed time.Duration

	var selected []mibench.TaggedFunc
	for _, tf := range funcs {
		if *benchName != "" && tf.Bench != *benchName {
			continue
		}
		if *funcName != "" && tf.Func.Name != *funcName {
			continue
		}
		selected = append(selected, tf)
	}

	// processFunc enumerates one function, writing everything destined
	// for stdout (and stderr diagnostics) into buffers so that
	// concurrent enumerations (-jobs) can commit their output in
	// deterministic input order, un-interleaved even when a function
	// fails mid-batch.
	type funcResult struct {
		out        bytes.Buffer
		errOut     bytes.Buffer
		r          *search.Result
		err        error
		checkFails int
	}
	processFunc := func(tf mibench.TaggedFunc) *funcResult {
		fr := &funcResult{}
		opts := search.Options{
			MaxSeqPerLevel:  *levelCap,
			MaxNodes:        *maxNodes,
			Timeout:         *timeout,
			Check:           *checkAll,
			Workers:         *searchW,
			Ctx:             ctx,
			Logger:          progressLog,
			Metrics:         session.Registry,
			AttemptWatchdog: *watchdog,
			Faults:          faults,
			Equiv:           *equiv,
		}
		if *ckptDir != "" {
			opts.CheckpointPath = filepath.Join(*ckptDir,
				fmt.Sprintf("%s.%s.ckpt.space.gz", tf.Bench, tf.Func.Name))
		}
		if *verify {
			opts.Verifier = makeVerifier(tf)
		}
		if *resume {
			// Continue whatever the function's checkpoint file holds; a
			// file search.Enumerate has to discard is warned about on
			// stderr (with the function's output, unless -progress is
			// already logging there). A file holding the complete space
			// is returned as is, so rerunning with -resume is idempotent.
			if opts.Logger == nil {
				opts.Logger = slog.New(slog.NewTextHandler(&fr.errOut, &slog.HandlerOptions{Level: slog.LevelWarn}))
			}
			if fr.r, fr.err = search.Enumerate(tf.Func, opts, nil); fr.err != nil {
				return fr
			}
		} else {
			fr.r = search.Run(tf.Func, opts)
		}
		r := fr.r
		if *checkAll {
			for _, n := range r.CheckFailures() {
				fmt.Fprintf(&fr.out, "    CHECK FAIL %s seq %q: %s\n", tf.Func.Name, n.Seq, n.CheckErr)
				fr.checkFails++
			}
		}
		st := search.ComputeStats(r)
		st.Function = fmt.Sprintf("%s(%s)", clip(tf.Func.Name, 12), tf.Bench[:1])
		fmt.Fprintf(&fr.out, "%s   [%s]\n", st.TableRow(), r.Elapsed.Round(time.Millisecond))
		if r.Equiv != nil {
			fmt.Fprintf(&fr.out, "    equiv: %d raw instances -> %d classes (%d folded, %.1f%% collapse%s)\n",
				r.Equiv.Raw, r.Equiv.Raw-r.Equiv.Merged, r.Equiv.Merged,
				100*r.Equiv.CollapseRatio(), byPhaseSuffix(r.Equiv.RedundantByPhase))
		}
		for _, n := range r.QuarantinedNodes() {
			fmt.Fprintf(&fr.out, "    QUARANTINED %s seq %q: %s\n", tf.Func.Name, n.Seq, n.Quarantine)
		}
		if r.CheckpointErr != "" {
			fmt.Fprintf(&fr.errOut, "explore: %s: checkpointing failed, last good checkpoint kept: %s\n",
				tf.Func.Name, r.CheckpointErr)
		}
		if *saveDir != "" && !r.Aborted {
			path := filepath.Join(*saveDir, fmt.Sprintf("%s.%s.space.gz", tf.Bench, tf.Func.Name))
			if err := r.SaveFile(path); err != nil {
				fr.err = err
				return fr
			}
		}
		if *levels && !r.Aborted {
			fmt.Fprintf(&fr.out, "    per-level instances: %v\n", search.NodesPerLevel(r))
		}
		if *speed && !r.Aborted {
			p, err := mibench.ByName(tf.Bench)
			if err != nil {
				fr.err = err
				return fr
			}
			best, all, executions, err := r.BestDynamicCount(tf.Prog, p.Driver, p.DriverArgs)
			if err != nil {
				fmt.Fprintf(&fr.out, "    speed: %v\n", err)
				return fr
			}
			var worst int64
			for _, e := range all {
				if e.Instrs > worst {
					worst = e.Instrs
				}
			}
			fmt.Fprintf(&fr.out, "    speed: best leaf %d dyn-instrs (seq %q), worst %d (+%.1f%%); %d leaves inferred from %d executions\n",
				best.Instrs, best.Node.Seq, worst,
				100*float64(worst-best.Instrs)/float64(max64(best.Instrs, 1)),
				len(all), executions)
		}
		return fr
	}

	// Evaluate up to -jobs functions concurrently, committing results
	// (printing and totals) strictly in input order so the output and
	// exit status never depend on scheduling.
	nJobs := *jobs
	if nJobs < 1 {
		nJobs = 1
	}
	results := make([]*funcResult, len(selected))
	ready := make([]chan struct{}, len(selected))
	sem := make(chan struct{}, nJobs)
	for i := range selected {
		ready[i] = make(chan struct{})
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem; close(ready[i]) }()
			results[i] = processFunc(selected[i])
		}(i)
	}
	funcErrs := 0
	quarantinedFuncs := 0
	interrupted := false
	for i := range selected {
		<-ready[i]
		fr := results[i]
		// Flush the buffered output before looking at the error: a
		// function that failed mid-batch (save error, driver failure)
		// may have produced its table row and diagnostics already, and
		// dropping them would make the batch report depend on which
		// function happened to fail.
		os.Stdout.Write(fr.out.Bytes())
		os.Stderr.Write(fr.errOut.Bytes())
		if fr.err != nil {
			fmt.Fprintln(os.Stderr, fr.err)
			funcErrs++
			continue
		}
		checkFails += fr.checkFails
		r := fr.r
		totalNodes += len(r.Nodes)
		totalEdges += r.Stats.Edges
		totalElapsed += r.Elapsed
		if len(r.QuarantinedNodes()) > 0 {
			quarantinedFuncs++
		}
		if r.Aborted {
			aborted++
		} else {
			done++
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "explore: interrupted; flushing telemetry")
			interrupted = true
			break
		}
	}
	if done+aborted == 0 {
		if funcErrs > 0 {
			return 1
		}
		fmt.Printf("\nno functions matched (bench %q, func %q)\n", *benchName, *funcName)
		return 1
	}
	fmt.Printf("\n%d of %d functions enumerated completely (%.1f%%): %d distinct instances, %d edges; enumeration %s, wall %s\n",
		done, done+aborted, 100*float64(done)/float64(done+aborted),
		totalNodes, totalEdges,
		totalElapsed.Round(time.Millisecond), time.Since(totalStart).Round(time.Millisecond))
	if *checkAll {
		if checkFails > 0 {
			fmt.Printf("check: %d instances FAILED semantic verification\n", checkFails)
		} else {
			fmt.Println("check: every enumerated instance verified clean")
		}
	}
	// The exit code is a deterministic function of what happened, in a
	// fixed precedence: per-function errors and check failures (1) over
	// interrupt (130) over incomplete spaces — aborts or quarantined
	// nodes (3).
	if funcErrs > 0 || checkFails > 0 {
		return 1
	}
	if interrupted || ctx.Err() != nil {
		return 130
	}
	if aborted > 0 || quarantinedFuncs > 0 {
		return 3
	}
	return 0
}

// makeVerifier returns a function that checks an instance behaves like
// the unoptimized program on the benchmark driver.
func makeVerifier(tf mibench.TaggedFunc) func(*rtl.Func) error {
	p, err := mibench.ByName(tf.Bench)
	if err != nil {
		panic(err)
	}
	ref, err := interp.Run(tf.Prog, p.Driver, p.DriverArgs...)
	if err != nil {
		panic(fmt.Sprintf("reference run failed: %v", err))
	}
	return func(f *rtl.Func) error {
		mod := tf.Prog.Clone()
		for i, fn := range mod.Funcs {
			if fn.Name == f.Name {
				mod.Funcs[i] = f
			}
		}
		got, err := interp.Run(mod, p.Driver, p.DriverArgs...)
		if err != nil {
			return err
		}
		if got.Ret != ref.Ret || len(got.Trace) != len(ref.Trace) {
			return fmt.Errorf("behaviour diverged (ret %d vs %d)", got.Ret, ref.Ret)
		}
		for i := range ref.Trace {
			if got.Trace[i] != ref.Trace[i] {
				return fmt.Errorf("trace diverged at %d", i)
			}
		}
		return nil
	}
}

// byPhaseSuffix renders an equivalence tier's per-phase redundancy
// attribution as "; by phase b:12 r:3", phases in ID order, or ""
// when nothing folded.
func byPhaseSuffix(byPhase map[string]int) string {
	if len(byPhase) == 0 {
		return ""
	}
	ids := make([]string, 0, len(byPhase))
	for id := range byPhase {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	s := "; by phase"
	for _, id := range ids {
		s += fmt.Sprintf(" %s:%d", id, byPhase[id])
	}
	return s
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
