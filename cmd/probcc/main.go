// Command probcc reproduces Table 7: it compiles every benchmark
// function with the old batch compiler and with the probabilistic
// batch compiler of Figure 8, then compares attempted phases, active
// phases, compilation time, code size and whole-program dynamic
// instruction counts.
//
// The probabilistic compiler needs the enabling/disabling statistics;
// pass a file produced by "phasestats -out" with -probs, or let probcc
// mine them first (the default, bounded by -minenodes/-minetimeout).
//
// Usage:
//
//	probcc [-probs file] [-minenodes n] [-minetimeout d] [-check]
//
// With -check, both compilers verify the RTL after every active phase
// with the internal/check semantic verifier; a violation aborts with
// the function, the active sequence and the offending phase.
//
// Observability: -metrics, -progress and -pprof behave as in
// cmd/explore. The mining searches and both compilers record into the
// same registry, so one -metrics file captures the full mine + compile
// pipeline (driver.batch.* next to driver.prob.* gives the Table 7
// cost comparison directly); an interrupt during mining still flushes
// the file.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"repro/internal/analysis"
	"repro/internal/check"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/mibench"
	"repro/internal/opt"
	"repro/internal/search"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		probsPath   = flag.String("probs", "", "probability tables JSON (from phasestats -out)")
		mineNodes   = flag.Int("minenodes", 10000, "per-function instance cap when mining probabilities")
		mineTimeout = flag.Duration("minetimeout", 20*time.Second, "per-function search budget when mining")
		checkOpt    = flag.Bool("check", false, "verify the RTL after every active phase")
		tflags      telemetry.Flags
	)
	tflags.Register(flag.CommandLine)
	flag.Parse()

	session, err := tflags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer session.Close()
	if session.Registry != nil {
		opt.Metrics = opt.NewPhaseMetrics(session.Registry)
		check.Metrics = check.NewVerifyMetrics(session.Registry)
		driver.Metrics = session.Registry
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var probs *driver.Probabilities
	if *probsPath != "" {
		p, err := driver.LoadProbabilities(*probsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		probs = p
	} else {
		fmt.Println("mining enabling/disabling probabilities from the corpus...")
		funcs, err := mibench.AllFunctions()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		x := analysis.NewInteractions()
		var progressLog *slog.Logger // -progress: the engine's per-level record on stderr
		if session.Progress {
			progressLog = telemetry.NewLogger(os.Stderr, "text", slog.LevelInfo)
		}
		for _, tf := range funcs {
			r := search.Run(tf.Func, search.Options{
				MaxNodes: *mineNodes,
				Timeout:  *mineTimeout,
				Check:    *checkOpt,
				Ctx:      ctx,
				Logger:   progressLog,
				Metrics:  session.Registry,
			})
			if fails := r.CheckFailures(); len(fails) > 0 {
				for _, n := range fails {
					fmt.Fprintf(os.Stderr, "%s: CHECK FAIL seq %q: %s\n", tf.Func.Name, n.Seq, n.CheckErr)
				}
				return 1
			}
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "probcc: interrupted while mining; flushing telemetry")
				return 130
			}
			if !r.Aborted {
				x.Accumulate(r)
			}
		}
		probs = driver.FromInteractions(x)
	}

	// Installed after mining: the search has its own non-panicking
	// Check path, while the two batch compilers report violations
	// through Result.CheckErr (surfaced by CompareProgram).
	if *checkOpt {
		opt.PostCheck = check.Err
	}

	d := machine.StrongARM()
	fmt.Println()
	fmt.Println(driver.TableHeader())
	var (
		sumOldAtt, sumOldAct, sumProbAtt, sumProbAct int
		sumOldTime, sumProbTime                      time.Duration
		sumOldSize, sumProbSize                      int
		rows                                         int
	)
	for _, p := range mibench.All() {
		prog, err := p.Compile()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cmp, err := driver.CompareProgram(prog, p.Driver, p.DriverArgs, d, probs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", p.Name, err)
			return 1
		}
		for _, r := range cmp.Rows {
			r.Function = fmt.Sprintf("%s(%s)", r.Function, p.Name[:1])
			fmt.Println(driver.FormatRow(r))
			sumOldAtt += r.OldAttempted
			sumOldAct += r.OldActive
			sumProbAtt += r.ProbAttempted
			sumProbAct += r.ProbActive
			sumOldTime += r.OldTime
			sumProbTime += r.ProbTime
			sumOldSize += r.OldSize
			sumProbSize += r.ProbSize
			rows++
		}
		fmt.Printf("%-16s dynamic instructions: batch %d, probabilistic %d (ratio %.3f)\n",
			"["+p.Name+"]", cmp.OldSteps, cmp.ProbSteps, cmp.SpeedRatio())
	}
	fmt.Println()
	fmt.Printf("averages over %d functions:\n", rows)
	fmt.Printf("  attempted phases: batch %.1f, probabilistic %.1f (ratio %.3f)\n",
		avg(sumOldAtt, rows), avg(sumProbAtt, rows), float64(sumProbAtt)/float64(sumOldAtt))
	fmt.Printf("  active phases:    batch %.1f, probabilistic %.1f\n",
		avg(sumOldAct, rows), avg(sumProbAct, rows))
	fmt.Printf("  compile time:     batch %s, probabilistic %s (ratio %.3f)\n",
		sumOldTime.Round(time.Microsecond), sumProbTime.Round(time.Microsecond),
		float64(sumProbTime)/float64(sumOldTime))
	fmt.Printf("  code size ratio (prob/old): %.3f\n", float64(sumProbSize)/float64(sumOldSize))
	return 0
}

func avg(total, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}
