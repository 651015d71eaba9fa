// Command vpocc is the compiler driver: it compiles a mini-C source
// file to RTL and optimizes it, either with the batch compiler's fixed
// phase order or with an explicit phase sequence, then prints the
// resulting RTL (and optionally runs the program).
//
// Usage:
//
//	vpocc [flags] file.c
//
//	-seq letters   apply exactly this phase sequence (Table 1 IDs,
//	               e.g. "sckshl"); default is the batch compiler
//	-O0            print the unoptimized RTL
//	-func name     restrict output to one function
//	-run entry     execute the named function after compilation
//	-args a,b,c    integer arguments for -run
//	-time          print per-function compile statistics
//	-rtl           treat the input as textual RTL (one function in the
//	               paper's notation) instead of mini-C
//	-check         verify the RTL after every active phase with the
//	               internal/check semantic verifier; on a violation the
//	               offending phase and the sequence leading to it are
//	               reported and the exit status is nonzero
//
// Observability: -metrics and -pprof behave as in cmd/explore; a
// compile's metrics include the per-phase attempt counters and the
// driver.batch.* series.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/check"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seq      = flag.String("seq", "", "explicit phase sequence (Table 1 IDs)")
		noOpt    = flag.Bool("O0", false, "print unoptimized RTL")
		funcName = flag.String("func", "", "restrict output to one function")
		runEntry = flag.String("run", "", "execute this function after compiling")
		runArgs  = flag.String("args", "", "comma-separated integer arguments for -run")
		showTime = flag.Bool("time", false, "print per-function compile statistics")
		rtlIn    = flag.Bool("rtl", false, "input is textual RTL, not mini-C")
		checkOpt = flag.Bool("check", false, "verify the RTL after every active phase")
		tflags   telemetry.Flags
	)
	tflags.Register(flag.CommandLine)
	flag.Parse()
	if *checkOpt {
		opt.PostCheck = check.Err
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vpocc [flags] file.c")
		return 2
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
		driver.Metrics = session.Registry
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var prog *rtl.Program
	if *rtlIn {
		f, err := rtl.ParseFunc(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		prog = &rtl.Program{Funcs: []*rtl.Func{f}}
	} else {
		p, err := mc.Compile(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		prog = p
	}

	d := machine.StrongARM()
	if !*noOpt {
		for _, f := range prog.Funcs {
			if *seq != "" {
				if err := applySeq(f, *seq, d); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", f.Name, err)
					return 1
				}
				continue
			}
			res := driver.Batch(f, d)
			if res.CheckErr != nil {
				fmt.Fprintf(os.Stderr, "%s: after active sequence %q: %v\n",
					f.Name, res.Seq, res.CheckErr)
				return 1
			}
			if *showTime {
				fmt.Fprintf(os.Stderr, "%s: attempted %d, active %d (%s), %s\n",
					f.Name, res.Attempted, res.Active, res.Seq, res.Elapsed)
			}
		}
	}

	for _, f := range prog.Funcs {
		if *funcName != "" && f.Name != *funcName {
			continue
		}
		fmt.Print(f.String())
		fmt.Println()
	}

	if *runEntry != "" {
		var args []int32
		if *runArgs != "" {
			for _, s := range strings.Split(*runArgs, ",") {
				v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 32)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 2
				}
				args = append(args, int32(v))
			}
		}
		res, err := interp.Run(prog, *runEntry, args...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("%s(%v) = %d   [%d instructions executed]\n", *runEntry, args, res.Ret, res.Steps)
		for _, v := range res.Trace {
			fmt.Printf("trace: %d\n", v)
		}
	}
	return 0
}

// applySeq applies an explicit phase sequence followed by the
// compulsory entry/exit fixup. When -check installed opt.PostCheck, a
// violation's panic is recovered here and reported with the sequence
// prefix that led to the offending phase.
func applySeq(f *rtl.Func, seq string, d *machine.Desc) (err error) {
	for i := 0; i < len(seq); i++ {
		if opt.ByID(seq[i]) == nil {
			return fmt.Errorf("unknown phase %q (see explore -phases)", seq[i])
		}
	}
	applied := ""
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(*opt.CheckError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("after active sequence %q: %w", applied, ce)
		}
	}()
	st := opt.State{}
	for i := 0; i < len(seq); i++ {
		p := opt.ByID(seq[i])
		if opt.Attempt(f, &st, p, d) {
			applied += string(seq[i])
		}
	}
	opt.FixEntryExit(f)
	if opt.PostCheck != nil {
		if e := opt.PostCheck(f, d); e != nil {
			return fmt.Errorf("after active sequence %q: %w", applied,
				&opt.CheckError{Phase: '=', Err: e})
		}
	}
	return nil
}
