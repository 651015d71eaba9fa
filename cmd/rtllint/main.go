// Command rtllint runs the internal/check semantic verifier over RTL,
// reporting every diagnostic with its function, block, instruction
// index and rule id. Inputs ending in .c are compiled from mini-C;
// anything else is parsed as one function in the paper's textual RTL
// notation. With no file arguments the input is read from stdin
// (textual RTL, or mini-C with -c).
//
// Usage:
//
//	rtllint [flags] [file ...]
//
//	-c            treat stdin as mini-C instead of textual RTL
//	-seq letters  apply this phase sequence (Table 1 IDs) before
//	              linting, verifying after every active phase
//	-batch        optimize with the batch compiler before linting
//	-machine name target description: strongarm (default) or mipslike
//	-nolints      suppress the advisory CFG lints, report errors only
//	-werror       treat lints as errors for the exit status
//	-json         emit one JSON object per diagnostic on stdout (JSON
//	              Lines): the internal/check Diagnostic fields plus the
//	              input file, with the CFG path witness as a block-ID
//	              array; progress and summary messages go to stderr
//
// In human output, a diagnostic whose rule has a path witness is
// followed by an indented "path: L0 -> L1 -> ..." line — the concrete
// control-flow path demonstrating the finding.
//
// The exit status is 1 when any error-tier diagnostic fires (or any
// diagnostic at all under -werror), 2 on usage or parse problems.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/driver"
	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/opt"
	"repro/internal/rtl"
)

func main() {
	var (
		cIn      = flag.Bool("c", false, "treat stdin as mini-C instead of textual RTL")
		seq      = flag.String("seq", "", "apply this phase sequence before linting")
		batch    = flag.Bool("batch", false, "optimize with the batch compiler before linting")
		machName = flag.String("machine", "strongarm", "target description: strongarm or mipslike")
		noLints  = flag.Bool("nolints", false, "suppress the advisory CFG lints")
		werror   = flag.Bool("werror", false, "treat lints as errors for the exit status")
		jsonOut  = flag.Bool("json", false, "emit one JSON object per diagnostic (JSON Lines)")
	)
	flag.Parse()

	var d *machine.Desc
	switch *machName {
	case "strongarm":
		d = machine.StrongARM()
	case "mipslike":
		d = machine.MIPSLike()
	default:
		fmt.Fprintf(os.Stderr, "rtllint: unknown machine %q (strongarm, mipslike)\n", *machName)
		os.Exit(2)
	}
	if *seq != "" && *batch {
		fmt.Fprintln(os.Stderr, "rtllint: -seq and -batch are mutually exclusive")
		os.Exit(2)
	}
	for i := 0; i < len(*seq); i++ {
		if opt.ByID((*seq)[i]) == nil {
			fmt.Fprintf(os.Stderr, "rtllint: unknown phase %q (see explore -phases)\n", (*seq)[i])
			os.Exit(2)
		}
	}

	opts := check.Options{Machine: d, Lints: !*noLints}
	// Under -json, stdout carries only the diagnostic stream; progress
	// and summary prose moves to stderr.
	msgW := io.Writer(os.Stdout)
	if *jsonOut {
		msgW = os.Stderr
	}
	errors, warnings := 0, 0
	enc := json.NewEncoder(os.Stdout)
	report := func(label string, diags []check.Diagnostic) {
		for _, dg := range diags {
			if *jsonOut {
				// The Diagnostic fields flattened alongside the input
				// file, one object per line.
				if err := enc.Encode(struct {
					File string `json:"file"`
					check.Diagnostic
				}{label, dg}); err != nil {
					fmt.Fprintf(os.Stderr, "rtllint: encoding diagnostic: %v\n", err)
					os.Exit(2)
				}
			} else {
				fmt.Printf("%s: %s\n", label, dg)
				if len(dg.Witness) > 0 {
					fmt.Printf("  path: %s\n", check.FormatIDPath(dg.Witness))
				}
			}
			if dg.Severity == check.SevError {
				errors++
			} else {
				warnings++
			}
		}
	}

	lintProgram := func(label string, prog *rtl.Program) {
		for _, f := range prog.Funcs {
			if *batch {
				res := driver.Batch(f, d)
				if res.CheckErr != nil {
					fmt.Fprintf(msgW, "%s: %s: after active sequence %q: %v\n", label, f.Name, res.Seq, res.CheckErr)
					errors++
					continue
				}
			} else if *seq != "" {
				// Verify after every active phase so the report names
				// the offending phase, not just the end state.
				st := opt.State{}
				applied := ""
				violated := false
				for i := 0; i < len(*seq) && !violated; i++ {
					p := opt.ByID((*seq)[i])
					if !opt.Attempt(f, &st, p, d) {
						continue
					}
					applied += string((*seq)[i])
					if errs := check.Errors(check.Run(f, opts)); len(errs) != 0 {
						fmt.Fprintf(msgW, "%s: %s: after active sequence %q (offender %c):\n",
							label, f.Name, applied, (*seq)[i])
						report(label, errs)
						violated = true
					}
				}
				if violated {
					continue
				}
			}
			report(label, check.Run(f, opts))
		}
	}

	load := func(label string, src []byte, isC bool) {
		if isC {
			prog, err := mc.Compile(string(src))
			if err != nil {
				fmt.Fprintf(os.Stderr, "rtllint: %s: %v\n", label, err)
				os.Exit(2)
			}
			lintProgram(label, prog)
			return
		}
		f, err := rtl.ParseFunc(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtllint: %s: %v\n", label, err)
			os.Exit(2)
		}
		lintProgram(label, &rtl.Program{Funcs: []*rtl.Func{f}})
	}

	if flag.NArg() == 0 {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtllint: stdin: %v\n", err)
			os.Exit(2)
		}
		load("<stdin>", src, *cIn)
	}
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rtllint: %v\n", err)
			os.Exit(2)
		}
		load(path, src, strings.HasSuffix(path, ".c"))
	}

	if errors+warnings > 0 {
		fmt.Fprintf(msgW, "%d error(s), %d warning(s)\n", errors, warnings)
	}
	if errors > 0 || (*werror && warnings > 0) {
		os.Exit(1)
	}
}
