// Package driver implements the two whole-function compilers compared
// in Section 6 of the paper:
//
//   - the conventional batch compiler, which attempts a fixed order of
//     optimization phases in a loop until no phase changes the
//     function, and
//   - the probabilistic batch compiler of Figure 8, which keeps a
//     current probability of each phase being active, always applies
//     the most promising phase next, and updates the probabilities
//     with the enabling/disabling statistics mined from the exhaustive
//     enumeration.
//
// Table 7 shows the probabilistic compiler reaching comparable code
// quality in roughly a third of the compilation time because it stops
// attempting phases that the statistics say are almost surely dormant.
package driver

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/telemetry"
)

// Metrics, when non-nil, tags every compilation: per-compiler counters
// (driver.batch.compiles, driver.prob.compiles, their attempted/active
// phase totals) and duration histograms.
var Metrics *telemetry.Registry

// observe tags one finished compilation under the given compiler name
// ("batch" or "prob").
func observe(compiler string, res *Result) {
	reg := Metrics
	if reg == nil {
		return
	}
	reg.Counter("driver." + compiler + ".compiles").Inc()
	reg.Counter("driver." + compiler + ".attempted").Add(int64(res.Attempted))
	reg.Counter("driver." + compiler + ".active").Add(int64(res.Active))
	reg.Histogram("driver." + compiler + ".duration_ns").Observe(int64(res.Elapsed))
	if res.CheckErr != nil {
		reg.Counter("driver." + compiler + ".check_failures").Inc()
	}
}

// Result describes one compilation of a function.
type Result struct {
	// Attempted counts phase applications tried; Active counts the
	// ones that changed the representation.
	Attempted int
	Active    int
	// Seq is the active phase sequence, by phase ID.
	Seq string
	// Elapsed is the wall-clock optimization time.
	Elapsed time.Duration
	// CheckErr is non-nil when opt.PostCheck rejected the code some
	// phase produced. Seq then holds the active sequence up to but not
	// including the offending phase, so Seq + CheckErr.Phase is the
	// exact reproduction recipe. Optimization stops at the violation;
	// the function is left in the rejected state for inspection.
	CheckErr *opt.CheckError
}

// BatchOrder is the fixed order the conventional compiler attempts in
// every pass: evaluation order determination first (it is only legal
// before register assignment), then the dataflow phases, then the loop
// and control-flow phases — a typical backend pipeline built from
// Table 1's phases.
var BatchOrder = []byte{'o', 'b', 's', 'c', 'k', 'h', 'l', 'q', 'g', 'n', 'i', 'j', 'r', 'u'}

// Batch optimizes f in place the way the old VPO batch compiler does:
// the BatchOrder list is attempted repeatedly until one full pass
// produces no change, then the compulsory entry/exit code is inserted.
func Batch(f *rtl.Func, d *machine.Desc) Result {
	start := time.Now()
	res := Optimize(f, d)
	if res.CheckErr == nil {
		res.CheckErr = fixEntryExitChecked(f, d)
	}
	res.Elapsed = time.Since(start)
	observe("batch", &res)
	return res
}

// fixEntryExitChecked runs the compulsory entry/exit fixup and then
// the verifier hook. FixEntryExit is not a candidate phase so it has
// no Table 1 letter; '=' marks it in CheckErr.
func fixEntryExitChecked(f *rtl.Func, d *machine.Desc) *opt.CheckError {
	opt.FixEntryExit(f)
	if opt.PostCheck != nil {
		if err := opt.PostCheck(f, d); err != nil {
			return &opt.CheckError{Phase: '=', Err: err}
		}
	}
	return nil
}

// recoverCheck converts an opt.CheckError panic out of opt.Attempt
// into res.CheckErr; any other panic is re-raised.
func recoverCheck(res *Result) {
	if r := recover(); r != nil {
		ce, ok := r.(*opt.CheckError)
		if !ok {
			panic(r)
		}
		res.CheckErr = ce
	}
}

// Optimize runs the batch loop without the final entry/exit fixup,
// which is useful when comparing against pre-fixup instances from the
// exhaustive search.
func Optimize(f *rtl.Func, d *machine.Desc) Result {
	start := time.Now()
	var res Result
	func() {
		defer recoverCheck(&res)
		st := opt.State{}
		for {
			activeThisPass := 0
			for _, id := range BatchOrder {
				p := opt.ByID(id)
				if !opt.Enabled(p, st) {
					continue
				}
				res.Attempted++
				if opt.Attempt(f, &st, p, d) {
					res.Active++
					activeThisPass++
					res.Seq += string(id)
				}
			}
			if activeThisPass == 0 {
				break
			}
		}
	}()
	res.Elapsed = time.Since(start)
	return res
}

// Probabilities are the inputs to the probabilistic compiler: the
// start probability of each phase (Table 4's St column) and the
// enabling/disabling matrices (Tables 4 and 5), indexed by
// analysis.PhaseIDs position. Cells of -1 (never observed) are treated
// as zero.
type Probabilities struct {
	Start   []float64
	Enable  [][]float64
	Disable [][]float64
}

// FromInteractions packages mined statistics for the compiler.
func FromInteractions(x *analysis.Interactions) *Probabilities {
	clamp := func(m [][]float64) [][]float64 {
		n := make([][]float64, len(m))
		for i := range m {
			n[i] = make([]float64, len(m[i]))
			for j, v := range m[i] {
				if v > 0 {
					n[i][j] = v
				}
			}
		}
		return n
	}
	return &Probabilities{
		Start:   append([]float64(nil), x.StartProbabilities()...),
		Enable:  clamp(x.Enabling()),
		Disable: clamp(x.Disabling()),
	}
}

// activeThreshold is the probability below which a phase is considered
// not worth attempting. Figure 8's loop runs "while any p[i] > 0"; a
// small epsilon keeps the floating-point update from scheduling phases
// with vanishing probability forever.
const activeThreshold = 0.01

// maxProbabilisticSteps bounds the scheduler against pathological
// probability tables.
const maxProbabilisticSteps = 512

// Probabilistic optimizes f in place with the Figure 8 algorithm:
//
//	foreach phase i: p[i] = e[i][st]
//	while any p[i] > 0:
//	    select j with the highest p; apply phase j
//	    if j was active:
//	        foreach i != j: p[i] += (1-p[i])*e[i][j] - p[i]*d[i][j]
//	    p[j] = 0
func Probabilistic(f *rtl.Func, d *machine.Desc, probs *Probabilities) Result {
	start := time.Now()
	var res Result
	func() {
		defer recoverCheck(&res)
		st := opt.State{}
		n := len(analysis.PhaseIDs)
		p := make([]float64, n)
		copy(p, probs.Start)

		for step := 0; step < maxProbabilisticSteps; step++ {
			j := -1
			for i := 0; i < n; i++ {
				if p[i] > activeThreshold && (j < 0 || p[i] > p[j]) {
					j = i
				}
			}
			if j < 0 {
				break
			}
			phase := opt.ByID(analysis.PhaseIDs[j])
			if !opt.Enabled(phase, st) {
				p[j] = 0
				continue
			}
			res.Attempted++
			if opt.Attempt(f, &st, phase, d) {
				res.Active++
				res.Seq += string(analysis.PhaseIDs[j])
				for i := 0; i < n; i++ {
					if i == j {
						continue
					}
					p[i] += (1-p[i])*probs.Enable[i][j] - p[i]*probs.Disable[i][j]
					if p[i] < 0 {
						p[i] = 0
					}
					if p[i] > 1 {
						p[i] = 1
					}
				}
			}
			p[j] = 0
		}
	}()
	if res.CheckErr == nil {
		res.CheckErr = fixEntryExitChecked(f, d)
	}
	res.Elapsed = time.Since(start)
	observe("prob", &res)
	return res
}
