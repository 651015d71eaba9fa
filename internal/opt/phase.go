// Package opt implements the fifteen candidate code-improving phases
// of Table 1, the compulsory register assignment pass, and the
// compulsory entry/exit fixup. Each phase analyzes and transforms the
// RTL representation in place and reports whether it was active
// (changed the program representation) or dormant (found no
// opportunity), the distinction that drives the exhaustive search's
// first pruning technique.
//
// Phase ordering restrictions (Section 3 of the paper):
//
//   - evaluation order determination (o) may only run before the
//     compulsory register assignment;
//   - register allocation (k) may only run after instruction
//     selection (s), so candidate loads and stores carry the addresses
//     of arguments and local scalars;
//   - loop unrolling (g) and the loop transformations (l) may only run
//     after register allocation (k);
//   - register assignment is performed implicitly before the first
//     phase that requires it.
package opt

import (
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/rtl"
	"repro/internal/telemetry"
)

// PostCheck, when non-nil, is invoked after every active phase
// application (and after FixEntryExit) with the transformed function
// and the machine description. A non-nil return means the phase just
// applied broke a semantic invariant; Attempt panics with a
// *CheckError naming the offending phase so harnesses can recover it
// alongside the sequence that led there. The check package's Err has
// the matching signature: opt.PostCheck = check.Err.
//
// The hook is intentionally a package variable rather than a State
// field: the verifier is a cross-cutting debug facility, and keeping
// it out of State keeps the search's per-node key and clone costs
// untouched when checking is off.
var PostCheck func(f *rtl.Func, d *machine.Desc) error

// Metrics, when non-nil, receives the outcome of every Attempt:
// per-phase active/dormant counts and per-phase durations (covering
// the implicit register assignment, the phase proper and the cleanup),
// the dormant attempts' once more on their own.
// Like PostCheck it is a package variable rather than a State field so
// the search's per-node key and clone costs stay untouched; install it
// before any concurrent use and leave it in place for the run.
var Metrics *PhaseMetrics

// PhaseMetrics is the per-phase instrument bundle, pre-resolved at
// construction so the Attempt hot path performs no registry lookups.
type PhaseMetrics struct {
	active  [256]*telemetry.Counter
	dormant [256]*telemetry.Counter
	dur     [256]*telemetry.Histogram
	durIdle [256]*telemetry.Histogram
}

// NewPhaseMetrics registers the per-phase instruments of every Table 1
// phase on reg: counters opt.attempt.<id>.active and
// opt.attempt.<id>.dormant plus histograms opt.phase.<id>.duration_ns
// (every attempt) and opt.phase.<id>.dormant.duration_ns (the dormant
// ones; the active side is the difference of the two).
func NewPhaseMetrics(reg *telemetry.Registry) *PhaseMetrics {
	m := &PhaseMetrics{}
	for _, p := range All() {
		id := p.ID()
		m.active[id] = reg.Counter(fmt.Sprintf("opt.attempt.%c.active", id))
		m.dormant[id] = reg.Counter(fmt.Sprintf("opt.attempt.%c.dormant", id))
		m.dur[id] = reg.Histogram(fmt.Sprintf("opt.phase.%c.duration_ns", id))
		m.durIdle[id] = reg.Histogram(fmt.Sprintf("opt.phase.%c.dormant.duration_ns", id))
	}
	return m
}

// observe records one Attempt outcome. The nil checks let unknown
// phase IDs (tests register synthetic phases) pass through silently.
func (m *PhaseMetrics) observe(id byte, active bool, d time.Duration) {
	if active {
		m.active[id].Inc()
	} else {
		m.dormant[id].Inc()
		m.durIdle[id].Observe(int64(d))
	}
	m.dur[id].Observe(int64(d))
}

// CheckError is the panic payload raised by Attempt when PostCheck
// rejects the code a phase produced. Phase is the one-letter
// designation of the offending phase ('=' for the entry/exit fixup).
type CheckError struct {
	Phase byte
	Err   error
}

func (e *CheckError) Error() string {
	return fmt.Sprintf("phase %c broke a semantic invariant: %v", e.Phase, e.Err)
}

func (e *CheckError) Unwrap() error { return e.Err }

// Phase is a single candidate code-improving phase.
type Phase interface {
	// ID is the paper's one-letter designation (Table 1).
	ID() byte
	// Name is the paper's phase name.
	Name() string
	// RequiresRegAssign reports whether the compulsory register
	// assignment must have been performed before this phase runs.
	// Control-flow phases operate on any form; dataflow phases need
	// values in hardware registers.
	RequiresRegAssign() bool
	// Apply runs the phase on f, returning whether it was active.
	// Implementations must leave f semantically unchanged and
	// structurally valid.
	Apply(f *rtl.Func, d *machine.Desc) bool
}

// State tracks the sequence-history facts that gate phase legality at
// a point in an optimization sequence.
type State struct {
	// RegAssigned mirrors Func.RegAssigned for the node's code.
	RegAssigned bool
	// KApplied records that register allocation has been active.
	KApplied bool
	// SApplied records that instruction selection has been active.
	SApplied bool
}

// Enabled reports whether phase p may legally be attempted in state st.
func Enabled(p Phase, st State) bool {
	switch p.ID() {
	case 'o':
		return !st.RegAssigned
	case 'k':
		return st.SApplied
	case 'g', 'l':
		return st.KApplied
	}
	return true
}

// Attempt applies phase p to f, handling the implicit register
// assignment. It returns whether the phase was active. When the phase
// is dormant, f may nevertheless have been mutated by the implicit
// register assignment; callers exploring the search space should
// attempt phases on a clone and discard it when dormant. When the
// phase is active, st is updated.
func Attempt(f *rtl.Func, st *State, p Phase, d *machine.Desc) bool {
	if !Enabled(p, *st) {
		return false
	}
	m := Metrics
	var began time.Time
	if m != nil {
		began = time.Now()
	}
	if p.RequiresRegAssign() && !f.RegAssigned {
		// Every register is about to be rewritten: what a clone borrowed
		// from its parent (rtl.CFGOf) would no longer describe it.
		f.DropAnalyses()
		RegAssign(f)
	}
	active := p.Apply(f, d)
	f.DropAnalyses() // a borrow the phase never asked for dies with the attempt
	if active {
		rtl.Cleanup(f)
		st.RegAssigned = f.RegAssigned
		switch p.ID() {
		case 'k':
			st.KApplied = true
		case 's':
			st.SApplied = true
		}
	}
	// Observed before the PostCheck hook so phase durations measure
	// the transformation alone; the verifier keeps its own clock.
	if m != nil {
		m.observe(p.ID(), active, time.Since(began))
	}
	if active && PostCheck != nil {
		if err := PostCheck(f, d); err != nil {
			panic(&CheckError{Phase: p.ID(), Err: err})
		}
	}
	return active
}

// All returns the fifteen candidate phases in the paper's Table 1
// order: b, c, d, g, h, i, j, k, l, n, o, q, r, s, u.
func All() []Phase {
	return []Phase{
		BranchChaining{},
		CommonSubexprElim{},
		RemoveUnreachable{},
		LoopUnrolling{},
		DeadAssignElim{},
		BlockReordering{},
		MinimizeLoopJumps{},
		RegisterAllocation{},
		LoopTransformations{},
		CodeAbstraction{},
		EvalOrderDetermination{},
		StrengthReduction{},
		ReverseBranches{},
		InstructionSelection{},
		UselessJumpRemoval{},
	}
}

// ByID returns the phase with the given one-letter designation, or nil.
func ByID(id byte) Phase {
	for _, p := range All() {
		if p.ID() == id {
			return p
		}
	}
	return nil
}

// IDString returns the concatenated IDs of a phase sequence, e.g.
// "sckbh".
func IDString(seq []Phase) string {
	b := make([]byte, len(seq))
	for i, p := range seq {
		b[i] = p.ID()
	}
	return string(b)
}
