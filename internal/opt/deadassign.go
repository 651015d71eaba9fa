package opt

import (
	"repro/internal/machine"
	"repro/internal/rtl"
)

// DeadAssignElim is phase h: it uses global analysis to remove
// assignments when the assigned value is never used. Stores, calls and
// control transfers are never removed; a comparison whose condition
// codes are dead is.
type DeadAssignElim struct{}

// ID returns the paper's designation for the phase.
func (DeadAssignElim) ID() byte { return 'h' }

// Name returns the paper's name for the phase.
func (DeadAssignElim) Name() string { return "dead assignment elimination" }

// RequiresRegAssign reports that this dataflow phase runs after the
// compulsory register assignment.
func (DeadAssignElim) RequiresRegAssign() bool { return true }

// Apply runs the phase. It removes no control instruction and so
// changes no edge: one graph — normally the instance's, borrowed, with
// its liveness — serves every round, and the rounds after the first
// re-solve liveness over it in pooled storage.
func (DeadAssignElim) Apply(f *rtl.Func, _ *machine.Desc) bool {
	g := rtl.CFGOf(f)
	lv := g.Liveness()
	ls := rtl.NewLiveSolver()
	defer ls.Release()
	var live rtl.RegSet
	var buf [8]rtl.Reg
	changed := false
	// Removing one dead assignment can kill the instructions feeding
	// it, so iterate to a fixpoint.
	for {
		again := false
		for bpos, b := range f.Blocks {
			live.CopyFrom(lv.Out[bpos])
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				dead := false
				if !in.HasSideEffects() && in.Op != rtl.OpNop {
					dead = in.Dst != rtl.RegNone && !live.Has(in.Dst)
				}
				if dead {
					b.Remove(i)
					again = true
					continue
				}
				for _, d := range in.Defs(buf[:0]) {
					live.Remove(d)
				}
				for _, u := range in.Uses(buf[:0]) {
					live.Add(u)
				}
			}
		}
		if !again {
			return changed
		}
		changed = true
		lv = ls.Solve(g)
	}
}
