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

// Apply runs the phase.
func (DeadAssignElim) Apply(f *rtl.Func, _ *machine.Desc) bool {
	changed := false
	// Removing one dead assignment can kill the instructions feeding
	// it, so iterate to a fixpoint.
	for again := true; again; {
		again = false
		lv := rtl.CFGOf(f).Liveness()
		var buf [8]rtl.Reg
		for bpos, b := range f.Blocks {
			live := lv.Out[bpos].Copy()
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				dead := false
				if !in.HasSideEffects() && in.Op != rtl.OpNop {
					dead = in.Dst != rtl.RegNone && !live.Has(in.Dst)
				}
				if dead {
					b.Remove(i)
					changed, again = true, true
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
	}
	return changed
}
