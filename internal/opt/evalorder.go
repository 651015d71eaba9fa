package opt

import (
	"repro/internal/machine"
	"repro/internal/rtl"
)

// EvalOrderDetermination is phase o: it reorders instructions within a
// single basic block in an attempt to use fewer registers. It is the
// one phase that must run before the compulsory register assignment —
// its purpose is to reduce the number of simultaneously live
// temporaries that register assignment will have to map onto hardware
// registers (Section 3).
//
// The implementation builds the dependence graph of each block and
// greedily schedules ready instructions, preferring instructions that
// kill operands over instructions that create new values. A block is
// rewritten only when the new order strictly lowers its maximum
// register pressure, so the phase is dormant when no improvement
// exists.
type EvalOrderDetermination struct{}

// ID returns the paper's designation for the phase.
func (EvalOrderDetermination) ID() byte { return 'o' }

// Name returns the paper's name for the phase.
func (EvalOrderDetermination) Name() string { return "evaluation order determination" }

// RequiresRegAssign reports that evaluation order determination runs
// on pseudo registers, before register assignment.
func (EvalOrderDetermination) RequiresRegAssign() bool { return false }

// Apply runs the phase.
func (EvalOrderDetermination) Apply(f *rtl.Func, _ *machine.Desc) bool {
	if f.RegAssigned {
		return false
	}
	changed := false
	lv := rtl.CFGOf(f).Liveness()
	for bpos, b := range f.Blocks {
		if reorderBlock(b, lv.Out[bpos]) {
			changed = true
		}
	}
	return changed
}

// reorderBlock attempts to reschedule one block; it commits and
// reports true only when the maximum number of simultaneously live
// registers strictly decreases.
func reorderBlock(b *rtl.Block, liveOut rtl.RegSet) bool {
	n := len(b.Instrs)
	if n < 3 {
		return false
	}

	// Dependence edges: j depends on i (i must stay before j) for
	// def-use, use-def (anti) and def-def (output) pairs, for memory
	// ordering, and to keep control transfers and the IC chain fixed.
	deps := make([][]int, n) // deps[j] = list of i that must precede j
	nsuccs := make([]int, n) // number of dependents
	indeg := make([]int, n)  // unsatisfied dependencies
	var bufD, bufU [8]rtl.Reg
	addDep := func(i, j int) {
		for _, e := range deps[j] {
			if e == i {
				return
			}
		}
		deps[j] = append(deps[j], i)
		nsuccs[i]++
		indeg[j]++
	}
	isMem := func(in *rtl.Instr) bool {
		return in.Op == rtl.OpLoad || in.Op == rtl.OpStore || in.Op == rtl.OpCall
	}
	isBarrier := func(in *rtl.Instr) bool {
		return in.Op == rtl.OpStore || in.Op == rtl.OpCall
	}
	for j := 0; j < n; j++ {
		jn := &b.Instrs[j]
		for i := 0; i < j; i++ {
			in := &b.Instrs[i]
			link := false
			for _, d := range in.Defs(bufD[:0]) {
				if jn.UsesReg(d) || jn.DefsReg(d) {
					link = true
				}
			}
			if !link {
				for _, u := range in.Uses(bufU[:0]) {
					if jn.DefsReg(u) {
						link = true
					}
				}
			}
			if !link && isMem(jn) && isMem(in) && (isBarrier(in) || isBarrier(jn)) {
				link = true
			}
			if !link && jn.Op.IsControl() {
				link = true // control stays last
			}
			if link {
				addDep(i, j)
			}
		}
	}

	pressureOf := func(order []int) int {
		// Forward simulation of live value count: a register becomes
		// live at its def and dies at its last use in the order (or
		// stays live if in liveOut).
		lastUse := make(map[rtl.Reg]int)
		for pos, idx := range order {
			in := &b.Instrs[idx]
			for _, u := range in.Uses(bufU[:0]) {
				lastUse[u] = pos
			}
		}
		live := make(map[rtl.Reg]bool)
		// Values defined before the block and used inside start live.
		defined := make(map[rtl.Reg]bool)
		for _, idx := range order {
			in := &b.Instrs[idx]
			for _, u := range in.Uses(bufU[:0]) {
				if !defined[u] {
					live[u] = true
				}
			}
			for _, d := range in.Defs(bufD[:0]) {
				defined[d] = true
			}
		}
		max := len(live)
		for pos, idx := range order {
			in := &b.Instrs[idx]
			for _, d := range in.Defs(bufD[:0]) {
				live[d] = true
			}
			if len(live) > max {
				max = len(live)
			}
			for _, u := range in.Uses(bufU[:0]) {
				if lastUse[u] == pos && !liveOut.Has(u) {
					delete(live, u)
				}
			}
			for _, d := range in.Defs(bufD[:0]) {
				// A value with no use after this point and not live out
				// of the block dies immediately.
				if lu, ok := lastUse[d]; (!ok || lu <= pos) && !liveOut.Has(d) {
					delete(live, d)
				}
			}
		}
		return max
	}

	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	basePressure := pressureOf(identity)

	// Greedy list scheduling: among ready instructions prefer the one
	// that kills the most operands, then the one defining the fewest
	// new values, then original order.
	order := make([]int, 0, n)
	done := make([]bool, n)
	remaining := n
	indegWork := append([]int(nil), indeg...)
	for remaining > 0 {
		best, bestKill := -1, -1
		for j := 0; j < n; j++ {
			if done[j] || indegWork[j] != 0 {
				continue
			}
			in := &b.Instrs[j]
			kills := 0
			for _, u := range in.Uses(bufU[:0]) {
				// An operand is killed if no other unscheduled
				// instruction uses it.
				needed := false
				for k := 0; k < n; k++ {
					if k == j || done[k] {
						continue
					}
					if b.Instrs[k].UsesReg(u) {
						needed = true
						break
					}
				}
				if !needed && !liveOut.Has(u) {
					kills++
				}
			}
			if kills > bestKill {
				best, bestKill = j, kills
			}
		}
		order = append(order, best)
		done[best] = true
		remaining--
		for j := 0; j < n; j++ {
			if done[j] {
				continue
			}
			for _, e := range deps[j] {
				if e == best {
					indegWork[j]--
				}
			}
		}
	}

	same := true
	for i, idx := range order {
		if idx != i {
			same = false
			break
		}
	}
	if same {
		return false
	}
	if pressureOf(order) >= basePressure {
		return false
	}
	newInstrs := make([]rtl.Instr, n)
	for pos, idx := range order {
		newInstrs[pos] = b.Instrs[idx]
	}
	b.Instrs = newInstrs
	return true
}
