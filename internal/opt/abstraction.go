package opt

import (
	"repro/internal/machine"
	"repro/internal/rtl"
)

// CodeAbstraction is phase n: cross-jumping and code hoisting, moving
// identical instructions from basic blocks to their common predecessor
// or successor to shrink code size.
type CodeAbstraction struct{}

// ID returns the paper's designation for the phase.
func (CodeAbstraction) ID() byte { return 'n' }

// Name returns the paper's name for the phase.
func (CodeAbstraction) Name() string { return "code abstraction" }

// RequiresRegAssign reports that this dataflow phase runs after the
// compulsory register assignment.
func (CodeAbstraction) RequiresRegAssign() bool { return true }

// Apply runs the phase.
func (CodeAbstraction) Apply(f *rtl.Func, _ *machine.Desc) bool {
	changed := false
	for g := rtl.CFGOf(f); crossJumpOnce(f, g) || hoistCommonOnce(f, g); g = rtl.CFGOf(f) {
		changed = true
	}
	return changed
}

// crossJumpOnce moves one instruction shared as the final
// (pre-transfer) instruction of all predecessors of a join block into
// the join block. Every predecessor must reach the join
// unconditionally (a jump or fall-through), so the moved instruction
// executes under exactly the same conditions as before.
func crossJumpOnce(f *rtl.Func, g *rtl.CFG) bool {
	for spos := range f.Blocks {
		preds := g.Preds[spos]
		if len(preds) < 2 {
			continue
		}
		ok := true
		var shared *rtl.Instr
		for _, p := range preds {
			pb := f.Blocks[p]
			// The predecessor's only successor must be this block.
			if len(g.Succs[p]) != 1 || g.Succs[p][0] != spos {
				ok = false
				break
			}
			// Identify the last non-control instruction.
			idx := len(pb.Instrs) - 1
			if idx >= 0 && pb.Instrs[idx].Op.IsControl() {
				idx--
			}
			if idx < 0 {
				ok = false
				break
			}
			in := &pb.Instrs[idx]
			if shared == nil {
				shared = in
			} else if !shared.Equal(*in) {
				ok = false
				break
			}
		}
		if !ok || shared == nil {
			continue
		}
		moved := *shared
		for _, p := range preds {
			pb := f.Blocks[p]
			idx := len(pb.Instrs) - 1
			if pb.Instrs[idx].Op.IsControl() {
				idx--
			}
			pb.Remove(idx)
		}
		f.Blocks[spos].Insert(0, moved)
		return true
	}
	return false
}

// hoistCommonOnce moves one instruction that starts both successors of
// a conditional branch into the predecessor, placing it before the
// comparison so the condition codes are not disturbed. Both successors
// must have the branch block as their only predecessor.
func hoistCommonOnce(f *rtl.Func, g *rtl.CFG) bool {
	for ppos, pb := range f.Blocks {
		last := pb.Last()
		if last == nil || last.Op != rtl.OpBranch {
			continue
		}
		succs := g.Succs[ppos]
		if len(succs) != 2 {
			continue
		}
		s1, s2 := f.Blocks[succs[0]], f.Blocks[succs[1]]
		if len(g.Preds[succs[0]]) != 1 || len(g.Preds[succs[1]]) != 1 {
			continue
		}
		if len(s1.Instrs) == 0 || len(s2.Instrs) == 0 {
			continue
		}
		i1, i2 := s1.Instrs[0], s2.Instrs[0]
		if !i1.Equal(i2) || i1.Op.IsControl() || i1.Op == rtl.OpCmp || i1.Op == rtl.OpCall {
			continue
		}
		// The hoisted instruction lands before the comparison feeding
		// the branch; it must not define a register the comparison or
		// branch reads, nor redefine anything between there and the
		// block end... since it moves above the Cmp only, check the
		// Cmp's operands and the IC.
		cmpIdx := len(pb.Instrs) - 2
		if cmpIdx < 0 || pb.Instrs[cmpIdx].Op != rtl.OpCmp {
			continue
		}
		cmp := &pb.Instrs[cmpIdx]
		if i1.Dst != rtl.RegNone && (cmp.A.IsReg(i1.Dst) || cmp.B.IsReg(i1.Dst)) {
			continue
		}
		// A store or call must not move above the comparison either
		// (it cannot define registers, but keep the memory order
		// intact relative to nothing — stores are fine to move across
		// a pure comparison). Loads and stores are safe: the Cmp and
		// Branch do not touch memory.
		s1.Remove(0)
		s2.Remove(0)
		pb.Insert(cmpIdx, i1)
		return true
	}
	return false
}
