package opt

import (
	"repro/internal/machine"
	"repro/internal/rtl"
)

// UselessJumpRemoval is phase u: it removes jumps and branches whose
// target is the following positional block.
type UselessJumpRemoval struct{}

// ID returns the paper's designation for the phase.
func (UselessJumpRemoval) ID() byte { return 'u' }

// Name returns the paper's name for the phase.
func (UselessJumpRemoval) Name() string { return "remove useless jumps" }

// RequiresRegAssign reports that this control-flow phase runs on any
// register form.
func (UselessJumpRemoval) RequiresRegAssign() bool { return false }

// Apply runs the phase.
func (UselessJumpRemoval) Apply(f *rtl.Func, _ *machine.Desc) bool {
	changed := false
	for i := 0; i+1 < len(f.Blocks); i++ {
		b := f.Blocks[i]
		last := b.Last()
		if last == nil {
			continue
		}
		if (last.Op == rtl.OpJmp || last.Op == rtl.OpBranch) &&
			last.Target == f.Blocks[i+1].ID {
			// A conditional branch to the fall-through block transfers
			// to the same place whether taken or not.
			b.Remove(len(b.Instrs) - 1)
			changed = true
		}
	}
	return changed
}

// ReverseBranches is phase r: it removes an unconditional jump by
// reversing a conditional branch that branches over the jump.
type ReverseBranches struct{}

// ID returns the paper's designation for the phase.
func (ReverseBranches) ID() byte { return 'r' }

// Name returns the paper's name for the phase.
func (ReverseBranches) Name() string { return "reverse branches" }

// RequiresRegAssign reports that this control-flow phase runs on any
// register form.
func (ReverseBranches) RequiresRegAssign() bool { return false }

// Apply runs the phase.
func (ReverseBranches) Apply(f *rtl.Func, _ *machine.Desc) bool {
	changed := false
	for reverseOnce(f) {
		changed = true
	}
	return changed
}

// reverseOnce performs one scan, reversing every matching branch; it
// reports whether anything changed so Apply can iterate to a fixpoint.
func reverseOnce(f *rtl.Func) bool {
	changed := false
	for i := 0; i+2 < len(f.Blocks); i++ {
		a := f.Blocks[i]
		jb := f.Blocks[i+1]
		after := f.Blocks[i+2]
		last := a.Last()
		if last == nil || last.Op != rtl.OpBranch {
			continue
		}
		// Pattern: A ends with a branch over block JB (a lone jump)
		// to the block right after JB.
		if last.Target != after.ID {
			continue
		}
		if len(jb.Instrs) != 1 || jb.Instrs[0].Op != rtl.OpJmp {
			continue
		}
		// JB must be reached only by falling out of A.
		g := rtl.ComputeCFG(f)
		if preds := g.Preds[i+1]; len(preds) != 1 || preds[0] != i {
			continue
		}
		last.Rel = last.Rel.Negate()
		last.Target = jb.Instrs[0].Target
		f.RemoveBlockAt(i + 1)
		changed = true
	}
	return changed
}

// BlockReordering is phase i: it removes a jump by moving the jump's
// target block to follow the jump when the target has only a single
// predecessor.
type BlockReordering struct{}

// ID returns the paper's designation for the phase.
func (BlockReordering) ID() byte { return 'i' }

// Name returns the paper's name for the phase.
func (BlockReordering) Name() string { return "block reordering" }

// RequiresRegAssign reports that this control-flow phase runs on any
// register form.
func (BlockReordering) RequiresRegAssign() bool { return false }

// Apply runs the phase.
func (BlockReordering) Apply(f *rtl.Func, _ *machine.Desc) bool {
	changed := false
	for again := true; again; {
		again = false
		g := rtl.CFGOf(f)
		for i, a := range f.Blocks {
			last := a.Last()
			if last == nil || last.Op != rtl.OpJmp {
				continue
			}
			ti := g.MustPos(last.Target)
			if ti == 0 || ti == i+1 || ti == i {
				continue
			}
			t := f.Blocks[ti]
			if len(g.Preds[ti]) != 1 {
				continue
			}
			// The moved block must not rely on its own fall-through:
			// after Cleanup a single-pred fall-through successor would
			// have been merged, so requiring an explicit jump or
			// return keeps the move safe.
			tl := t.Last()
			if tl == nil || (tl.Op != rtl.OpJmp && tl.Op != rtl.OpRet) {
				continue
			}
			a.Remove(len(a.Instrs) - 1) // drop the jump
			f.RemoveBlockAt(ti)
			// Recompute a's position: removing ti may have shifted it.
			ai := f.BlockIndex(a.ID)
			f.InsertBlockAfter(ai, t)
			changed, again = true, true
			break
		}
	}
	return changed
}

// MinimizeLoopJumps is phase j: it removes a jump associated with a
// loop by duplicating a portion of the loop — the header's test is
// copied to the loop's bottom so the back edge becomes a conditional
// branch (loop inversion/rotation).
type MinimizeLoopJumps struct{}

// ID returns the paper's designation for the phase.
func (MinimizeLoopJumps) ID() byte { return 'j' }

// Name returns the paper's name for the phase.
func (MinimizeLoopJumps) Name() string { return "minimize loop jumps" }

// RequiresRegAssign reports that this control-flow phase runs on any
// register form.
func (MinimizeLoopJumps) RequiresRegAssign() bool { return false }

// Apply runs the phase.
func (MinimizeLoopJumps) Apply(f *rtl.Func, _ *machine.Desc) bool {
	changed := false
	for again := true; again; {
		again = false
		g := rtl.CFGOf(f)
		for _, l := range g.FindLoops() {
			if rotateLoop(f, g, l) {
				changed, again = true, true
				break
			}
		}
	}
	return changed
}

// rotateLoop applies loop inversion to one loop when it has the
// top-test/bottom-jump shape. It returns whether it transformed.
func rotateLoop(f *rtl.Func, g *rtl.CFG, l *rtl.Loop) bool {
	h := f.Blocks[l.Header]
	hl := h.Last()
	// Header must end in a conditional branch exiting the loop, with
	// the fall-through staying inside.
	if hl == nil || hl.Op != rtl.OpBranch {
		return false
	}
	exitID := hl.Target
	exitPos, ok := g.Pos(exitID)
	if !ok || l.Contains(exitPos) {
		return false
	}
	if l.Header+1 >= len(f.Blocks) {
		return false
	}
	bodyPos := l.Header + 1
	if !l.Contains(bodyPos) {
		return false
	}
	bodyID := f.Blocks[bodyPos].ID
	for _, tpos := range l.Tails {
		t := f.Blocks[tpos]
		tl := t.Last()
		if tl == nil || tl.Op != rtl.OpJmp || tl.Target != h.ID {
			continue
		}
		if t == h {
			continue
		}
		// Replace the back jump with a copy of the header's test,
		// branching back into the body while the loop continues.
		t.Remove(len(t.Instrs) - 1)
		for _, in := range h.Instrs[:len(h.Instrs)-1] {
			t.Instrs = append(t.Instrs, in)
		}
		t.Instrs = append(t.Instrs, rtl.NewBranch(hl.Rel.Negate(), bodyID))
		// Falling out of the duplicated test must reach the loop exit.
		ti := f.BlockIndex(t.ID)
		if ti+1 >= len(f.Blocks) || f.Blocks[ti+1].ID != exitID {
			nb := f.NewDetachedBlock()
			nb.Instrs = append(nb.Instrs, rtl.NewJmp(exitID))
			f.InsertBlockAfter(ti, nb)
		}
		return true
	}
	return false
}
