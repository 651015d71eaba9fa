package opt

import (
	"repro/internal/machine"
	"repro/internal/rtl"
)

// BranchChaining is phase b: it replaces a branch or jump target with
// the target of the last jump in the jump chain. Unreachable code left
// behind by the retargeting is removed as part of the phase itself —
// the paper notes VPO does the same because such code hinders later
// analysis (Section 5.1) — which is why phase d is rarely active.
type BranchChaining struct{}

// ID returns the paper's designation for the phase.
func (BranchChaining) ID() byte { return 'b' }

// Name returns the paper's name for the phase.
func (BranchChaining) Name() string { return "branch chaining" }

// RequiresRegAssign reports that this control-flow phase runs on any
// register form.
func (BranchChaining) RequiresRegAssign() bool { return false }

// Apply runs the phase.
func (BranchChaining) Apply(f *rtl.Func, _ *machine.Desc) bool {
	// finalTarget follows a chain of jump-only blocks to its end,
	// guarding against cycles (an empty infinite loop).
	finalTarget := func(id int) int {
		seen := map[int]bool{}
		for {
			if seen[id] {
				return id
			}
			seen[id] = true
			b := f.BlockByID(id)
			if b == nil || len(b.Instrs) != 1 || b.Instrs[0].Op != rtl.OpJmp {
				return id
			}
			next := b.Instrs[0].Target
			if next == id {
				return id
			}
			id = next
		}
	}
	changed := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != rtl.OpBranch && in.Op != rtl.OpJmp {
				continue
			}
			if t := finalTarget(in.Target); t != in.Target {
				in.Target = t
				changed = true
			}
		}
	}
	if changed {
		f.DropAnalyses() // retargeted before the first look
		removeUnreachableBlocks(f)
	}
	return changed
}

// RemoveUnreachable is phase d: it removes basic blocks that cannot be
// reached from the function entry block.
type RemoveUnreachable struct{}

// ID returns the paper's designation for the phase.
func (RemoveUnreachable) ID() byte { return 'd' }

// Name returns the paper's name for the phase.
func (RemoveUnreachable) Name() string { return "remove unreachable code" }

// RequiresRegAssign reports that this control-flow phase runs on any
// register form.
func (RemoveUnreachable) RequiresRegAssign() bool { return false }

// Apply runs the phase.
func (RemoveUnreachable) Apply(f *rtl.Func, _ *machine.Desc) bool {
	return removeUnreachableBlocks(f)
}

func removeUnreachableBlocks(f *rtl.Func) bool {
	reach := rtl.CFGOf(f).Reachable()
	changed := false
	for i := len(f.Blocks) - 1; i >= 0; i-- {
		if !reach[i] {
			f.RemoveBlockAt(i)
			changed = true
		}
	}
	if changed {
		// Removing a block may strand a predecessor's fall-through;
		// the function stays valid because only unreachable blocks
		// went away, but trailing structure may need normalizing.
		rtl.Cleanup(f)
	}
	return changed
}
