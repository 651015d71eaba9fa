package opt

import (
	"repro/internal/machine"
	"repro/internal/rtl"
)

// LoopUnrolling is phase g: loop unrolling with a fixed unroll factor
// of two — the paper always uses factor two because the target is an
// embedded processor where code growth matters. Like VPO, it runs
// after register allocation.
//
// The recognized shape is a bottom-test single-block loop (the shape
// the minimize-loop-jumps phase produces): a block B ending in
//
//	...body...; IC = x ? y; PC = IC rel, B
//
// The body is duplicated into a new block B2 placed between B and the
// fall-through exit; B's back branch is redirected so two iterations
// run per taken branch:
//
//	B:  ...body...; IC = x ? y; PC = IC !rel, exit
//	B2: ...body...; IC = x ? y; PC = IC rel, B
//
// Each copy keeps its own exit test, so the transformation is valid
// for any trip count while halving the taken back branches.
type LoopUnrolling struct{}

// ID returns the paper's designation for the phase.
func (LoopUnrolling) ID() byte { return 'g' }

// Name returns the paper's name for the phase.
func (LoopUnrolling) Name() string { return "loop unrolling" }

// RequiresRegAssign reports that this phase runs after the compulsory
// register assignment.
func (LoopUnrolling) RequiresRegAssign() bool { return true }

// maxUnrollBody bounds the duplicated body size, mirroring an embedded
// compiler's code-growth budget.
const maxUnrollBody = 24

// Apply runs the phase.
func (LoopUnrolling) Apply(f *rtl.Func, _ *machine.Desc) bool {
	changed := false
	// Collect candidates first: unrolled copies must not themselves be
	// unrolled within this invocation.
	var candidates []int
	for i, b := range f.Blocks {
		if i == 0 {
			continue // entry block kept simple
		}
		last := b.Last()
		if last == nil || last.Op != rtl.OpBranch || int(last.Target) != b.ID {
			continue
		}
		if len(b.Instrs) < 2 || len(b.Instrs) > maxUnrollBody {
			continue
		}
		if b.Instrs[len(b.Instrs)-2].Op != rtl.OpCmp {
			continue
		}
		if i+1 >= len(f.Blocks) {
			continue
		}
		candidates = append(candidates, b.ID)
	}
	for _, id := range candidates {
		i := f.BlockIndex(id)
		b := f.Blocks[i]
		exitID := f.Blocks[i+1].ID

		b2 := f.NewDetachedBlock()
		b2.Instrs = append([]rtl.Instr(nil), b.Instrs...)

		last := b.Last()
		rel := last.Rel
		// First copy: exit early when the loop is done.
		last.Rel = rel.Negate()
		last.Target = int32(exitID)
		// Second copy: branch back to the top while iterating.
		b2.Last().Rel = rel
		b2.Last().Target = int32(b.ID)
		f.InsertBlockAfter(i, b2)
		changed = true
	}
	return changed
}
