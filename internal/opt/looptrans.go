package opt

import (
	"slices"

	"repro/internal/machine"
	"repro/internal/rtl"
)

// LoopTransformations is phase l: loop-invariant code motion, loop
// strength reduction and induction-variable simplification, applied to
// each loop ordered by loop nesting level (innermost first), as in
// Table 1. Like VPO, the phase requires values in registers, so it is
// gated to run after register allocation (k).
//
// Recurrence elimination, the fourth sub-transformation of VPO's l, is
// not implemented; DESIGN.md records the substitution.
type LoopTransformations struct{}

// ID returns the paper's designation for the phase.
func (LoopTransformations) ID() byte { return 'l' }

// Name returns the paper's name for the phase.
func (LoopTransformations) Name() string { return "loop transformations" }

// RequiresRegAssign reports that this dataflow phase runs after the
// compulsory register assignment.
func (LoopTransformations) RequiresRegAssign() bool { return true }

// Apply runs the phase. Each round looks at the function through one
// graph: its loops, dominators and liveness hold for every loop of the
// round, because the first change ends it. The graph — normally the one
// borrowed from the instance's snapshot, liveness included — outlives
// the round unless a preheader went in: moving an instruction changes
// no edge, so the next round only solves liveness again, in pooled
// storage.
func (LoopTransformations) Apply(f *rtl.Func, d *machine.Desc) bool {
	var info loopInfo
	ls := rtl.NewLiveSolver()
	defer ls.Release()
	g := rtl.CFGOf(f)
	changed := false
	for again := true; again; {
		again = false
		loops := g.FindLoops()
		if len(loops) == 0 {
			break
		}
		var lv *rtl.Liveness
		if changed {
			lv = ls.Solve(g)
		} else {
			lv = g.Liveness()
		}
		blocks := len(f.Blocks)
		for _, l := range loops {
			info.analyze(f, l)
			if hoistInvariants(f, g, l, &info, lv) || reduceInductionVariables(f, g, l, &info, d) {
				again = true
				break
			}
		}
		if again {
			changed = true
			if len(f.Blocks) != blocks {
				g = rtl.ComputeCFG(f)
			}
		}
	}
	return changed
}

// loopInfo gathers the per-loop facts both sub-transformations use,
// once per loop per graph, with no map: l runs after register
// assignment, so defs counts by hardware register number.
type loopInfo struct {
	defs    [rtl.FirstPseudo]int32 // by register: its definitions inside the loop
	hasCall bool
	memPure bool // no stores or calls in the loop
}

func (info *loopInfo) analyze(f *rtl.Func, l *rtl.Loop) {
	*info = loopInfo{memPure: true}
	var buf [8]rtl.Reg
	for bpos, b := range f.Blocks {
		if !l.Contains(bpos) {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range in.Defs(buf[:0]) {
				info.defs[r]++
			}
			switch in.Op {
			case rtl.OpCall:
				info.hasCall = true
				info.memPure = false
			case rtl.OpStore:
				info.memPure = false
			}
		}
	}
}

// ensurePreheader returns the layout position of a block that is the
// unique loop-external predecessor of the header, creating one when
// needed. Creating a preheader restructures the function, so callers
// must recompute the CFG afterwards; the returned bool reports whether
// a block was created.
func ensurePreheader(f *rtl.Func, g *rtl.CFG, l *rtl.Loop) (int, bool, bool) {
	h := l.Header
	var outside []int
	for _, p := range g.Preds[h] {
		if !l.Contains(p) {
			outside = append(outside, p)
		}
	}
	if len(outside) == 1 {
		p := outside[0]
		// Usable directly only when the header is its sole successor.
		if len(g.Succs[p]) == 1 {
			return p, false, true
		}
	}
	// An in-loop predecessor that falls through into the header would
	// start flowing through the new preheader; creating one here would
	// re-execute hoisted code every iteration, so bail out.
	if h > 0 && l.Contains(h-1) {
		for _, p := range g.Preds[h] {
			if p == h-1 && g.FallsThrough(h-1) {
				return 0, false, false
			}
		}
	}
	headID := f.Blocks[h].ID
	nb := f.NewDetachedBlock()
	// Explicit branches from outside the loop are retargeted to the
	// preheader; an outside predecessor that fell through now falls
	// into the preheader, which falls into the header.
	for _, p := range outside {
		b := f.Blocks[p]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if (in.Op == rtl.OpBranch || in.Op == rtl.OpJmp) && in.Target == headID {
				in.Target = nb.ID
			}
		}
	}
	if h == 0 {
		// The function entry is the loop header; the preheader becomes
		// the new entry.
		f.Blocks = append([]*rtl.Block{nb}, f.Blocks...)
		return 0, true, true
	}
	f.InsertBlockAfter(h-1, nb)
	return h, true, true
}

// hoistInvariants performs loop-invariant code motion for one loop.
func hoistInvariants(f *rtl.Func, g *rtl.CFG, l *rtl.Loop, info *loopInfo, lv *rtl.Liveness) bool {
	exits := l.Exits(g)

	// An instruction is loop-invariant when it is pure, its register
	// operands are not defined inside the loop, its destination is
	// defined exactly once in the loop, and the destination is not
	// live on entry to the header (so no use precedes the def).
	invariant := func(bpos, i int) bool {
		in := &f.Blocks[bpos].Instrs[i]
		mustDominateExits := false
		switch in.Op {
		case rtl.OpMov, rtl.OpMovHi, rtl.OpAddLo, rtl.OpNeg, rtl.OpNot:
		case rtl.OpLoad:
			if !info.memPure {
				return false
			}
		case rtl.OpDiv, rtl.OpRem:
			// Division can fault; it may only be hoisted when the
			// original instruction executes on every loop entry.
			mustDominateExits = true
		default:
			if !in.Op.IsALU() {
				return false
			}
		}
		if in.Dst == rtl.RegNone || in.Dst == rtl.RegSP {
			return false
		}
		var buf [8]rtl.Reg
		for _, u := range in.Uses(buf[:0]) {
			if u == rtl.RegSP {
				continue // the stack pointer is fixed in a function
			}
			if info.defs[u] != 0 {
				return false
			}
		}
		if info.defs[in.Dst] != 1 {
			return false
		}
		if lv.In[l.Header].Has(in.Dst) {
			return false
		}
		// In a loop containing calls, a caller-save destination is
		// re-established each iteration after the call; hoisting it
		// out would leave a clobbered value.
		if info.hasCall && in.Dst.IsHard() && !in.Dst.IsCalleeSave() {
			return false
		}
		// Safety on early exits: either the definition dominates every
		// exit, or the destination is dead at every exit.
		for _, e := range exits {
			if g.Dominates(bpos, e) {
				continue
			}
			if mustDominateExits {
				return false
			}
			if lv.Out[e].Has(in.Dst) {
				// Check liveness on the exit edges leaving the loop.
				liveOutside := false
				for _, s := range g.Succs[e] {
					if !l.Contains(s) && lv.In[s].Has(in.Dst) {
						liveOutside = true
					}
				}
				if liveOutside {
					return false
				}
			}
		}
		return true
	}

	// renameHoistable identifies computations whose operands are
	// invariant but whose destination register is reused elsewhere in
	// the loop (a false dependence introduced by register assignment):
	// the computation moves to the preheader under a fresh register
	// and the original definition becomes a move. VPO's code motion
	// does the same renaming, and the residual moves are what make l
	// enable instruction selection so often (Table 4).
	renameHoistable := func(bpos, i int) bool {
		in := &f.Blocks[bpos].Instrs[i]
		switch in.Op {
		case rtl.OpMovHi, rtl.OpAddLo, rtl.OpNeg, rtl.OpNot:
		case rtl.OpMov:
			// Never rename-hoist moves: a register move gains nothing,
			// and a constant move would oscillate with constant
			// propagation, which rewrites the residual copy back into
			// an in-loop constant move that looks hoistable again.
			return false
		case rtl.OpLoad:
			if !info.memPure {
				return false
			}
		case rtl.OpDiv, rtl.OpRem:
			// Hoisting always executes the division; a conditionally
			// executed one could fault where the original would not.
			for _, e := range exits {
				if !g.Dominates(bpos, e) {
					return false
				}
			}
		default:
			if !in.Op.IsALU() {
				return false
			}
		}
		if in.Dst == rtl.RegNone || in.Dst == rtl.RegSP {
			return false
		}
		var buf [8]rtl.Reg
		for _, u := range in.Uses(buf[:0]) {
			if u == rtl.RegSP {
				continue
			}
			if info.defs[u] != 0 {
				return false
			}
		}
		return true
	}

	// Find the first hoistable instruction: prefer moving the whole
	// instruction; fall back to rename-hoisting.
	for pass := 0; pass < 2; pass++ {
		for bpos, b := range f.Blocks {
			if !l.Contains(bpos) {
				continue
			}
			for i := 0; i < len(b.Instrs); i++ {
				if pass == 0 {
					if !invariant(bpos, i) {
						continue
					}
					in := b.Instrs[i]
					ph, created, ok := ensurePreheader(f, g, l)
					if !ok {
						return false
					}
					if created {
						// Layout changed: relocate the source block by ID.
						b = f.Blocks[f.BlockIndex(b.ID)]
					}
					b.Remove(i)
					pb := f.Blocks[ph]
					at := len(pb.Instrs)
					if pb.EndsInControl() {
						at--
					}
					pb.Insert(at, in)
					return true
				}
				if invariant(bpos, i) || !renameHoistable(bpos, i) {
					continue
				}
				t := freeRegister(f)
				if t == rtl.RegNone {
					return false
				}
				in := b.Instrs[i]
				ph, created, ok := ensurePreheader(f, g, l)
				if !ok {
					return false
				}
				if created {
					b = f.Blocks[f.BlockIndex(b.ID)]
				}
				hoisted := in
				hoisted.Dst = t
				b.Instrs[i] = rtl.NewMov(in.Dst, rtl.R(t))
				pb := f.Blocks[ph]
				at := len(pb.Instrs)
				if pb.EndsInControl() {
					at--
				}
				pb.Insert(at, hoisted)
				return true
			}
		}
	}
	return false
}

// reduceInductionVariables strength-reduces derived induction
// variables: inside a loop with a basic induction variable i
// (single definition i = i + #c), a derived variable j = i << #k or
// j = i * #k is replaced by j = t, where t is a new accumulator
// initialized in the preheader and incremented alongside i.
func reduceInductionVariables(f *rtl.Func, g *rtl.CFG, l *rtl.Loop, info *loopInfo, d *machine.Desc) bool {
	// Basic induction variables: regs with exactly one in-loop def of
	// the form r = r + #c (or r - #c).
	type basicIV struct {
		reg       rtl.Reg
		bpos, idx int
		step      int32
	}
	var ivs []basicIV
	for bpos, b := range f.Blocks {
		if !l.Contains(bpos) {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst == rtl.RegNone || info.defs[in.Dst] != 1 {
				continue
			}
			if (in.Op == rtl.OpAdd || in.Op == rtl.OpSub) &&
				in.A.IsReg(in.Dst) && in.B.Kind == rtl.OperImm {
				step := in.B.Imm
				if in.Op == rtl.OpSub {
					step = -step
				}
				ivs = append(ivs, basicIV{reg: in.Dst, bpos: bpos, idx: i, step: step})
			}
		}
	}
	if len(ivs) == 0 {
		return false
	}

	// Derived variable: single def j = i << #k or j = i * #k with
	// i a basic IV and j != i.
	for bpos, b := range f.Blocks {
		if !l.Contains(bpos) {
			continue
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst == rtl.RegNone || info.defs[in.Dst] != 1 {
				continue
			}
			if in.A.Kind != rtl.OperReg || in.B.Kind != rtl.OperImm {
				continue
			}
			k := slices.IndexFunc(ivs, func(iv basicIV) bool { return iv.reg == in.A.Reg })
			if k < 0 || in.Dst == in.A.Reg {
				continue
			}
			iv := ivs[k]
			var factor int32
			switch in.Op {
			case rtl.OpShl:
				factor = 1 << (uint32(in.B.Imm) & 31)
			case rtl.OpMul:
				factor = in.B.Imm
			default:
				continue
			}
			if !d.LegalImm(rtl.OpAdd, iv.step*factor) {
				continue
			}
			// A free register is needed for the accumulator.
			t := freeRegister(f)
			if t == rtl.RegNone {
				return false
			}
			// Block pointers are stable across the layout change a
			// preheader creation causes; capture everything needed
			// before restructuring.
			jb := b
			ivB := f.Blocks[iv.bpos]
			origShift := *in
			ph, _, ok := ensurePreheader(f, g, l)
			if !ok {
				return false
			}

			// Preheader: t = i * factor (as the original op form).
			pb := f.Blocks[ph]
			at := len(pb.Instrs)
			if pb.EndsInControl() {
				at--
			}
			init := origShift
			init.Dst = t
			pb.Insert(at, init)

			// After i's increment: t += step * factor.
			inc := rtl.NewALU(rtl.OpAdd, t, rtl.R(t), rtl.Imm(iv.step*factor))
			ivB.Insert(iv.idx+1, inc)

			// The derived def becomes a move from the accumulator.
			for k := range jb.Instrs {
				if jb.Instrs[k] == origShift {
					jb.Instrs[k] = rtl.NewMov(origShift.Dst, rtl.R(t))
					break
				}
			}
			return true
		}
	}
	return false
}

// freeRegister returns a callee-save hardware register not referenced
// anywhere in the function, or RegNone.
func freeRegister(f *rtl.Func) rtl.Reg {
	used := f.UsedRegs()
	for r := rtl.RegR11; r >= rtl.RegR4; r-- {
		if !used.Has(r) {
			return r
		}
	}
	return rtl.RegNone
}
