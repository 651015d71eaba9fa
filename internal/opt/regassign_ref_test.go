package opt

// The compulsory register assignment's colouring as it stood before it
// numbered pseudo registers densely and kept its interference in a bit
// matrix (regassign.go), kept verbatim — identifiers that would collide
// with their replacements carry a ref prefix, nothing else changed — as
// the reference TestRegAssignMatchesReference holds the replacement to.
// The two share spillPseudo, which neither rewrote.

import (
	"fmt"

	"repro/internal/rtl"
)

// refRegAssign is RegAssign over the reference colouring.
func refRegAssign(f *rtl.Func) {
	if f.RegAssigned {
		return
	}
	for iter := 0; ; iter++ {
		if iter > 32 {
			panic(fmt.Sprintf("opt: register assignment failed to converge for %q", f.Name))
		}
		spilled, ok := refColorOnce(f)
		if ok {
			break
		}
		spillPseudo(f, spilled)
	}
	f.RegAssigned = true
	// No pseudo registers remain: reset the allocator so dataflow
	// states sized by NextPseudo stay small for the rest of the
	// function's (heavily re-analyzed) life.
	f.NextPseudo = rtl.FirstPseudo
}

// refColorOnce attempts one coloring of all pseudo registers. On failure
// it returns a pseudo register to spill.
func refColorOnce(f *rtl.Func) (spill rtl.Reg, ok bool) {
	pseudos := refCollectPseudos(f)
	if len(pseudos) == 0 {
		return 0, true
	}

	// Interference: def d at a point interferes with everything live
	// immediately after that point. A move's source is excluded so
	// copies may share a register.
	inter := make(map[rtl.Reg]map[rtl.Reg]bool, len(pseudos))
	addEdge := func(a, b rtl.Reg) {
		if a == b {
			return
		}
		for _, r := range [2]rtl.Reg{a, b} {
			if !r.IsPseudo() {
				continue
			}
			m := inter[r]
			if m == nil {
				m = make(map[rtl.Reg]bool)
				inter[r] = m
			}
			other := a
			if r == a {
				other = b
			}
			m[other] = true
		}
	}

	ls := rtl.NewLiveSolver()
	defer ls.Release()
	lv := ls.Solve(rtl.ComputeCFG(f))
	var buf [8]rtl.Reg
	var live rtl.RegSet
	for bpos, b := range f.Blocks {
		live.CopyFrom(lv.Out[bpos])
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			moveSrc := rtl.RegNone
			if in.Op == rtl.OpMov && in.A.Kind == rtl.OperReg {
				moveSrc = in.A.Reg
			}
			for _, d := range in.Defs(buf[:0]) {
				live.ForEach(func(l rtl.Reg) {
					if l != moveSrc {
						addEdge(d, l)
					}
				})
			}
			for _, d := range in.Defs(buf[:0]) {
				live.Remove(d)
			}
			for _, u := range in.Uses(buf[:0]) {
				live.Add(u)
			}
		}
	}

	// Forbidden hardware registers per pseudo, derived from edges to
	// precolored registers.
	forbidden := make(map[rtl.Reg]map[rtl.Reg]bool, len(pseudos))
	for _, p := range pseudos {
		forbidden[p] = make(map[rtl.Reg]bool)
		for n := range inter[p] {
			if n.IsHard() {
				forbidden[p][n] = true
			}
		}
	}
	degree := func(p rtl.Reg) int {
		d := len(forbidden[p])
		for n := range inter[p] {
			if n.IsPseudo() {
				d++
			}
		}
		return d
	}

	k := len(rtl.AllocatableHardRegs)
	// Simplify: push low-degree nodes; when stuck, push the
	// highest-degree node optimistically (it becomes the spill
	// candidate if select fails).
	remaining := append([]rtl.Reg(nil), pseudos...)
	removed := make(map[rtl.Reg]bool)
	var stack []rtl.Reg
	curDegree := func(p rtl.Reg) int {
		d := len(forbidden[p])
		for n := range inter[p] {
			if n.IsPseudo() && !removed[n] {
				d++
			}
		}
		return d
	}
	for len(stack) < len(pseudos) {
		picked := rtl.RegNone
		for _, p := range remaining {
			if removed[p] {
				continue
			}
			if curDegree(p) < k {
				picked = p
				break
			}
		}
		if picked == rtl.RegNone {
			// Optimistic push of the max-degree node.
			best, bestDeg := rtl.RegNone, -1
			for _, p := range remaining {
				if removed[p] {
					continue
				}
				if d := degree(p); d > bestDeg {
					best, bestDeg = p, d
				}
			}
			picked = best
		}
		removed[picked] = true
		stack = append(stack, picked)
	}

	// Select colors in reverse simplification order.
	color := make(map[rtl.Reg]rtl.Reg, len(pseudos))
	for i := len(stack) - 1; i >= 0; i-- {
		p := stack[i]
		used := make(map[rtl.Reg]bool)
		for hw := range forbidden[p] {
			used[hw] = true
		}
		for n := range inter[p] {
			if n.IsPseudo() {
				if c, ok := color[n]; ok {
					used[c] = true
				}
			}
		}
		assigned := rtl.RegNone
		for _, hw := range rtl.AllocatableHardRegs {
			if !used[hw] {
				assigned = hw
				break
			}
		}
		if assigned == rtl.RegNone {
			return p, false
		}
		color[p] = assigned
	}

	// Rewrite.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst.IsPseudo() {
				in.Dst = color[in.Dst]
			}
			if in.A.Kind == rtl.OperReg && in.A.Reg.IsPseudo() {
				in.A.Reg = color[in.A.Reg]
			}
			if in.B.Kind == rtl.OperReg && in.B.Reg.IsPseudo() {
				in.B.Reg = color[in.B.Reg]
			}
		}
	}
	return 0, true
}

// refCollectPseudos returns every pseudo register referenced by f in
// increasing numeric order, keeping the pass deterministic.
func refCollectPseudos(f *rtl.Func) []rtl.Reg {
	var out []rtl.Reg
	f.UsedRegs().ForEach(func(r rtl.Reg) {
		if r.IsPseudo() {
			out = append(out, r)
		}
	})
	return out
}
