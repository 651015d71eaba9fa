package opt

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/rtl"
)

// RegAssign is the compulsory register assignment pass: it maps every
// pseudo register onto a hardware register by graph coloring, spilling
// to the stack frame when the function's pressure exceeds the register
// file. VPO performs it implicitly before the first code-improving
// phase in a sequence that requires it; it is not itself a candidate
// phase of the search.
func RegAssign(f *rtl.Func) {
	if f.RegAssigned {
		return
	}
	sc := colorScratchPool.Get().(*colorScratch)
	defer colorScratchPool.Put(sc)
	for iter := 0; ; iter++ {
		if iter > 32 {
			panic(fmt.Sprintf("opt: register assignment failed to converge for %q", f.Name))
		}
		spilled, ok := sc.colorOnce(f)
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

// colorScratch is the storage a colouring works in. Pseudo registers are
// the graph's nodes, numbered densely in increasing register order, and
// everything is indexed by node. Scratch is pooled; an assignment takes
// one for all its colourings.
type colorScratch struct {
	interference
	used    []uint64  // the registers the function references
	pseudos []rtl.Reg // by node: the pseudo register
	degree  []int32   // by node: its neighbours, hardware registers included
	cur     []int32   // by node: degree less the neighbours already simplified
	removed []bool    // by node: simplified
	stack   []int32
	color   []rtl.Reg // by node: its colour, or RegNone
}

var colorScratchPool = sync.Pool{New: func() any { return new(colorScratch) }}

// colorOnce attempts one coloring of all pseudo registers. On failure
// it returns a pseudo register to spill.
func (sc *colorScratch) colorOnce(f *rtl.Func) (spill rtl.Reg, ok bool) {
	np := sc.number(f)
	if np == 0 {
		return 0, true
	}
	sc.build(f)
	for p := range np {
		d := bits.OnesCount32(sc.forbidden[p])
		for _, w := range sc.row(p) {
			d += bits.OnesCount64(w)
		}
		sc.degree[p], sc.cur[p] = int32(d), int32(d)
	}

	k := int32(len(rtl.AllocatableHardRegs))
	// Simplify: push low-degree nodes; when stuck, push the
	// highest-degree node optimistically (it becomes the spill
	// candidate if select fails). Both scans go in node order, which
	// is register order.
	stack := sc.stack[:0]
	for len(stack) < np {
		picked := -1
		for p := range np {
			if !sc.removed[p] && sc.cur[p] < k {
				picked = p
				break
			}
		}
		if picked < 0 {
			// Optimistic push of the max-degree node.
			bestDeg := int32(-1)
			for p := range np {
				if !sc.removed[p] && sc.degree[p] > bestDeg {
					picked, bestDeg = p, sc.degree[p]
				}
			}
		}
		sc.removed[picked] = true
		stack = append(stack, int32(picked))
		rtl.SetOver[int](sc.row(picked)).ForEach(func(n int) { sc.cur[n]-- })
	}
	sc.stack = stack

	// Select colors in reverse simplification order.
	for i := len(stack) - 1; i >= 0; i-- {
		p := int(stack[i])
		c := sc.pick(p, sc.color, rtl.AllocatableHardRegs)
		if c == rtl.RegNone {
			return sc.pseudos[p], false
		}
		sc.color[p] = c
	}

	// Rewrite.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst.IsPseudo() {
				in.Dst = sc.colorOf(in.Dst)
			}
			if in.A.Kind == rtl.OperReg && in.A.Reg.IsPseudo() {
				in.A.Reg = sc.colorOf(in.A.Reg)
			}
			if in.B.Kind == rtl.OperReg && in.B.Reg.IsPseudo() {
				in.B.Reg = sc.colorOf(in.B.Reg)
			}
		}
	}
	return 0, true
}

// number makes the pseudo registers f references the graph's nodes, in
// increasing register order, sizes the scratch to them and returns how
// many there are.
func (sc *colorScratch) number(f *rtl.Func) int {
	sc.used = rtl.Resize(sc.used, max(1, (int(f.NextPseudo)+63)/64))
	clear(sc.used)
	used := rtl.SetOver[rtl.Reg](sc.used) // grows past NextPseudo only for a malformed f
	var buf [8]rtl.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range in.Defs(buf[:0]) {
				used.Add(r)
			}
			for _, r := range in.Uses(buf[:0]) {
				if r != rtl.RegNone {
					used.Add(r)
				}
			}
		}
	}
	sc.used = used.Words()
	width := len(sc.used) * 64
	sc.index = rtl.Resize(sc.index, width)
	sc.pseudos = sc.pseudos[:0]
	for r := range sc.index {
		sc.index[r] = -1
		if rtl.Reg(r).IsPseudo() && used.Has(rtl.Reg(r)) {
			sc.index[r] = int32(len(sc.pseudos))
			sc.pseudos = append(sc.pseudos, rtl.Reg(r))
		}
	}
	np := len(sc.pseudos)
	sc.reset(np)
	sc.degree = rtl.Resize(sc.degree, np)
	sc.cur = rtl.Resize(sc.cur, np)
	sc.removed = rtl.Resize(sc.removed, np)
	clear(sc.removed)
	sc.color = rtl.Resize(sc.color, np)
	for p := range sc.color {
		sc.color[p] = rtl.RegNone
	}
	return np
}

// colorOf returns the colour of the pseudo register r.
func (sc *colorScratch) colorOf(r rtl.Reg) rtl.Reg { return sc.color[sc.index[r]] }

// spillPseudo rewrites every definition and use of p through a fresh
// frame slot, splitting its live range into tiny per-access ranges.
func spillPseudo(f *rtl.Func, p rtl.Reg) {
	off := f.AddSlot(fmt.Sprintf(".spill%d", p), 4, false)
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := &b.Instrs[i]
			usesP := in.UsesReg(p)
			defsP := in.Dst == p
			if !usesP && !defsP {
				continue
			}
			if usesP {
				t := f.NewReg()
				in.RenameReg(p, t) // renames both use and def positions
				b.Insert(i, rtl.NewLoad(t, rtl.RegSP, off))
				i++
				if defsP {
					// Def position was renamed too; store the new value.
					b.Insert(i+1, rtl.NewStore(t, rtl.RegSP, off))
					i++
				}
				continue
			}
			// Pure definition.
			t := f.NewReg()
			in.Dst = t
			b.Insert(i+1, rtl.NewStore(t, rtl.RegSP, off))
			i++
		}
	}
}
