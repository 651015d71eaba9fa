package check

import "repro/internal/rtl"

// The verifier's three flow-sensitive rules are forward must-problems
// for rtl's dataflow kernel: a fact holds at a point when it holds on
// every path from the entry, unreachable blocks contribute nothing, and
// a reporting pass replays each block's transfer from its entry state.

// forwardMust solves one of them over the reachable blocks of g: states
// of the given width, intersection meet, the entry block starting from
// whatever boundary adds to the empty state. Block b's entry state is
// state b of the result.
func forwardMust(g *rtl.CFG, words int, boundary, transfer func(b int, s []uint64)) *rtl.Flow {
	n := len(g.Succs)
	fl := &rtl.Flow{
		Words:    words,
		State:    make([]uint64, (2*n+1)*words),
		Marks:    make([]bool, 2*n),
		Only:     g.Reachable(),
		Meet:     rtl.Intersect,
		Boundary: boundary,
		Transfer: transfer,
	}
	g.Solve(fl)
	return fl
}

// setReg adds r to the register mask s; a register beyond the mask (no
// well-formed function has one at or above NextPseudo) is left out.
func setReg(s []uint64, r rtl.Reg) {
	if int(r>>6) < len(s) {
		s[r>>6] |= 1 << (r & 63)
	}
}

// mustAssigned computes, for every reachable block, the registers that
// have been assigned on every path from function entry — the problem
// behind the use-before-definition rule. entry adds the registers
// defined at function entry (parameters, stack pointer, ...) to the
// boundary state; maxReg bounds the register universe.
func mustAssigned(g *rtl.CFG, entry func(b int, s []uint64), maxReg int) *rtl.Flow {
	w := max(1, (maxReg+63)/64)
	defs := make([]uint64, len(g.F.Blocks)*w)
	var buf [8]rtl.Reg
	for i, b := range g.F.Blocks {
		for j := range b.Instrs {
			for _, r := range b.Instrs[j].Defs(buf[:0]) {
				setReg(defs[i*w:(i+1)*w], r)
			}
		}
	}
	return forwardMust(g, w, entry, func(b int, s []uint64) {
		for i := range s {
			s[i] |= defs[b*w+i]
		}
	})
}

// condCodesValid computes, for every reachable block, whether the
// condition codes are valid on entry on every path: a one-bit state,
// invalid at function entry.
func condCodesValid(g *rtl.CFG) *rtl.Flow {
	return forwardMust(g, 1, nil, func(b int, s []uint64) {
		ic := s[0] != 0
		for j := range g.F.Blocks[b].Instrs {
			ic = transferOne(&g.F.Blocks[b].Instrs[j], ic)
		}
		s[0] = 0
		if ic {
			s[0] = 1
		}
	})
}

// availCopies is the available-copies analysis behind the
// redundant-move lint: after "r[a]=r[b];" the unordered pair (a, b)
// holds equal values until either register is redefined, and a pair is
// available at a point when that is so on every path from entry. The
// pairs the function's register-to-register moves can establish are
// numbered, one state bit each; kill[r] are the pairs a write to r
// ends.
type availCopies struct {
	fl   *rtl.Flow
	pair map[[2]rtl.Reg]int // (smaller, larger) -> its bit
	kill map[rtl.Reg][]uint64
}

func copyPair(a, b rtl.Reg) [2]rtl.Reg {
	if a > b {
		a, b = b, a
	}
	return [2]rtl.Reg{a, b}
}

// isCopy reports whether in establishes a pair.
func isCopy(in *rtl.Instr) bool {
	return in.Op == rtl.OpMov && in.A.Kind == rtl.OperReg && in.Dst != rtl.RegNone
}

func availableCopies(g *rtl.CFG) *availCopies {
	ac := &availCopies{pair: map[[2]rtl.Reg]int{}, kill: map[rtl.Reg][]uint64{}}
	for _, b := range g.F.Blocks {
		for j := range b.Instrs {
			if in := &b.Instrs[j]; isCopy(in) && in.Dst != in.A.Reg {
				if p := copyPair(in.Dst, in.A.Reg); ac.pair[p] == 0 {
					ac.pair[p] = len(ac.pair) + 1 // bit + 1: zero means unnumbered
				}
			}
		}
	}
	words := max(1, (len(ac.pair)+63)/64)
	for p, bit := range ac.pair {
		for _, r := range p {
			if ac.kill[r] == nil {
				ac.kill[r] = make([]uint64, words)
			}
			ac.kill[r][(bit-1)>>6] |= 1 << ((bit - 1) & 63)
		}
	}
	ac.fl = forwardMust(g, words, nil, func(b int, s []uint64) {
		for j := range g.F.Blocks[b].Instrs {
			ac.step(s, &g.F.Blocks[b].Instrs[j])
		}
	})
	return ac
}

// step updates the state s across one instruction.
func (ac *availCopies) step(s []uint64, in *rtl.Instr) {
	end := func(r rtl.Reg) {
		for i, m := range ac.kill[r] {
			s[i] &^= m
		}
	}
	if isCopy(in) {
		if in.Dst == in.A.Reg {
			return // self-move: no new information, no kill
		}
		end(in.Dst)
		bit := ac.pair[copyPair(in.Dst, in.A.Reg)] - 1
		s[bit>>6] |= 1 << (bit & 63)
		return
	}
	var buf [8]rtl.Reg
	for _, r := range in.Defs(buf[:0]) {
		end(r)
	}
}

// has reports whether the pair (a, b) is available in state s.
func (ac *availCopies) has(s []uint64, a, b rtl.Reg) bool {
	bit := ac.pair[copyPair(a, b)] - 1
	return bit >= 0 && s[bit>>6]>>(bit&63)&1 != 0
}
