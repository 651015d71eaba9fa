package randprog

import (
	"math/rand"
	"sort"

	"repro/internal/rtl"
)

// The rewrites below change how a function is written without changing
// what it computes: property tests apply them to compiled instances and
// assert that a key meant to be invariant under them does not move.

// ShuffleBlocks permutes every block but the entry and repairs
// fall-through semantics: a block whose fall-through successor moved
// away gets an explicit jump (or, after a conditional branch, a
// forwarder block). The result executes identically, which makes it
// the block-reordering leg of the equivalence-key property tests.
func ShuffleBlocks(f *rtl.Func, rng *rand.Rand) {
	if len(f.Blocks) <= 2 {
		return
	}
	fall := make(map[int]int) // block ID -> required fall-through block ID
	for i, b := range f.Blocks {
		if i+1 >= len(f.Blocks) {
			break
		}
		last := b.Last()
		if last == nil || !last.Op.IsControl() || last.Op == rtl.OpBranch {
			fall[b.ID] = f.Blocks[i+1].ID
		}
	}
	rest := f.Blocks[1:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	for i := 0; i < len(f.Blocks); i++ {
		b := f.Blocks[i]
		target, ok := fall[b.ID]
		if !ok {
			continue
		}
		if i+1 < len(f.Blocks) && f.Blocks[i+1].ID == target {
			continue
		}
		last := b.Last()
		if last != nil && last.Op == rtl.OpBranch {
			nb := &rtl.Block{ID: f.NextBlockID, Instrs: []rtl.Instr{rtl.NewJmp(target)}}
			f.NextBlockID++
			f.InsertBlockAfter(i, nb)
		} else {
			b.Instrs = append(b.Instrs, rtl.NewJmp(target))
		}
	}
}

// PermuteRegs applies a random bijection to the registers whose roles
// are not fixed by the calling convention: pseudo registers map to
// pseudo registers and allocatable callee-save hard registers to each
// other, so the result computes the same function.
func PermuteRegs(f *rtl.Func, rng *rand.Rand) {
	used := f.UsedRegs()
	var pseudos, saved []rtl.Reg
	used.ForEach(func(r rtl.Reg) {
		switch {
		case r.IsPseudo():
			pseudos = append(pseudos, r)
		case r.IsCalleeSave():
			saved = append(saved, r)
		}
	})
	perm := make(map[rtl.Reg]rtl.Reg)
	mix := func(regs []rtl.Reg, span int, base rtl.Reg) {
		sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
		// Map into a shuffled window of the same class, wider than the
		// inputs so names actually move.
		codes := rng.Perm(span)
		for i, r := range regs {
			perm[r] = base + rtl.Reg(codes[i])
		}
	}
	if len(pseudos) > 0 {
		mix(pseudos, len(pseudos)*2+4, rtl.FirstPseudo)
	}
	if len(saved) > 0 {
		mix(saved, 8, 4) // r4..r11
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if n, ok := perm[in.Dst]; ok {
				in.Dst = n
			}
			if in.A.Kind == rtl.OperReg {
				if n, ok := perm[in.A.Reg]; ok {
					in.A.Reg = n
				}
			}
			if in.B.Kind == rtl.OperReg {
				if n, ok := perm[in.B.Reg]; ok {
					in.B.Reg = n
				}
			}
		}
	}
	for r := range perm {
		if r.IsPseudo() {
			if f.NextPseudo <= perm[r] {
				f.NextPseudo = perm[r] + 1
			}
		}
	}
}
