package rtl

import "math/bits"

// RegSet is a dense bitset over register numbers, used by the dataflow
// analyses. The zero value is empty but has no capacity; create sets
// with NewRegSet.
type RegSet struct {
	words []uint64
}

// NewRegSet returns an empty set able to hold registers [0, n).
func NewRegSet(n int) RegSet {
	return RegSet{words: make([]uint64, (n+63)/64)}
}

// Add inserts register r, growing the set if necessary.
func (s *RegSet) Add(r Reg) {
	w := int(r) / 64
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(r) % 64)
}

// Remove deletes register r.
func (s *RegSet) Remove(r Reg) {
	w := int(r) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(r) % 64)
	}
}

// Has reports whether the set contains register r.
func (s *RegSet) Has(r Reg) bool {
	w := int(r) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(r)%64)) != 0
}

// UnionWith adds every element of t to s and reports whether s changed.
func (s *RegSet) UnionWith(t RegSet) bool {
	for len(s.words) < len(t.words) {
		s.words = append(s.words, 0)
	}
	changed := false
	for i, w := range t.words {
		if nw := s.words[i] | w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// IntersectWith removes from s every element absent from t and reports
// whether s changed. It is the meet operator of the forward
// must-be-assigned analysis in internal/check.
func (s *RegSet) IntersectWith(t RegSet) bool {
	changed := false
	for i := range s.words {
		var w uint64
		if i < len(t.words) {
			w = t.words[i]
		}
		if nw := s.words[i] & w; nw != s.words[i] {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// Fill adds every register in [0, n) to the set.
func (s *RegSet) Fill(n int) {
	for r := 0; r < n; r++ {
		s.Add(Reg(r))
	}
}

// Copy returns an independent copy of the set.
func (s RegSet) Copy() RegSet {
	return RegSet{words: append([]uint64(nil), s.words...)}
}

// Clear empties the set in place.
func (s *RegSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Equal reports whether s and t contain the same registers,
// regardless of capacity.
func (s RegSet) Equal(t RegSet) bool {
	a, b := s.words, t.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i, w := range b {
		if a[i] != w {
			return false
		}
	}
	for _, w := range a[len(b):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of elements.
func (s RegSet) Len() int {
	n := 0
	for _, w := range s.words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// ForEach invokes fn for every register in the set, in increasing
// order.
func (s RegSet) ForEach(fn func(Reg)) {
	for i, w := range s.words {
		for w != 0 {
			r := Reg(i*64 + bits.TrailingZeros64(w))
			fn(r)
			w &= w - 1
		}
	}
}

// Liveness holds per-block live-in/live-out register sets, indexed by
// layout position.
type Liveness struct {
	In  []RegSet
	Out []RegSet
}

// Liveness returns the live-variable sets of the function the graph
// was built from, as it stood at the first request — on a borrowed
// view (CFGOf) that is the parent instance the clone still equals. A
// caller that has rewritten instructions since uses ComputeLiveness.
func (g *CFG) Liveness() *Liveness {
	return g.live.get(func() *Liveness { return ComputeLiveness(&CFG{F: g.f, graph: g.graph}) })
}

// ComputeLiveness runs the standard backward iterative live-variable
// analysis over the CFG. At a return, r0 is live when the function
// yields a value (encoded by the Ret instruction's use of r0), and the
// callee-save registers plus SP are live so that no phase deletes the
// code that preserves them once register assignment has run.
func ComputeLiveness(g *CFG) *Liveness {
	f := g.F
	n := len(f.Blocks)
	maxReg := int(f.NextPseudo)
	// All per-block sets share one backing array, and the four header
	// slices share another: liveness runs inside nearly every phase
	// attempt of the exhaustive search, so the allocation count
	// matters.
	sets := make([]RegSet, 4*n)
	lv := &Liveness{In: sets[:n:n], Out: sets[n : 2*n : 2*n]}
	use := sets[2*n : 3*n : 3*n]
	def := sets[3*n:]
	words := (maxReg + 63) / 64
	if words == 0 {
		words = 1
	}
	backing := make([]uint64, (4*n+1)*words)
	slot := func(k int) RegSet { return RegSet{words: backing[k*words : (k+1)*words : (k+1)*words]} }
	var buf [8]Reg
	for i, b := range f.Blocks {
		use[i] = slot(4 * i)
		def[i] = slot(4*i + 1)
		lv.In[i] = slot(4*i + 2)
		lv.Out[i] = slot(4*i + 3)
		for j := range b.Instrs {
			in := &b.Instrs[j]
			for _, r := range in.Uses(buf[:0]) {
				if !def[i].Has(r) {
					use[i].Add(r)
				}
			}
			for _, r := range in.Defs(buf[:0]) {
				def[i].Add(r)
			}
		}
	}
	// Registers live at function exit: only the stack pointer. The
	// callee-save convention is not modeled as exit liveness — the
	// compulsory entry/exit fixup that saves and restores used
	// callee-save registers runs after the last code-improving phase,
	// so during optimization those registers are ordinary storage.
	exitLive := RegSet{words: backing[4*n*words:]}
	exitLive.Add(RegSP)
	order := g.RPO()
	// One scratch set serves every in = use ∪ (out - def) evaluation;
	// copying out per block per fixpoint iteration dominated the
	// allocation profile of this analysis.
	var scratch RegSet
	for changed := true; changed; {
		changed = false
		for i := len(order) - 1; i >= 0; i-- {
			b := order[i]
			out := &lv.Out[b]
			if blk := f.Blocks[b]; blk.EndsInControl() && blk.Last().Op == OpRet {
				if out.UnionWith(exitLive) {
					changed = true
				}
			}
			for _, s := range g.Succs[b] {
				if out.UnionWith(lv.In[s]) {
					changed = true
				}
			}
			// in = use ∪ (out - def)
			newIn := &scratch
			newIn.words = append(newIn.words[:0], out.words...)
			def[b].ForEach(func(r Reg) { newIn.Remove(r) })
			newIn.UnionWith(use[b])
			if lv.In[b].UnionWith(*newIn) {
				changed = true
			}
		}
	}
	if Trace != nil {
		Trace(BuiltLiveness, g)
	}
	return lv
}

// LiveAtInstr returns the registers live immediately after instruction
// idx in the block at layout position bpos (i.e. between idx and
// idx+1). Computing this per query is quadratic but the functions in
// this study are small; phases that sweep a whole block use
// BlockLiveness instead.
func (lv *Liveness) LiveAtInstr(g *CFG, bpos, idx int) RegSet {
	steps := BlockLiveness(g, lv, bpos)
	return steps[idx+1]
}

// BlockLiveness returns, for the block at layout position bpos, the
// live register set at every instruction boundary: element i is the set
// live immediately before instruction i, and element len(Instrs) is the
// block's live-out set.
func BlockLiveness(g *CFG, lv *Liveness, bpos int) []RegSet {
	b := g.F.Blocks[bpos]
	n := len(b.Instrs)
	steps := make([]RegSet, n+1)
	cur := lv.Out[bpos].Copy()
	// All step snapshots share one backing array; every register that
	// can appear in an instruction is below the width of the liveness
	// sets, so the cursor never grows.
	words := len(cur.words)
	backing := make([]uint64, (n+1)*words)
	snap := func(i int) {
		slot := backing[i*words : (i+1)*words : (i+1)*words]
		copy(slot, cur.words)
		steps[i] = RegSet{words: slot}
	}
	snap(n)
	var buf [8]Reg
	for i := n - 1; i >= 0; i-- {
		in := &b.Instrs[i]
		for _, r := range in.Defs(buf[:0]) {
			cur.Remove(r)
		}
		for _, r := range in.Uses(buf[:0]) {
			cur.Add(r)
		}
		snap(i)
	}
	return steps
}
