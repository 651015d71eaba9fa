package rtl

// ReferenceLiveness is ComputeLiveness as it stood before liveness
// became a client of the dataflow kernel — its own round-robin sweep,
// its own per-solution arrays — kept, the body verbatim but for the
// trace event, as the reference TestLivenessMatchesReference holds the
// kernel's answers to.
var ReferenceLiveness = referenceLiveness

func referenceLiveness(g *CFG) *Liveness {
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
	return lv
}
