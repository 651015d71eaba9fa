package opt

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mibench"
	"repro/internal/rtl"
)

// refReorderBlock is phase o's block scheduler as it was before it
// became quadratic: it rebuilds each instruction's defs and uses for
// every pair, releases dependents by rescanning every dependence list
// and counts an operand's remaining readers by scanning the block. It
// commits and reports true only when the maximum number of simultaneously live
// registers strictly decreases.
func refReorderBlock(b *rtl.Block, liveOut rtl.RegSet) bool {
	n := len(b.Instrs)
	if n < 3 {
		return false
	}

	// Dependence edges: j depends on i (i must stay before j) for
	// def-use, use-def (anti) and def-def (output) pairs, for memory
	// ordering, and to keep control transfers and the IC chain fixed.
	deps := make([][]int, n) // deps[j] = list of i that must precede j
	nsuccs := make([]int, n) // number of dependents
	indeg := make([]int, n)  // unsatisfied dependencies
	var bufD, bufU [8]rtl.Reg
	addDep := func(i, j int) {
		for _, e := range deps[j] {
			if e == i {
				return
			}
		}
		deps[j] = append(deps[j], i)
		nsuccs[i]++
		indeg[j]++
	}
	isMem := func(in *rtl.Instr) bool {
		return in.Op == rtl.OpLoad || in.Op == rtl.OpStore || in.Op == rtl.OpCall
	}
	isBarrier := func(in *rtl.Instr) bool {
		return in.Op == rtl.OpStore || in.Op == rtl.OpCall
	}
	for j := 0; j < n; j++ {
		jn := &b.Instrs[j]
		for i := 0; i < j; i++ {
			in := &b.Instrs[i]
			link := false
			for _, d := range in.Defs(bufD[:0]) {
				if jn.UsesReg(d) || jn.DefsReg(d) {
					link = true
				}
			}
			if !link {
				for _, u := range in.Uses(bufU[:0]) {
					if jn.DefsReg(u) {
						link = true
					}
				}
			}
			if !link && isMem(jn) && isMem(in) && (isBarrier(in) || isBarrier(jn)) {
				link = true
			}
			if !link && jn.Op.IsControl() {
				link = true // control stays last
			}
			if link {
				addDep(i, j)
			}
		}
	}

	pressureOf := func(order []int) int {
		// Forward simulation of live value count: a register becomes
		// live at its def and dies at its last use in the order (or
		// stays live if in liveOut).
		lastUse := make(map[rtl.Reg]int)
		for pos, idx := range order {
			in := &b.Instrs[idx]
			for _, u := range in.Uses(bufU[:0]) {
				lastUse[u] = pos
			}
		}
		live := make(map[rtl.Reg]bool)
		// Values defined before the block and used inside start live.
		defined := make(map[rtl.Reg]bool)
		for _, idx := range order {
			in := &b.Instrs[idx]
			for _, u := range in.Uses(bufU[:0]) {
				if !defined[u] {
					live[u] = true
				}
			}
			for _, d := range in.Defs(bufD[:0]) {
				defined[d] = true
			}
		}
		max := len(live)
		for pos, idx := range order {
			in := &b.Instrs[idx]
			for _, d := range in.Defs(bufD[:0]) {
				live[d] = true
			}
			if len(live) > max {
				max = len(live)
			}
			for _, u := range in.Uses(bufU[:0]) {
				if lastUse[u] == pos && !liveOut.Has(u) {
					delete(live, u)
				}
			}
			for _, d := range in.Defs(bufD[:0]) {
				// A value with no use after this point and not live out
				// of the block dies immediately.
				if lu, ok := lastUse[d]; (!ok || lu <= pos) && !liveOut.Has(d) {
					delete(live, d)
				}
			}
		}
		return max
	}

	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	basePressure := pressureOf(identity)

	// Greedy list scheduling: among ready instructions prefer the one
	// that kills the most operands, then the one defining the fewest
	// new values, then original order.
	order := make([]int, 0, n)
	done := make([]bool, n)
	remaining := n
	indegWork := append([]int(nil), indeg...)
	for remaining > 0 {
		best, bestKill := -1, -1
		for j := 0; j < n; j++ {
			if done[j] || indegWork[j] != 0 {
				continue
			}
			in := &b.Instrs[j]
			kills := 0
			for _, u := range in.Uses(bufU[:0]) {
				// An operand is killed if no other unscheduled
				// instruction uses it.
				needed := false
				for k := 0; k < n; k++ {
					if k == j || done[k] {
						continue
					}
					if b.Instrs[k].UsesReg(u) {
						needed = true
						break
					}
				}
				if !needed && !liveOut.Has(u) {
					kills++
				}
			}
			if kills > bestKill {
				best, bestKill = j, kills
			}
		}
		order = append(order, best)
		done[best] = true
		remaining--
		for j := 0; j < n; j++ {
			if done[j] {
				continue
			}
			for _, e := range deps[j] {
				if e == best {
					indegWork[j]--
				}
			}
		}
	}

	same := true
	for i, idx := range order {
		if idx != i {
			same = false
			break
		}
	}
	if same {
		return false
	}
	if pressureOf(order) >= basePressure {
		return false
	}
	newInstrs := make([]rtl.Instr, n)
	for pos, idx := range order {
		newInstrs[pos] = b.Instrs[idx]
	}
	b.Instrs = newInstrs
	return true
}

// refEvalOrder is phase o over refReorderBlock.
func refEvalOrder(f *rtl.Func) bool {
	if f.RegAssigned {
		return false
	}
	changed := false
	lv := rtl.ComputeCFG(f).Liveness()
	for bpos, b := range f.Blocks {
		if refReorderBlock(b, lv.Out[bpos]) {
			changed = true
		}
	}
	return changed
}

// checkPhaseO schedules every block of f, register-assigned or not, by
// reorderBlock and by refReorderBlock, and requires the same verdict and
// the same order.
func checkPhaseO(t *testing.T, what string, f *rtl.Func, _ *machine.Desc) {
	t.Helper()
	lv := rtl.ComputeCFG(f).Liveness()
	s := orderScratch{}
	for bpos, b := range f.Blocks {
		want, got := b.Clone(), b.Clone()
		wantOK, gotOK := refReorderBlock(want, lv.Out[bpos]), s.reorderBlock(got, lv.Out[bpos])
		if wantOK != gotOK || !slices.Equal(want.Instrs, got.Instrs) {
			t.Fatalf("%s: block L%d: reorderBlock %v, reference %v\n got %s\nwant %s", what, b.ID, gotOK, wantOK,
				blockText(f, got), blockText(f, want))
		}
	}
}

func blockText(f *rtl.Func, b *rtl.Block) string {
	var sb strings.Builder
	for i := range b.Instrs {
		sb.WriteString(f.InstrString(&b.Instrs[i]))
	}
	return sb.String()
}

func TestPhaseOMatchesReference(t *testing.T) {
	walkCorpus(t, checkPhaseO)
}

// BenchmarkPhaseO times phase o, and its reference, on the roots of
// the functions whose blocks are longest.
func BenchmarkPhaseO(b *testing.B) {
	fns, err := mibench.AllFunctions()
	if err != nil {
		b.Fatal(err)
	}
	for _, tf := range fns {
		switch tf.Func.Name {
		case "fdct_pass", "sha_init", "ntbl_bitcount":
		default:
			continue
		}
		root := tf.Func.Clone()
		rtl.Cleanup(root)
		for _, impl := range []struct {
			name  string
			apply func(*rtl.Func) bool
		}{
			{"quadratic", func(f *rtl.Func) bool { return EvalOrderDetermination{}.Apply(f, nil) }},
			{"reference", refEvalOrder},
		} {
			b.Run(tf.Func.Name+"/"+impl.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					impl.apply(root.Clone())
				}
			})
		}
	}
}
