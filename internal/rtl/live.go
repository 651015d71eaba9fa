package rtl

import "sync"

// Liveness holds per-block live-in/live-out register sets, indexed by
// layout position. The sets are views of one solution's states and must
// not be written to.
type Liveness struct {
	In  []RegSet
	Out []RegSet
}

// Liveness returns the live-variable sets of the function the graph
// was built from, as it stood at the first request — on a borrowed
// view (CFGOf) that is the parent instance the clone still equals. A
// caller that has rewritten instructions since re-solves over the same
// graph (LiveSolver), as long as it has changed no edge.
func (g *CFG) Liveness() *Liveness {
	return g.live.get(func() *Liveness { return ComputeLiveness(&CFG{F: g.f, graph: g.graph}) })
}

// ComputeLiveness solves live variables for g.F over g's edges into
// storage of the solution's own: what the graph memoizes for the life
// of its node, and what a caller that keeps the answer asks for. A
// phase that re-solves inside one application uses a LiveSolver.
func ComputeLiveness(g *CFG) *Liveness {
	ls := NewLiveSolver()
	defer ls.Release()
	n, w := len(g.F.Blocks), ls.scan(g.F)
	return ls.run(g, new(Liveness), make([]RegSet, 2*n), make([]uint64, (2*n+1)*w))
}

// LiveSolver is the liveness client of the dataflow kernel with its
// storage: the per-block use and def masks, the kernel's marks and,
// for Solve, the solution itself. Solvers are pooled; a phase takes one
// for the length of an application and every re-solve in it is free of
// allocation once the pool is warm.
type LiveSolver struct {
	flow  Flow
	masks []uint64 // block b's use mask, then its def mask, Words each
	rets  []bool   // by block: ends in a return
	lv    Liveness
	sets  []RegSet
	state []uint64
}

var liveSolvers = sync.Pool{New: func() any {
	ls := new(LiveSolver)
	ls.flow = Flow{Backward: true, Boundary: ls.boundary, Transfer: ls.transfer}
	return ls
}}

// NewLiveSolver takes a solver from the pool; Release returns it.
func NewLiveSolver() *LiveSolver { return liveSolvers.Get().(*LiveSolver) }

// Release returns the solver, and the solution Solve last returned, to
// the pool.
func (ls *LiveSolver) Release() { liveSolvers.Put(ls) }

// Solve solves live variables for g.F as it now stands over g's edges,
// which must still be the function's. The solution is the solver's:
// valid until the next Solve or the Release.
func (ls *LiveSolver) Solve(g *CFG) *Liveness {
	n, w := len(g.F.Blocks), ls.scan(g.F)
	ls.sets, ls.state = Resize(ls.sets, 2*n), Resize(ls.state, (2*n+1)*w)
	return ls.run(g, &ls.lv, ls.sets, ls.state)
}

// Resize returns s with length n, in its own backing array when that
// is large enough: how the kernel's clients grow the storage they pool.
// The contents are unspecified.
func Resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// boundary is the state at the bottom of a block nothing follows. At a
// return only the stack pointer is live: the value returned is the Ret
// instruction's own use of r0, and the callee-save registers are
// ordinary storage while the phases run — the entry/exit fix-up that
// saves and restores the ones the function uses runs after the last
// phase (FixEntryExit), so a phase may well delete a write to one that
// nothing reads. A final block that falls off the end has nothing live
// below it.
func (ls *LiveSolver) boundary(b int, s []uint64) {
	if ls.rets[b] {
		s[RegSP>>6] |= 1 << (RegSP & 63)
	}
}

// transfer is in = use ∪ (out − def).
func (ls *LiveSolver) transfer(b int, s []uint64) {
	w := ls.flow.Words
	GenKill(s, ls.masks[2*b*w:][:w], ls.masks[(2*b+1)*w:][:w])
}

// scan builds every block's use mask (registers read before the block
// writes them) and def mask in one pass over f and returns their width
// in words: that of NextPseudo, or — for a function that references a
// register at or above it, which no well-formed one does — whatever a
// second pass finds it needs.
func (ls *LiveSolver) scan(f *Func) int {
	w := max(1, (int(f.NextPseudo)+63)/64)
	for {
		need := ls.scanWidth(f, w)
		if need == w {
			return w
		}
		w = need
	}
}

// scanWidth is scan at a given width; it stops at the first register
// the masks cannot hold and returns the width that can.
func (ls *LiveSolver) scanWidth(f *Func, w int) int {
	ls.masks = Resize(ls.masks, 2*len(f.Blocks)*w)
	clear(ls.masks)
	ls.rets = Resize(ls.rets, len(f.Blocks))
	var buf [8]Reg
	for i, b := range f.Blocks {
		use, def := ls.masks[2*i*w:][:w], ls.masks[(2*i+1)*w:][:w]
		for j := range b.Instrs {
			in := &b.Instrs[j]
			for _, r := range in.Uses(buf[:0]) {
				if int(r>>6) >= w {
					return int(r>>6) + 1
				}
				if def[r>>6]>>(r&63)&1 == 0 {
					use[r>>6] |= 1 << (r & 63)
				}
			}
			for _, r := range in.Defs(buf[:0]) {
				if int(r>>6) >= w {
					return int(r>>6) + 1
				}
				def[r>>6] |= 1 << (r & 63)
			}
		}
		last := b.Last()
		ls.rets[i] = last != nil && last.Op == OpRet
	}
	return w
}

// run solves the scanned function's backward union problem through the
// kernel in state and binds the solution to lv: In and Out are the two
// halves of sets, views of the block-top and block-bottom states.
func (ls *LiveSolver) run(g *CFG, lv *Liveness, sets []RegSet, state []uint64) *Liveness {
	n := len(g.F.Blocks)
	fl := &ls.flow
	fl.Words, fl.State, fl.Marks = len(state)/(2*n+1), state, Resize(fl.Marks, 2*n)
	g.Solve(fl)
	lv.In, lv.Out = sets[:n:n], sets[n:]
	for i := range sets {
		sets[i] = SetOver[Reg](fl.At(i))
	}
	fl.State = nil // the solution's (ComputeLiveness) or ls.state
	if Trace != nil {
		Trace(BuiltLiveness, g)
	}
	return lv
}
