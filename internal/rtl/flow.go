package rtl

import "slices"

// Flow is one bit-vector dataflow problem over the blocks of a graph,
// for Solve — the repository's one fixed-point loop. A state is Words
// 64-bit words; what the words mean is the client's business. All
// storage is the caller's, so a client that pools it solves without
// allocating.
//
// State holds 2n+1 states for a graph of n blocks: state b is block b's
// state at its top (before its first instruction), state n+b its state
// at its bottom, state 2n a scratch. A forward problem meets the bottom
// states of a block's predecessors into its top state and transfers
// that to its bottom; a backward problem runs the other way, from the
// successors' top states.
//
// Conventions, the same for every client:
//
//   - TOP, the identity of the meet, has no representation. A
//     neighbour the sweep has not produced a state for yet is skipped by
//     the meet instead, and a block all of whose neighbours are skipped
//     waits — except under the union meet, where TOP is the empty state
//     and the block proceeds from it (a loop no exit leaves still has
//     its registers' liveness computed).
//   - A block with no edge to take its input over — and the entry block
//     of a forward problem, whatever reaches it — starts from the
//     boundary state: empty, then whatever Boundary adds.
//   - A block the sweep never enters (one outside Only, or one of an
//     unreachable cycle under a meet other than union) keeps the states
//     the caller left in State.
type Flow struct {
	Backward bool
	Words    int
	State    []uint64 // (2n+1)*Words words
	Marks    []bool   // 2n flags, the kernel's own

	// Only, when non-nil, confines the sweep to the blocks it marks: the
	// others are never entered and count as TOP to their neighbours.
	Only []bool
	// Meet folds the state x into acc. Nil is union; Intersect is the
	// other common one.
	Meet func(acc, x []uint64)
	// Equal reports whether two states are the same; nil compares the
	// words. A client whose state has don't-care words supplies its own.
	Equal func(a, b []uint64) bool
	// Boundary, when non-nil, adds to the (empty) boundary state s of
	// block b.
	Boundary func(b int, s []uint64)
	// Transfer rewrites s, block b's input state, into its output state:
	// top to bottom for a forward problem, bottom to top for a backward
	// one.
	Transfer func(b int, s []uint64)
}

// At returns the i-th state.
func (fl *Flow) At(i int) []uint64 { return fl.State[i*fl.Words : (i+1)*fl.Words] }

// Intersect is the intersection meet.
func Intersect(acc, x []uint64) {
	for i := range acc {
		acc[i] &= x[i]
	}
}

// GenKill is the transfer of the plain problems: s = gen ∪ (s − kill).
func GenKill(s, gen, kill []uint64) {
	for i := range s {
		s[i] = gen[i] | s[i]&^kill[i]
	}
}

// Solve runs fl to its fixpoint over g. A sweep visits the blocks in
// reverse postorder (postorder for a backward problem), but only those
// whose input moved since their last visit: a block's output is a
// function of its input, and that of its neighbours' outputs, so
// revisiting any other block would reproduce what is there, and the
// states pass through the same values as if every sweep visited every
// block. The fixpoint of a monotone problem does not depend on the
// order of visits.
func (g *CFG) Solve(fl *Flow) {
	n := len(g.Succs)
	done, stale := fl.Marks[:n], fl.Marks[n:2*n]
	clear(done)
	for i := range stale {
		stale[i] = true
	}
	from, to, inAt, outAt := g.Preds, g.Succs, 0, n
	if fl.Backward {
		from, to, inAt, outAt = g.Succs, g.Preds, n, 0
	}
	order, tmp := g.RPO(), fl.At(2*n)
	for changed := true; changed; {
		changed = false
		for i := range order {
			b := order[i]
			if fl.Backward {
				b = order[n-1-i]
			}
			if !stale[b] || fl.Only != nil && !fl.Only[b] {
				continue
			}
			in := fl.At(inAt + b)
			boundary := len(from[b]) == 0 || b == 0 && !fl.Backward
			have := false
			if !boundary {
				for _, p := range from[b] {
					switch out := fl.At(outAt + p); {
					case !done[p]: // TOP
					case !have:
						copy(in, out)
						have = true
					case fl.Meet == nil:
						for w := range in {
							in[w] |= out[w]
						}
					default:
						fl.Meet(in, out)
					}
				}
			}
			if !have {
				if !boundary && fl.Meet != nil {
					continue
				}
				clear(in)
				if boundary && fl.Boundary != nil {
					fl.Boundary(b, in)
				}
			}
			stale[b] = false
			copy(tmp, in)
			fl.Transfer(b, tmp)
			out := fl.At(outAt + b)
			if done[b] && (fl.Equal == nil && slices.Equal(tmp, out) || fl.Equal != nil && fl.Equal(tmp, out)) {
				continue
			}
			copy(out, tmp)
			done[b] = true
			changed = true
			for _, s := range to[b] {
				stale[s] = true
			}
		}
	}
}
