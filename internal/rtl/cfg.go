package rtl

import "sync"

// CFG is a control-flow graph snapshot for a function. Nodes are
// identified by layout position (index into Func.Blocks), which keeps
// the successor computation trivially in sync with fall-through
// semantics. A CFG is invalidated by any structural mutation; phases
// recompute it after changing the block list.
//
// A CFG is a view: F is the function it is bound to, and everything
// else — the edge lists and the analyses derived from them — sits in
// a graph that every view of the same snapshot shares (CFGOf).
type CFG struct {
	F *Func
	*graph
}

// graph is the shared, read-only part of a CFG. The edge lists share
// two backing arrays (successor counts are at most two, predecessor
// lists are laid out CSR-style): the exhaustive search builds graphs
// millions of times, so the representation is kept to a handful of
// allocations. Each analysis is computed at most once per graph, on
// first request, and its result must not be written to: a frontier
// instance's graph is consulted by every worker attempting that node.
type graph struct {
	f     *Func   // the function the graph was built from
	Succs [][]int // layout position -> successor positions
	Preds [][]int
	index []int // block ID -> layout position, -1 when absent

	rpo   once[[]int]
	reach once[[]bool]
	dom   once[*domTree]
	loops once[[]*Loop]
	live  once[*Liveness]
}

// once holds a value computed at most once, by whichever goroutine
// asks first.
type once[T any] struct {
	sync.Once
	v T
}

func (o *once[T]) get(compute func() T) T {
	o.Do(func() { o.v = compute() })
	return o.v
}

// Event names what Trace observes.
type Event int

const (
	BuiltCFG      Event = iota // ComputeCFG built g from scratch
	BuiltLiveness              // ComputeLiveness ran over g
	Borrowed                   // CFGOf bound the parent's graph to the clone g.F
)

// Trace, when non-nil, observes the analyses as tests need to: they
// count the from-scratch computations and re-derive every borrowed
// graph on the clone it was handed to. Install it before any
// concurrent use.
var Trace func(ev Event, g *CFG)

// snapshot is the graph a frontier instance shares with its clones,
// built when the first of them asks.
type snapshot struct {
	f *Func // the owner, not written to while the snapshot lives
	g once[*CFG]
}

// ShareAnalyses makes f the owner of an analysis snapshot: until
// DropAnalyses, f must not be modified, and every clone CloneReusing
// makes of it borrows the snapshot (CFGOf). The enumeration shares a
// node's instance while the node's attempts run. A nil f is a no-op.
func (f *Func) ShareAnalyses() {
	if f != nil {
		f.snap = &snapshot{f: f}
	}
}

// DropAnalyses releases the snapshot f owns or, on a clone, the one it
// borrowed and has not consumed: whoever is about to modify such a
// clone before its first CFGOf calls it. A nil f is a no-op.
func (f *Func) DropAnalyses() {
	if f != nil {
		f.snap = nil
	}
}

// CFGOf returns the control-flow graph of f for a phase's first look
// at it. A clone that still holds the snapshot borrowed from its
// parent gets a view of the parent's graph bound to itself — one
// allocation; edges, RPO, liveness, dominators, loops and reachability
// are whatever an earlier attempt at the same node already derived.
// The borrow is one-shot: the phase may modify f once it has looked,
// so every later request computes from scratch, as does a function
// with nothing to borrow.
func CFGOf(f *Func) *CFG {
	s := f.snap
	if s == nil || s.f == f {
		return ComputeCFG(f)
	}
	f.snap = nil
	g := &CFG{F: f, graph: s.g.get(func() *CFG { return ComputeCFG(s.f) }).graph}
	if Trace != nil {
		Trace(Borrowed, g)
	}
	return g
}

// Pos returns the layout position of the block with the given ID and
// whether it exists.
func (g *CFG) Pos(id int) (int, bool) {
	if id < 0 || id >= len(g.index) || g.index[id] < 0 {
		return -1, false
	}
	return g.index[id], true
}

// MustPos returns the layout position of an existing block ID.
func (g *CFG) MustPos(id int) int {
	p, ok := g.Pos(id)
	if !ok {
		panic("rtl: unknown block id in CFG")
	}
	return p
}

// successors returns the layout positions control reaches from the end
// of the block at position i — at most two, the target of a jump or
// taken branch first, then the fall-through — given index, every
// block's position by ID. It is the one statement of the successor
// rule: ComputeCFG lists its edges by it and Cleanup counts
// predecessors by it.
func successors(f *Func, i int, index []int) (succ [2]int, n int) {
	falls := i+1 < len(f.Blocks)
	switch last := f.Blocks[i].Last(); {
	case last == nil:
	case last.Op == OpJmp:
		return [2]int{index[last.Target]}, 1
	case last.Op == OpRet:
		return succ, 0
	case last.Op == OpBranch:
		t := index[last.Target]
		if falls && t != i+1 {
			return [2]int{t, i + 1}, 2
		}
		return [2]int{t}, 1
	}
	if falls {
		return [2]int{i + 1}, 1
	}
	return succ, 0
}

// ComputeCFG builds the control-flow graph for f.
func ComputeCFG(f *Func) *CFG {
	n := len(f.Blocks)
	// The search builds CFGs for most phase attempts (and more during
	// cleanup), so storage is pooled into three allocations: the
	// edge-list headers, one int array carrying the ID index and both
	// CSR edge backings (a block has at most two successors), and the
	// view together with its graph.
	hdrs := make([][]int, 2*n)
	buf := make([]int, f.NextBlockID+4*n)
	mem := new(struct {
		view CFG
		gr   graph
	})
	g := &mem.view
	g.F, g.graph = f, &mem.gr
	g.f, g.Succs, g.Preds, g.index = f, hdrs[:n:n], hdrs[n:], buf[:f.NextBlockID:f.NextBlockID]
	for i := range g.index {
		g.index[i] = -1
	}
	for i, b := range f.Blocks {
		g.index[b.ID] = i
	}
	succBack := buf[f.NextBlockID : f.NextBlockID : f.NextBlockID+2*n]
	predBuf := buf[f.NextBlockID+2*n:]
	var cntArr [64]int
	var predCount []int
	if n <= len(cntArr) {
		predCount = cntArr[:n]
		clear(predCount)
	} else {
		predCount = make([]int, n)
	}
	for i := range f.Blocks {
		succ, k := successors(f, i, g.index)
		start := len(succBack)
		succBack = append(succBack, succ[:k]...)
		g.Succs[i] = succBack[start:len(succBack):len(succBack)]
		for _, s := range g.Succs[i] {
			predCount[s]++
		}
	}
	predBack := predBuf[:0]
	for i := 0; i < n; i++ {
		start := len(predBack)
		predBack = predBack[:start+predCount[i]]
		g.Preds[i] = predBack[start : start : start+predCount[i]]
	}
	for i := range f.Blocks {
		for _, s := range g.Succs[i] {
			g.Preds[s] = append(g.Preds[s], i)
		}
	}
	if Trace != nil {
		Trace(BuiltCFG, g)
	}
	return g
}

// Reachable returns the set of layout positions reachable from entry.
// Like every analysis of the graph it is computed once and shared:
// callers must not write to the result.
func (g *CFG) Reachable() []bool { return g.reach.get(g.reachable) }

func (g *CFG) reachable() []bool {
	seen := make([]bool, len(g.Succs))
	if len(seen) == 0 {
		return seen
	}
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs[b] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// RPO returns the blocks' layout positions in reverse post-order from
// the entry. Unreachable blocks are appended at the end in layout
// order so analyses still cover them.
func (g *CFG) RPO() []int { return g.rpo.get(g.rpoOrder) }

func (g *CFG) rpoOrder() []int {
	n := len(g.Succs)
	seen := make([]bool, n)
	arr := make([]int, 2*n)
	post := arr[:0:n]
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Succs[b] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if n > 0 {
		dfs(0)
	}
	order := arr[n:n]
	for i := len(post) - 1; i >= 0; i-- {
		order = append(order, post[i])
	}
	for b := 0; b < n; b++ {
		if !seen[b] {
			order = append(order, b)
		}
	}
	return order
}

// FallsThrough reports whether the block at layout position i continues
// into block i+1 when executed.
func (g *CFG) FallsThrough(i int) bool {
	b := g.F.Blocks[i]
	last := b.Last()
	if last == nil {
		return true
	}
	switch last.Op {
	case OpJmp, OpRet:
		return false
	}
	return true
}

// RetargetBranches rewrites every branch or jump targeting block oldID
// to target newID instead. It returns the number of rewritten
// instructions.
func RetargetBranches(f *Func, oldID, newID int) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if (in.Op == OpBranch || in.Op == OpJmp) && in.Target == oldID {
				in.Target = newID
				n++
			}
		}
	}
	return n
}

// predTables is the storage countPreds works in, on its caller's
// stack: enough for functions of up to 64 blocks with IDs below 256.
type predTables struct {
	count, sole [64]int
	index       [256]int
}

// countPreds answers the two questions Cleanup has about a block's
// predecessors — how many (count, by layout position) and which one
// where there is just one (sole) — by counting f's successor edges as
// they now stand, with no graph behind them: Cleanup asks again after
// every block it removes, and the graphs it used to build for that were
// a tenth of everything an enumeration allocated. The answers live in
// tab unless f outgrows it.
func countPreds(f *Func, tab *predTables) (count, sole []int) {
	n := len(f.Blocks)
	if n <= len(tab.count) {
		count, sole = tab.count[:n], tab.sole[:n]
		clear(count)
	} else {
		count, sole = make([]int, n), make([]int, n)
	}
	index := tab.index[:]
	if f.NextBlockID > len(index) {
		index = make([]int, f.NextBlockID)
	}
	index = index[:f.NextBlockID]
	for i := range index {
		index[i] = -1 // a reference to a block that is gone fails loudly, as in ComputeCFG
	}
	for i, b := range f.Blocks {
		index[b.ID] = i
	}
	for i := range f.Blocks {
		succ, k := successors(f, i, index)
		for _, s := range succ[:k] {
			count[s]++
			sole[s] = i
		}
	}
	return count, sole
}

// Cleanup performs the two compulsory control-flow normalizations that
// VPO applies implicitly after every transformation: eliminating empty
// basic blocks and merging a block into its fall-through predecessor
// when that predecessor is its only predecessor. Neither changes the
// generated instructions — only the internal block structure — which is
// why the paper excludes them from the candidate phase set.
//
// Cleanup never deletes jumps or moves code; those effects belong to
// the explicit phases (useless jump removal, block reordering, ...).
func Cleanup(f *Func) {
	var tab predTables
	for {
		changed := false
		// Eliminate empty blocks: redirect references to the block's
		// fall-through successor, then remove the block. The final
		// block cannot be empty in a well-formed function unless it is
		// unreferenced.
		for i := 0; i < len(f.Blocks); i++ {
			b := f.Blocks[i]
			if len(b.Instrs) != 0 {
				continue
			}
			if i+1 < len(f.Blocks) {
				RetargetBranches(f, b.ID, f.Blocks[i+1].ID)
				f.RemoveBlockAt(i)
				changed = true
				i--
				continue
			}
			// Trailing empty block: removable only when nothing
			// references it and nothing falls into it.
			if count, _ := countPreds(f, &tab); count[i] == 0 {
				f.RemoveBlockAt(i)
				changed = true
			}
		}
		// Merge fall-through pairs with a unique predecessor.
		count, sole := countPreds(f, &tab)
		for i := 0; i+1 < len(f.Blocks); i++ {
			b := f.Blocks[i]
			if b.EndsInControl() {
				continue
			}
			next := i + 1
			if count[next] != 1 || sole[next] != i {
				continue
			}
			// Fold block next into b. Branches cannot target next
			// (it has a single fall-through predecessor), so no
			// retargeting is needed.
			b.Instrs = append(b.Instrs, f.Blocks[next].Instrs...)
			f.RemoveBlockAt(next)
			changed = true
			count, sole = countPreds(f, &tab)
			i--
		}
		if !changed {
			return
		}
	}
}
