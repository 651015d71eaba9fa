package opt

import (
	"slices"
	"sync"

	"repro/internal/machine"
	"repro/internal/rtl"
)

// EvalOrderDetermination is phase o: it reorders instructions within a
// single basic block in an attempt to use fewer registers. It is the
// one phase that must run before the compulsory register assignment —
// its purpose is to reduce the number of simultaneously live
// temporaries that register assignment will have to map onto hardware
// registers (Section 3).
//
// The implementation builds the dependence graph of each block and
// greedily schedules ready instructions, preferring instructions that
// kill operands over instructions that create new values. A block is
// rewritten only when the new order strictly lowers its maximum
// register pressure, so the phase is dormant when no improvement
// exists.
type EvalOrderDetermination struct{}

// ID returns the paper's designation for the phase.
func (EvalOrderDetermination) ID() byte { return 'o' }

// Name returns the paper's name for the phase.
func (EvalOrderDetermination) Name() string { return "evaluation order determination" }

// RequiresRegAssign reports that evaluation order determination runs
// on pseudo registers, before register assignment.
func (EvalOrderDetermination) RequiresRegAssign() bool { return false }

// Apply runs the phase.
func (EvalOrderDetermination) Apply(f *rtl.Func, _ *machine.Desc) bool {
	if f.RegAssigned {
		return false
	}
	changed := false
	lv := rtl.CFGOf(f).Liveness()
	s := orderScratches.Get().(*orderScratch)
	s.dense, s.regs = grow(s.dense, int(f.NextPseudo)), s.regs[:0]
	for bpos, b := range f.Blocks {
		if s.reorderBlock(b, lv.Out[bpos]) {
			changed = true
		}
	}
	orderScratches.Put(s)
	return changed
}

var orderScratches = sync.Pool{New: func() any { return new(orderScratch) }}

// orderScratch is phase o's working storage, reused across a
// function's blocks. A block's registers are numbered densely in the
// order its instructions name them, so every per-register table is a
// slice as long as the block has registers.
type orderScratch struct {
	dense        []int32   // register -> 1 + its dense number, 0 when the block names it not
	regs         []rtl.Reg // dense number -> register
	liveOut      []bool    // by dense number
	defs, uses   []int32   // instruction i's registers, dense: defs[defAt[i]:defAt[i+1]]
	defAt, useAt []int32
	succ         [][]int32 // succ[i]: the instructions that must follow i
	indeg        []int32   // unscheduled dependences of each instruction
	predMark     []int32   // j+1 once i is linked to j
	lastDef      []int32   // by register: its last def so far, or -1
	since        [][]int32 // by register: its readers since its last def
	reads        []int32   // memory reads since the last barrier
	ready        []int32
	order        []int32
	readers      []int32 // unscheduled instructions reading each register
	lastUse      []int32
	live         []bool
	defined      []bool
	instrs       []rtl.Instr
}

// num returns r's dense number, numbering it when it is new.
func (s *orderScratch) num(r rtl.Reg) int32 {
	if int(r) >= len(s.dense) {
		s.dense = append(s.dense, make([]int32, int(r)+1-len(s.dense))...)
	}
	if s.dense[r] == 0 {
		s.regs = append(s.regs, r)
		s.dense[r] = int32(len(s.regs))
	}
	return s.dense[r] - 1
}

// defsOf and usesOf are instruction i's registers, by dense number.
func (s *orderScratch) defsOf(i int) []int32 { return s.defs[s.defAt[i]:s.defAt[i+1]] }
func (s *orderScratch) usesOf(i int) []int32 { return s.uses[s.useAt[i]:s.useAt[i+1]] }

// grow returns buf resized to n zeroed entries, reusing its array.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// reorderBlock attempts to reschedule one block; it commits and
// reports true only when the maximum number of simultaneously live
// registers strictly decreases. Its schedule is refReorderBlock's
// (evalorder_ref_test.go), in time quadratic in the block's length.
func (s *orderScratch) reorderBlock(b *rtl.Block, liveOut rtl.RegSet) bool {
	n := len(b.Instrs)
	if n < 3 {
		return false
	}

	// Each instruction's defs and uses, once, by dense number.
	for _, r := range s.regs {
		s.dense[r] = 0
	}
	s.regs, s.defs, s.uses = s.regs[:0], s.defs[:0], s.uses[:0]
	s.defAt, s.useAt = append(s.defAt[:0], 0), append(s.useAt[:0], 0)
	var buf [8]rtl.Reg
	for i := range b.Instrs {
		in := &b.Instrs[i]
		for _, r := range in.Defs(buf[:0]) {
			s.defs = append(s.defs, s.num(r))
		}
		for _, r := range in.Uses(buf[:0]) {
			s.uses = append(s.uses, s.num(r))
		}
		s.defAt, s.useAt = append(s.defAt, int32(len(s.defs))), append(s.useAt, int32(len(s.uses)))
	}
	nr := len(s.regs)
	s.liveOut = grow(s.liveOut, nr)
	for k, r := range s.regs {
		s.liveOut[k] = liveOut.Has(r)
	}

	// Dependence edges: j depends on i (i must stay before j) for
	// def-use, use-def (anti) and def-def (output) pairs, for memory
	// ordering, and to keep control transfers and the IC chain fixed.
	// Only the edges the rest do not imply are kept — from a register's
	// last def and its readers since, from the last barrier and the
	// memory reads since — which leaves every instruction ready exactly
	// when it was with every pair linked: an omitted edge runs through
	// an earlier def or barrier that is itself a kept predecessor.
	isMem := func(in *rtl.Instr) bool {
		return in.Op == rtl.OpLoad || in.Op == rtl.OpStore || in.Op == rtl.OpCall
	}
	isBarrier := func(in *rtl.Instr) bool {
		return in.Op == rtl.OpStore || in.Op == rtl.OpCall
	}
	if len(s.succ) < n {
		s.succ = append(s.succ, make([][]int32, n-len(s.succ))...)
	}
	for i := range n {
		s.succ[i] = s.succ[i][:0]
	}
	s.indeg, s.predMark = grow(s.indeg, n), grow(s.predMark, n)
	s.lastDef = grow(s.lastDef, nr)
	if len(s.since) < nr {
		s.since = append(s.since, make([][]int32, nr-len(s.since))...)
	}
	for r := range nr {
		s.lastDef[r] = -1
		s.since[r] = s.since[r][:0]
	}
	lastBarrier, reads := int32(-1), s.reads[:0]
	for j := 0; j < n; j++ {
		jn := &b.Instrs[j]
		link := func(i int32) {
			if i >= 0 && s.predMark[i] != int32(j+1) {
				s.predMark[i] = int32(j + 1)
				s.succ[i] = append(s.succ[i], int32(j))
				s.indeg[j]++
			}
		}
		if jn.Op.IsControl() {
			for i := range int32(j) {
				link(i)
			}
		}
		for _, u := range s.usesOf(j) {
			link(s.lastDef[u])
		}
		for _, d := range s.defsOf(j) {
			link(s.lastDef[d])
			for _, i := range s.since[d] {
				link(i)
			}
		}
		if isMem(jn) {
			link(lastBarrier)
			if isBarrier(jn) {
				for _, i := range reads {
					link(i)
				}
				lastBarrier, reads = int32(j), reads[:0]
			} else {
				reads = append(reads, int32(j))
			}
		}
		for _, u := range s.usesOf(j) {
			s.since[u] = append(s.since[u], int32(j))
		}
		for _, d := range s.defsOf(j) {
			s.lastDef[d] = int32(j)
			s.since[d] = s.since[d][:0]
		}
	}
	s.reads = reads

	// Greedy list scheduling: among ready instructions prefer the one
	// that kills the most operands, then original order. An operand is
	// killed when no other unscheduled instruction reads it and it is
	// not live out of the block. ready is kept in original order.
	s.readers = grow(s.readers, nr)
	ready := s.ready[:0]
	for i := range n {
		us := s.usesOf(i)
		for k, u := range us {
			if !slices.Contains(us[:k], u) {
				s.readers[u]++
			}
		}
		if s.indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	s.order = s.order[:0]
	for range n {
		best, bestKill := 0, -1
		for k, j := range ready {
			kills := 0
			for _, u := range s.usesOf(int(j)) {
				if s.readers[u] <= 1 && !s.liveOut[u] {
					kills++
				}
			}
			if kills > bestKill {
				best, bestKill = k, kills
			}
		}
		j := ready[best]
		ready = slices.Delete(ready, best, best+1)
		s.order = append(s.order, j)
		us := s.usesOf(int(j))
		for k, u := range us {
			if !slices.Contains(us[:k], u) {
				s.readers[u]--
			}
		}
		for _, k := range s.succ[j] {
			if s.indeg[k]--; s.indeg[k] == 0 {
				at, _ := slices.BinarySearch(ready, k)
				ready = slices.Insert(ready, at, k)
			}
		}
	}
	s.ready = ready

	same := true
	for i, idx := range s.order {
		if int(idx) != i {
			same = false
			break
		}
	}
	if same {
		return false
	}
	if s.pressure(s.order) >= s.pressure(nil) {
		return false
	}
	s.instrs = append(s.instrs[:0], b.Instrs...)
	for pos, idx := range s.order {
		b.Instrs[pos] = s.instrs[idx]
	}
	return true
}

// pressure is the most registers simultaneously live when the block's
// instructions run in order (nil: their own order), by forward
// simulation: a register becomes live at its def and dies at its last
// use in the order, unless it is live out of the block; values defined
// before the block and used inside it start live.
func (s *orderScratch) pressure(order []int32) int {
	n, nr := len(s.defAt)-1, len(s.regs)
	at := func(pos int) int {
		if order == nil {
			return pos
		}
		return int(order[pos])
	}
	s.lastUse = grow(s.lastUse, nr)
	s.live, s.defined = grow(s.live, nr), grow(s.defined, nr)
	for k := range s.lastUse {
		s.lastUse[k] = -1
	}
	live := 0
	for pos := range n {
		for _, u := range s.usesOf(at(pos)) {
			s.lastUse[u] = int32(pos)
			if !s.defined[u] && !s.live[u] {
				s.live[u] = true
				live++
			}
		}
		for _, d := range s.defsOf(at(pos)) {
			s.defined[d] = true
		}
	}
	max := live
	for pos := range n {
		idx := at(pos)
		for _, d := range s.defsOf(idx) {
			if !s.live[d] {
				s.live[d] = true
				live++
			}
		}
		if live > max {
			max = live
		}
		for _, u := range s.usesOf(idx) {
			if s.lastUse[u] == int32(pos) && !s.liveOut[u] && s.live[u] {
				s.live[u] = false
				live--
			}
		}
		for _, d := range s.defsOf(idx) {
			if s.lastUse[d] <= int32(pos) && !s.liveOut[d] && s.live[d] {
				s.live[d] = false
				live--
			}
		}
	}
	return max
}
