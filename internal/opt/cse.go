package opt

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/machine"
	"repro/internal/rtl"
)

// CommonSubexprElim is phase c: global common subexpression
// elimination, which per Table 1 also includes global constant and
// copy propagation. Fully redundant computations are replaced by a
// move from the register already holding the value; operands with
// known constant values are replaced by immediates when the machine
// allows; uses of a copied register are replaced by the copy source.
type CommonSubexprElim struct{}

// ID returns the paper's designation for the phase.
func (CommonSubexprElim) ID() byte { return 'c' }

// Name returns the paper's name for the phase.
func (CommonSubexprElim) Name() string { return "common subexpression elimination" }

// RequiresRegAssign reports that this dataflow phase runs after the
// compulsory register assignment.
func (CommonSubexprElim) RequiresRegAssign() bool { return true }

// Apply runs the phase. The three sub-passes take turns until they
// reach a joint fixpoint, so that an immediately repeated application
// of the phase is always dormant — the property ("no phase in our
// compiler can be applied successfully more than once consecutively",
// Section 4.1) that the exhaustive search's pruning relies on.
//
// Constant propagation runs once; copy propagation and CSE then take
// turns until both are dormant on the code as it stands (a sub-pass is
// a deterministic function of the code), which makes constant
// propagation and a repeated application dormant too. The code and the
// answer are those of all three taking turns until three in a row are
// dormant (the reference in cse_ref_test.go still does), because:
//
//  1. After the first turn, copy propagation and CSE never give
//     constant propagation anything to do. Its transfer tracks only
//     "mov d,#imm" and "mov d,r" — copy-constant propagation, which is
//     distributive, so the argument goes path by path. A copy u→s that
//     holds at a use means u and s have the same last definition on
//     every path, so u is a known constant exactly when s is, with the
//     same value. A CSE holder's last definition on every path is an
//     ALU operation, a load, HI/LO, neg or not, none of which is
//     tracked as a constant, so neither "d = holder" nor removing a
//     recomputation changes what is known to be constant.
//  2. A copy turn that rewrote no move leaves the next one nothing, so
//     a dormant CSE turn after it ends the loop. The copy analysis
//     reads only definitions and the sources of moves, so the next
//     turn solves to the same states; and no state records a copy of a
//     register that is itself a recorded copy (a move from a copy
//     records the copy's source, a definition of r forgets the copies
//     of r, meet only forgets), so no operand the turn wrote, a copy's
//     source, is one.
//
// After a copy turn that rewrote a move, the next copy turn runs: a
// move's new source can change the copies the next solve finds. A turn
// rewrites "s = u", u a copy of s, into the self-move "s = s", which
// records no copy where "s = u" recorded s→u; a later "d = s", solved
// as d→u, is then d→s and can meet d→s from another path. Nor is CSE
// idempotent, so after an active CSE turn both run again. In
//
//	L0: r4=r0+r1; r5=r4+1; r4=r0+r1; PC=L1;  L1: r6=r4+1; ...
//
// the first CSE turn removes the second r4=r0+r1, but its solve killed
// r4+1 there; only a second turn turns r6=r4+1 into r6=r5.
func (CommonSubexprElim) Apply(f *rtl.Func, d *machine.Desc) bool {
	// One CFG serves every turn: no sub-pass changes block structure
	// or terminators (operand substitution, use replacement and the
	// removal of pure recomputations leave each block's control
	// instruction — and hence the successor sets — untouched).
	g := rtl.CFGOf(f)
	sc := cseScratchPool.Get().(*cseScratch)
	sc.reset(f)
	sv, es := &sc.regs, &sc.exprs
	changed := propagateConstants(f, g, sv, d)
	for eliminated := true; ; {
		copied, moved := propagateCopies(f, g, sv)
		if !copied && !eliminated {
			break // a dormant copy turn after a dormant CSE turn
		}
		eliminated = eliminateCommonSubexprs(f, g, es)
		changed = changed || copied || eliminated
		if !eliminated && !moved {
			break
		}
	}
	cseScratchPool.Put(sc)
	return changed
}

// cseScratch is the storage the phase's three analyses work in. An
// application takes one from the pool and grows its arrays to the
// function at hand, so a warm pool makes the phase allocation-free —
// the enumeration applies it thousands of times a second, and the
// lattices were a fifth of everything it allocated. Nothing in a
// scratch outlives the application that took it: every array is
// (re)initialized by the pass that reads it, and one a panicking
// application never returned is simply dropped.
type cseScratch struct {
	regs  regSolver
	exprs exprSolver
}

var cseScratchPool = sync.Pool{New: func() any { return new(cseScratch) }}

// reset sizes the scratch for an application to f: the block count and
// the registers f references hold for all of its turns. A scratch's
// first application binds its two problems' hooks, once for its life.
func (sc *cseScratch) reset(f *rtl.Func) {
	if sc.regs.flow.Transfer == nil {
		sc.regs.flow = rtl.Flow{Meet: sc.regs.meet, Equal: sc.regs.equal, Transfer: sc.regs.transferBlock}
		sc.exprs.flow = rtl.Flow{Meet: rtl.Intersect, Transfer: sc.exprs.transferBlock}
	}
	width := usedRegWidth(f)
	sc.regs.reset(len(f.Blocks), width)
	sc.exprs.width = width
}

// Bit-set helpers over equally long word slices.

func andNot(s, m []uint64) {
	for i := range s {
		s[i] &^= m[i]
	}
}

func orInto(s, m []uint64) {
	for i := range s {
		s[i] |= m[i]
	}
}

func disjoint(s, m []uint64) bool {
	for i := range s {
		if s[i]&m[i] != 0 {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Global constant and copy propagation.

// regLattice is a forward dataflow state with one slot per register:
// the set of registers something is known of, as a bit mask, and what
// is known of each — the constant it holds for constant propagation,
// the register it is a copy of for copy propagation. val[r] means
// nothing while r's bit is clear, so a kill is one bit operation and
// meet and equality visit set bits only. A regLattice is a view of one
// kernel state: the mask words, then a word per register.
type regLattice struct {
	known []uint64
	val   []uint64
}

func (s regLattice) has(r rtl.Reg) bool {
	return int(r) < len(s.val) && s.known[r>>6]>>(r&63)&1 != 0
}

func (s regLattice) get(r rtl.Reg) int32 { return int32(s.val[r]) }

func (s regLattice) set(r rtl.Reg, v int32) {
	s.known[r>>6] |= 1 << (r & 63)
	s.val[r] = uint64(uint32(v))
}

func (s regLattice) kill(r rtl.Reg) {
	if int(r) < len(s.val) {
		s.known[r>>6] &^= 1 << (r & 63)
	}
}

// meet intersects o into s: a register stays known when both know the
// same of it.
func (s regLattice) meet(o regLattice) {
	for w := range s.known {
		both := s.known[w] & o.known[w]
		for m := both; m != 0; m &= m - 1 {
			if r := w<<6 | bits.TrailingZeros64(m); s.val[r] != o.val[r] {
				both &^= m & -m
			}
		}
		s.known[w] = both
	}
}

func (s regLattice) equal(o regLattice) bool {
	for w, m := range s.known {
		if m != o.known[w] {
			return false
		}
		for ; m != 0; m &= m - 1 {
			if r := w<<6 | bits.TrailingZeros64(m); s.val[r] != o.val[r] {
				return false
			}
		}
	}
	return true
}

// usedRegWidth returns one past the highest register f actually
// references (at least RegIC+1, so the condition-code slot always
// exists). The phase runs after register assignment, where every live
// register is a hardware register: sizing the lattice by NextPseudo
// would make the per-instruction kill loops in the transfer functions
// scan three times as many cells as the function can touch.
func usedRegWidth(f *rtl.Func) int {
	n := int(rtl.RegIC) + 1
	var buf [8]rtl.Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			for _, r := range in.Uses(buf[:0]) {
				if r != rtl.RegNone && int(r) >= n {
					n = int(r) + 1
				}
			}
			for _, r := range in.Defs(buf[:0]) {
				if r != rtl.RegNone && int(r) >= n {
					n = int(r) + 1
				}
			}
		}
	}
	return n
}

// regSolver is the kernel client of both register analyses: a forward
// problem whose state is a regLattice — ⌈width/64⌉ mask words and width
// value words — with the lattice's own meet and equality, the values of
// unknown registers being don't-cares. The block count and the register
// width are invariant while the phase runs, so one reset serves every
// turn of an application.
type regSolver struct {
	n, width, words int // blocks, registers, mask words per state
	flow            rtl.Flow
	f               *rtl.Func                                // the running solve's function
	step            func(*regSolver, regLattice, *rtl.Instr) // and its per-instruction transfer
	// copiedBy[r] are the registers some state of the running solve has
	// recorded as copies of r — a superset of the copies of r any one
	// state holds, so killing r's copies tests those cells, not all.
	copiedBy []uint64
}

func (sv *regSolver) reset(n, width int) {
	sv.n, sv.width, sv.words = n, width, (width+63)/64
	sv.flow.Words = sv.words + width
	sv.flow.State = rtl.Resize(sv.flow.State, (2*n+1)*sv.flow.Words)
	sv.flow.Marks = rtl.Resize(sv.flow.Marks, 2*n)
	sv.copiedBy = rtl.Resize(sv.copiedBy, width*sv.words)
}

func (sv *regSolver) lattice(s []uint64) regLattice {
	return regLattice{known: s[:sv.words], val: s[sv.words:]}
}

// state is the i-th state: block i's entry for i < n, block i-n's exit
// for i < 2n.
func (sv *regSolver) state(i int) regLattice { return sv.lattice(sv.flow.At(i)) }

func (sv *regSolver) meet(acc, x []uint64)     { sv.lattice(acc).meet(sv.lattice(x)) }
func (sv *regSolver) equal(a, b []uint64) bool { return sv.lattice(a).equal(sv.lattice(b)) }
func (sv *regSolver) transferBlock(b int, s []uint64) {
	l := sv.lattice(s)
	for i := range sv.f.Blocks[b].Instrs {
		sv.step(sv, l, &sv.f.Blocks[b].Instrs[i])
	}
}

// constTransfer updates the constant state across one instruction.
func (sv *regSolver) constTransfer(s regLattice, in *rtl.Instr) {
	var buf [8]rtl.Reg
	if in.Op == rtl.OpMov && int(in.Dst) < sv.width {
		if in.A.Kind == rtl.OperImm {
			s.set(in.Dst, in.A.Imm)
			return
		}
		if in.A.Kind == rtl.OperReg && s.has(in.A.Reg) {
			// Propagate the constant through the copy.
			s.set(in.Dst, s.get(in.A.Reg))
			return
		}
	}
	for _, r := range in.Defs(buf[:0]) {
		s.kill(r)
	}
}

// substConstOperand replaces reads of registers with known constants
// by immediate operands where the machine encoding allows it.
func substConstOperand(in *rtl.Instr, s regLattice, d *machine.Desc) bool {
	changed := false
	constOf := func(o rtl.Operand) (int32, bool) {
		if o.Kind != rtl.OperReg || !s.has(o.Reg) {
			return 0, false
		}
		return s.get(o.Reg), true
	}
	switch {
	case in.Op == rtl.OpMov:
		if v, ok := constOf(in.A); ok && d.LegalImm(rtl.OpMov, v) {
			in.A = rtl.Imm(v)
			changed = true
		}
	case in.Op == rtl.OpCmp:
		if v, ok := constOf(in.B); ok && d.LegalImm(rtl.OpCmp, v) {
			in.B = rtl.Imm(v)
			changed = true
		}
	case in.Op.IsALU():
		// Prefer folding into the immediate-capable B position; when
		// only A is constant, commute or use reverse-subtract.
		if v, ok := constOf(in.B); ok && d.LegalImm(in.Op, v) {
			in.B = rtl.Imm(v)
			changed = true
		}
		if v, ok := constOf(in.A); ok && in.B.Kind == rtl.OperReg {
			switch {
			case in.Op.Commutative() && d.LegalImm(in.Op, v):
				in.A, in.B = in.B, rtl.Imm(v)
				changed = true
			case in.Op == rtl.OpSub && d.LegalImm(rtl.OpRsb, v):
				// c - r  ==  rsb r, #c
				in.Op = rtl.OpRsb
				in.A, in.B = in.B, rtl.Imm(v)
				changed = true
			}
		}
	}
	return changed
}

// copyTransfer updates the copy state across one instruction. For a
// copy state, a known d means register val[d] currently holds the same
// value as d.
func (sv *regSolver) copyTransfer(s regLattice, in *rtl.Instr) {
	var buf [8]rtl.Reg
	if in.Op == rtl.OpMov && in.A.Kind == rtl.OperReg && int(in.Dst) < sv.width {
		src := in.A.Reg
		dst := in.Dst
		// Kill copies reading the overwritten register.
		sv.killCopiesOf(s, dst)
		s.kill(dst)
		if dst != src && src != rtl.RegSP && dst != rtl.RegSP && int(src) < sv.width {
			// Propagate through chains so the replacement survives
			// longer.
			final := src
			if s.has(src) {
				final = rtl.Reg(s.get(src))
			}
			if final != dst {
				s.set(dst, int32(final))
				sv.copiedBy[int(final)*sv.words+int(dst>>6)] |= 1 << (dst & 63)
			}
		}
		return
	}
	for _, r := range in.Defs(buf[:0]) {
		if int(r) >= sv.width {
			continue
		}
		s.kill(r)
		sv.killCopiesOf(s, r)
	}
}

// killCopiesOf forgets every copy of r that s holds.
func (sv *regSolver) killCopiesOf(s regLattice, r rtl.Reg) {
	for w, m := range sv.copiedBy[int(r)*sv.words : (int(r)+1)*sv.words] {
		for m &= s.known[w]; m != 0; m &= m - 1 {
			if d := w<<6 | bits.TrailingZeros64(m); s.get(rtl.Reg(d)) == int32(r) {
				s.known[w] &^= m & -m
			}
		}
	}
}

// solve runs the forward problem with the given transfer through the
// kernel, leaving every block's entry state in sv.state(block) (valid
// until the next solve).
func (sv *regSolver) solve(f *rtl.Func, g *rtl.CFG, transfer func(*regSolver, regLattice, *rtl.Instr)) {
	// A block the iteration never enters (it is unreachable) knows
	// nothing on entry; every other entry state is overwritten.
	for b := 0; b < sv.n; b++ {
		clear(sv.state(b).known)
	}
	sv.f, sv.step = f, transfer
	g.Solve(&sv.flow)
}

func propagateConstants(f *rtl.Func, g *rtl.CFG, sv *regSolver, d *machine.Desc) bool {
	sv.solve(f, g, (*regSolver).constTransfer)
	changed := false
	for bpos, b := range f.Blocks {
		s := sv.state(bpos)
		for i := range b.Instrs {
			if substConstOperand(&b.Instrs[i], s, d) {
				changed = true
			}
			sv.constTransfer(s, &b.Instrs[i])
		}
	}
	return changed
}

// propagateCopies replaces each use of a known copy by the copy's
// source. It reports whether it changed the code and whether it
// rewrote a move, the one rewrite that can change what its own solve
// found (Apply).
func propagateCopies(f *rtl.Func, g *rtl.CFG, sv *regSolver) (changed, moved bool) {
	clear(sv.copiedBy)
	sv.solve(f, g, (*regSolver).copyTransfer)
	var buf [8]rtl.Reg
	for bpos, b := range f.Blocks {
		s := sv.state(bpos)
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			for _, u := range instr.Uses(buf[:0]) {
				if s.has(u) && instr.ReplaceUses(u, rtl.R(rtl.Reg(s.get(u)))) {
					changed = true
					moved = moved || instr.Op == rtl.OpMov
				}
			}
			sv.copyTransfer(s, instr)
		}
	}
	return changed, moved
}

// ---------------------------------------------------------------------------
// Global common subexpression elimination.

// exprKey identifies a computed expression. Commutative operand pairs
// are stored in canonical order. Loads carry the base register and
// displacement plus a scalar-slot marker used for kill precision.
type exprKey struct {
	op     rtl.Op
	a, b   rtl.Operand
	disp   int32
	sym    uint16
	scalar bool
}

// hash mixes the key's fields for the numbering table. scalar is left
// out: it is a function of the base register and the displacement.
func (k *exprKey) hash() uint32 {
	const mul = 0x9E3779B97F4A7C15
	h := uint64(k.op) | uint64(k.a.Kind)<<8 | uint64(k.a.Reg)<<16 | uint64(uint32(k.a.Imm))<<32
	h = h*mul ^ (uint64(k.b.Kind)<<8 | uint64(k.b.Reg)<<16 | uint64(uint32(k.b.Imm))<<32)
	h = h*mul ^ (uint64(uint32(k.disp)) | uint64(k.sym)<<32)
	return uint32(h * mul >> 32)
}

// exprOf returns the expression computed by a pure register-defining
// instruction, and whether it is a candidate for CSE.
func exprOf(f *rtl.Func, in *rtl.Instr) (exprKey, bool) {
	switch in.Op {
	case rtl.OpMovHi:
		return exprKey{op: in.Op, sym: in.Sym}, true
	case rtl.OpAddLo:
		return exprKey{op: in.Op, a: in.A, sym: in.Sym}, true
	case rtl.OpNeg, rtl.OpNot:
		return exprKey{op: in.Op, a: in.A}, true
	case rtl.OpLoad:
		k := exprKey{op: in.Op, a: in.A, disp: in.Disp}
		if in.A.IsReg(rtl.RegSP) {
			if sl := f.SlotAt(in.Disp); sl != nil && sl.Scalar {
				k.scalar = true
			}
		}
		return k, true
	}
	if in.Op.IsALU() {
		a, b := in.A, in.B
		if in.Op.Commutative() && operandLess(b, a) {
			a, b = b, a
		}
		return exprKey{op: in.Op, a: a, b: b}, true
	}
	return exprKey{}, false
}

// operandLess orders operands for canonicalization.
func operandLess(x, y rtl.Operand) bool {
	if x.Kind != y.Kind {
		return x.Kind < y.Kind
	}
	if x.Kind == rtl.OperReg {
		return x.Reg < y.Reg
	}
	return x.Imm < y.Imm
}

func exprUsesReg(k exprKey, r rtl.Reg) bool {
	return k.a.IsReg(r) || k.b.IsReg(r)
}

// valueSite is one place an expression's value can be found: the
// expression and a register some instruction computes it into. The
// available-expression states are sets of value sites, one bit each.
type valueSite struct {
	expr int32   // expression number
	reg  rtl.Reg // the holding register
	next int32   // the expression's next site, -1 after its last
}

// exprSolver is the available-expression analysis over bit sets. Every
// turn numbers the code as it then stands: one pass hashes each
// instruction's exprKey to an expression number and each (expression,
// destination) pair that may enter a state to a value site, after which
// a state is ⌈sites/64⌉ words, meet is AND, equality a word compare,
// and an instruction's transfer is
//
//	s &^= kill[i]; if s&same[e] == 0 { s |= bit(gen[i]) }
//
// with every mask computed once per turn from the sites: same[e] are
// expression e's sites; regKill[r] the sites r holds or feeds as an
// operand; loads the sites of loads a pointer store or a call may
// change; slotLoads the sites of loads from one scalar slot. kill[i]
// is the union instruction i's definitions and memory effect select.
//
// The set is exact — nothing an ordered list of (expression, holder)
// pairs would say is lost: a state never holds two sites of one
// expression, because a site enters only when none of its expression
// is present (the transfer above) and meet and kill only remove. So
// "which register holds e" has at most one answer in any state — the
// set of pairs is all there is to know, and no order of entries to
// preserve.
type exprSolver struct {
	width int // registers the function references (usedRegWidth)
	words int // words per state and per mask

	table []int32     // open-addressed: expression number + 1 by exprKey hash, 0 free
	exprs []exprKey   // by expression number
	head  []int32     // by expression number: its first site, -1 none
	sites []valueSite // by site number, the bit it takes in a state
	slots []int32     // displacements of the scalar slots some expression loads

	start []int32 // by block position: its first instruction's number; then the count
	expr  []int32 // by instruction: the expression it computes, -1 none
	gen   []int32 // by instruction: the site it makes available, -1 none

	mem       []uint64 // backs everything below
	same      []uint64 // by expression
	regKill   []uint64 // by register
	loads     []uint64
	slotLoads []uint64 // by index into slots
	kill      []uint64 // by instruction
	flow      rtl.Flow // the states: block entries, block exits, one scratch
}

// mask is the i-th mask (or state) of an array of them.
func (es *exprSolver) mask(of []uint64, i int) []uint64 {
	return of[i*es.words : (i+1)*es.words]
}

// number assigns k its expression number.
func (es *exprSolver) number(k *exprKey) int32 {
	mask := uint32(len(es.table) - 1)
	for h := k.hash() & mask; ; h = (h + 1) & mask {
		e := es.table[h] - 1
		if e < 0 {
			e = int32(len(es.exprs))
			es.table[h] = e + 1
			es.exprs = append(es.exprs, *k)
			es.head = append(es.head, -1)
			if k.scalar && !slices.Contains(es.slots, k.disp) {
				es.slots = append(es.slots, k.disp)
			}
			return e
		}
		if es.exprs[e] == *k {
			return e
		}
	}
}

// site assigns the pair (e, r) its site number.
func (es *exprSolver) site(e int32, r rtl.Reg) int32 {
	for s := es.head[e]; s >= 0; s = es.sites[s].next {
		if es.sites[s].reg == r {
			return s
		}
	}
	s := int32(len(es.sites))
	es.sites = append(es.sites, valueSite{expr: e, reg: r, next: es.head[e]})
	es.head[e] = s
	return s
}

// prepare numbers f and builds the masks, reporting whether there is
// any value site at all: without one nothing is ever available.
func (es *exprSolver) prepare(f *rtl.Func) bool {
	n := len(f.Blocks)
	instrs := 0
	for _, b := range f.Blocks {
		instrs += len(b.Instrs)
	}
	size := 8
	for size < 2*instrs {
		size <<= 1
	}
	es.table = rtl.Resize(es.table, size)
	clear(es.table)
	es.exprs, es.head, es.sites, es.slots = es.exprs[:0], es.head[:0], es.sites[:0], es.slots[:0]
	es.start = rtl.Resize(es.start, n+1)
	es.expr = rtl.Resize(es.expr, instrs)
	es.gen = rtl.Resize(es.gen, instrs)
	i := 0
	for bpos, b := range f.Blocks {
		es.start[bpos] = int32(i)
		for j := range b.Instrs {
			in := &b.Instrs[j]
			es.expr[i], es.gen[i] = -1, -1
			if k, ok := exprOf(f, in); ok {
				e := es.number(&k)
				es.expr[i] = e
				if in.Dst != rtl.RegNone && !exprUsesReg(k, in.Dst) {
					es.gen[i] = es.site(e, in.Dst)
				}
			}
			i++
		}
	}
	es.start[n] = int32(i)
	if len(es.sites) == 0 {
		return false
	}

	w := (len(es.sites) + 63) / 64
	es.words = w
	masks := len(es.exprs) + es.width + 1 + len(es.slots) + instrs
	mem := rtl.Resize(es.mem, (masks+2*n+1)*w)
	es.mem = mem
	clear(mem[:masks*w]) // the states are written before they are read
	take := func(count int) []uint64 {
		s := mem[:count*w]
		mem = mem[count*w:]
		return s
	}
	es.same, es.regKill, es.loads = take(len(es.exprs)), take(es.width), take(1)
	es.slotLoads, es.kill, es.flow.State = take(len(es.slots)), take(instrs), take(2*n+1)
	es.flow.Words = w
	es.flow.Marks = rtl.Resize(es.flow.Marks, 2*n)

	for s, site := range es.sites {
		k := &es.exprs[site.expr]
		word, bit := s>>6, uint64(1)<<(s&63)
		es.mask(es.same, int(site.expr))[word] |= bit
		es.mask(es.regKill, int(site.reg))[word] |= bit
		if k.a.Kind == rtl.OperReg {
			es.mask(es.regKill, int(k.a.Reg))[word] |= bit
		}
		if k.b.Kind == rtl.OperReg {
			es.mask(es.regKill, int(k.b.Reg))[word] |= bit
		}
		if k.op == rtl.OpLoad {
			if k.scalar {
				es.mask(es.slotLoads, slices.Index(es.slots, k.disp))[word] |= bit
			} else {
				es.loads[word] |= bit
			}
		}
	}

	var buf [8]rtl.Reg
	i = 0
	for _, b := range f.Blocks {
		for j := range b.Instrs {
			in := &b.Instrs[j]
			kill := es.mask(es.kill, i)
			// Memory invalidation: loads killed by stores and calls, with
			// scalar-slot precision (a slot whose address is never taken
			// survives aliased stores and calls).
			switch in.Op {
			case rtl.OpStore:
				scalarStore := false
				if in.B.IsReg(rtl.RegSP) {
					if sl := f.SlotAt(in.Disp); sl != nil && sl.Scalar {
						scalarStore = true
					}
				}
				if !scalarStore {
					orInto(kill, es.loads)
				} else if slot := slices.Index(es.slots, in.Disp); slot >= 0 {
					orInto(kill, es.mask(es.slotLoads, slot))
				}
			case rtl.OpCall:
				orInto(kill, es.loads)
			}
			for _, d := range in.Defs(buf[:0]) {
				orInto(kill, es.mask(es.regKill, int(d)))
			}
			i++
		}
	}
	return true
}

// transfer updates state s across instruction i, as numbered.
func (es *exprSolver) transfer(s []uint64, i int32) {
	andNot(s, es.mask(es.kill, int(i)))
	if site := es.gen[i]; site >= 0 && disjoint(s, es.mask(es.same, int(es.expr[i]))) {
		s[site>>6] |= 1 << (site & 63)
	}
}

// holder returns the register holding expression e in state s.
func (es *exprSolver) holder(s []uint64, e int32) (rtl.Reg, bool) {
	for w, m := range es.mask(es.same, int(e)) {
		if m &= s[w]; m != 0 {
			return es.sites[w<<6|bits.TrailingZeros64(m)].reg, true
		}
	}
	return rtl.RegNone, false
}

// transferBlock is the kernel's view of transfer: the state across the
// whole of block b.
func (es *exprSolver) transferBlock(b int, s []uint64) {
	for i := es.start[b]; i < es.start[b+1]; i++ {
		es.transfer(s, i)
	}
}

// solve computes every block's entry state (state i for block i):
// forward, intersection.
func (es *exprSolver) solve(g *rtl.CFG) {
	// A block the iteration never enters (it is unreachable) has
	// nothing available on entry; every other entry state is
	// overwritten.
	clear(es.flow.State[:(len(es.start)-1)*es.words])
	g.Solve(&es.flow)
}

func eliminateCommonSubexprs(f *rtl.Func, g *rtl.CFG, es *exprSolver) bool {
	if !es.prepare(f) {
		return false
	}
	es.solve(g)
	changedCode := false
	for bpos, b := range f.Blocks {
		s := es.flow.At(bpos)
		// i numbers the instructions as prepare met them, pos follows
		// them through the removals.
		pos := 0
		for i := es.start[bpos]; i < es.start[bpos+1]; i++ {
			if e := es.expr[i]; e >= 0 {
				if holder, avail := es.holder(s, e); avail {
					instr := &b.Instrs[pos]
					if holder == instr.Dst {
						// The register already holds this value: the
						// recomputation is a no-op and is removed.
						b.Remove(pos)
						changedCode = true
						continue
					}
					// The value is already in holder: replace the
					// recomputation with a move, whose transfer ends
					// what its destination held or fed.
					*instr = rtl.NewMov(instr.Dst, rtl.R(holder))
					changedCode = true
					if int(instr.Dst) < es.width {
						andNot(s, es.mask(es.regKill, int(instr.Dst)))
					}
					pos++
					continue
				}
			}
			es.transfer(s, i)
			pos++
		}
	}
	return changedCode
}
