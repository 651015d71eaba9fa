package opt

import (
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
// The fixpoint is reached when each sub-pass has run dormant on the
// code as it now stands, that is, when the last three turns changed
// nothing: a sub-pass is a deterministic function of the code, so one
// that was dormant since the last change would be dormant again, and
// running it to prove so (as whole rounds of three once did) cannot
// alter the outcome. The repeated application starts where this one
// stopped and finds three dormant turns.
func (CommonSubexprElim) Apply(f *rtl.Func, d *machine.Desc) bool {
	// One CFG serves every turn: no sub-pass changes block structure
	// or terminators (operand substitution, use replacement and the
	// removal of pure recomputations leave each block's control
	// instruction — and hence the successor sets — untouched).
	g := rtl.CFGOf(f)
	sv := newRegSolver(len(f.Blocks), usedRegWidth(f))
	es := newExprSolver(len(f.Blocks))
	changed := false
	for turn, dormant := 0, 0; dormant < 3; turn++ {
		var did bool
		switch turn % 3 {
		case 0:
			did = propagateConstants(f, g, sv, d)
		case 1:
			did = propagateCopies(f, g, sv)
		case 2:
			did = eliminateCommonSubexprs(f, g, es)
		}
		if did {
			changed, dormant = true, 0
		} else {
			dormant++
		}
	}
	return changed
}

// ---------------------------------------------------------------------------
// Global constant and copy propagation.
//
// Both analyses use flat per-register arrays rather than maps: the
// exhaustive search evaluates these transfer functions hundreds of
// thousands of times, and after register assignment a function only
// touches a handful of registers.

// regCell is one register's lattice slot: for constant propagation
// val holds the known constant, for copy propagation src holds the
// copy source.
type regCell struct {
	known bool
	src   rtl.Reg
	val   int32
}

// regLattice is a forward dataflow state with one slot per register,
// kept in a single pointer-free allocation because the search
// evaluates these transfer functions hundreds of thousands of times.
// A nil *regLattice is TOP.
type regLattice struct {
	cells []regCell
}

// meetInto intersects other into s, reporting whether s changed.
func (s *regLattice) meetInto(other *regLattice) bool {
	changed := false
	for i := range s.cells {
		c := &s.cells[i]
		if !c.known {
			continue
		}
		o := &other.cells[i]
		if !o.known || c.val != o.val || c.src != o.src {
			c.known = false
			changed = true
		}
	}
	return changed
}

func (s *regLattice) equal(o *regLattice) bool {
	for i := range s.cells {
		a, b := &s.cells[i], &o.cells[i]
		if a.known != b.known {
			return false
		}
		if a.known && (a.val != b.val || a.src != b.src) {
			return false
		}
	}
	return true
}

func (s *regLattice) kill(r rtl.Reg) {
	if int(r) < len(s.cells) {
		s.cells[r].known = false
	}
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

// constTransfer updates the constant state across one instruction.
func constTransfer(s *regLattice, in *rtl.Instr) {
	var buf [8]rtl.Reg
	if in.Op == rtl.OpMov && int(in.Dst) < len(s.cells) {
		if in.A.Kind == rtl.OperImm {
			s.cells[in.Dst] = regCell{known: true, val: in.A.Imm, src: rtl.RegNone}
			return
		}
		if in.A.Kind == rtl.OperReg && int(in.A.Reg) < len(s.cells) && s.cells[in.A.Reg].known {
			// Propagate the constant through the copy.
			s.cells[in.Dst] = regCell{known: true, val: s.cells[in.A.Reg].val, src: rtl.RegNone}
			return
		}
	}
	for _, r := range in.Defs(buf[:0]) {
		s.kill(r)
	}
}

// substConstOperand replaces reads of registers with known constants
// by immediate operands where the machine encoding allows it.
func substConstOperand(in *rtl.Instr, s *regLattice, d *machine.Desc) bool {
	changed := false
	constOf := func(o rtl.Operand) (int32, bool) {
		if o.Kind != rtl.OperReg || int(o.Reg) >= len(s.cells) || !s.cells[o.Reg].known {
			return 0, false
		}
		return s.cells[o.Reg].val, true
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
// copy state, known[d] means src[d] currently holds the same value as
// d.
func copyTransfer(s *regLattice, in *rtl.Instr) {
	var buf [8]rtl.Reg
	if in.Op == rtl.OpMov && in.A.Kind == rtl.OperReg && int(in.Dst) < len(s.cells) {
		src := in.A.Reg
		dst := in.Dst
		// Kill copies reading the overwritten register.
		for i := range s.cells {
			if s.cells[i].known && s.cells[i].src == dst {
				s.cells[i].known = false
			}
		}
		s.cells[dst].known = false
		if dst != src && src != rtl.RegSP && dst != rtl.RegSP && int(src) < len(s.cells) {
			// Propagate through chains so the replacement survives
			// longer.
			final := src
			if s.cells[src].known && s.cells[src].src != rtl.RegNone {
				final = s.cells[src].src
			}
			if final != dst {
				s.cells[dst] = regCell{known: true, src: final}
			}
		}
		return
	}
	for _, r := range in.Defs(buf[:0]) {
		if int(r) >= len(s.cells) {
			continue
		}
		s.cells[r].known = false
		for i := range s.cells {
			if s.cells[i].known && s.cells[i].src == r {
				s.cells[i].known = false
			}
		}
	}
}

// regSolver owns the lattice storage for solve: one pointer-free cell
// array holding every block's entry and exit state plus a scratch
// state. It is allocated once per phase application and reused by
// every sub-pass and fixpoint round — the block count and register
// width are both invariant while the phase runs, and this solver runs
// hundreds of thousands of times per enumeration.
type regSolver struct {
	width int
	cells []regCell
	lat   []regLattice
	ins   []*regLattice
	outs  []*regLattice
}

func newRegSolver(n, width int) *regSolver {
	sv := &regSolver{
		width: width,
		cells: make([]regCell, (2*n+1)*width),
		lat:   make([]regLattice, 2*n),
		ins:   make([]*regLattice, n),
		outs:  make([]*regLattice, n),
	}
	for i := range sv.lat {
		sv.lat[i] = regLattice{cells: sv.cells[i*width : (i+1)*width]}
	}
	return sv
}

// solve runs a forward intersection dataflow with the given transfer
// function and returns per-block entry states (valid until the next
// solve call). The fixpoint iterates with the single scratch state
// instead of cloning per block per pass.
func (sv *regSolver) solve(f *rtl.Func, g *rtl.CFG, transfer func(*regLattice, *rtl.Instr)) []*regLattice {
	n := len(sv.ins)
	lat, ins, outs := sv.lat, sv.ins, sv.outs
	for i := range ins {
		ins[i], outs[i] = nil, nil
	}
	scratch := regLattice{cells: sv.cells[2*n*sv.width:]}
	rpo := g.RPO()
	for changed := true; changed; {
		changed = false
		for _, bpos := range rpo {
			in := &scratch
			if bpos == 0 {
				clear(in.cells)
			} else {
				have := false
				for _, p := range g.Preds[bpos] {
					if outs[p] == nil {
						continue // TOP
					}
					if !have {
						copy(in.cells, outs[p].cells)
						have = true
					} else {
						in.meetInto(outs[p])
					}
				}
				if !have {
					if len(g.Preds[bpos]) == 0 {
						clear(in.cells)
					} else {
						continue
					}
				}
			}
			ins[bpos] = &lat[bpos]
			copy(lat[bpos].cells, in.cells)
			for i := range f.Blocks[bpos].Instrs {
				transfer(in, &f.Blocks[bpos].Instrs[i])
			}
			if outs[bpos] == nil || !in.equal(outs[bpos]) {
				outs[bpos] = &lat[n+bpos]
				copy(lat[n+bpos].cells, in.cells)
				changed = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if ins[i] == nil {
			ins[i] = &lat[i]
			clear(lat[i].cells)
		}
	}
	return ins
}

func propagateConstants(f *rtl.Func, g *rtl.CFG, sv *regSolver, d *machine.Desc) bool {
	ins := sv.solve(f, g, constTransfer)
	changed := false
	for bpos, b := range f.Blocks {
		s := ins[bpos]
		for i := range b.Instrs {
			if substConstOperand(&b.Instrs[i], s, d) {
				changed = true
			}
			constTransfer(s, &b.Instrs[i])
		}
	}
	return changed
}

func propagateCopies(f *rtl.Func, g *rtl.CFG, sv *regSolver) bool {
	ins := sv.solve(f, g, copyTransfer)
	changed := false
	var buf [8]rtl.Reg
	for bpos, b := range f.Blocks {
		s := ins[bpos]
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			for _, u := range instr.Uses(buf[:0]) {
				if int(u) < len(s.cells) && s.cells[u].known {
					if instr.ReplaceUses(u, rtl.R(s.cells[u].src)) {
						changed = true
					}
				}
			}
			copyTransfer(s, instr)
		}
	}
	return changed
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
	sym    string
	scalar bool
}

// exprState is the set of available expressions with the register
// holding each value. It is a small slice rather than a map: the hot
// path of the exhaustive search hashes these states millions of times,
// and a block rarely has more than a dozen expressions available.
type exprEntry struct {
	key exprKey
	reg rtl.Reg
}

type exprState []exprEntry

func (s exprState) lookup(k exprKey) (rtl.Reg, bool) {
	for i := range s {
		if s[i].key == k {
			return s[i].reg, true
		}
	}
	return rtl.RegNone, false
}

// meetInto intersects other into s (entries must agree on the holding
// register), returning the reduced state.
func meetExpr(s, other exprState) exprState {
	out := s[:0]
	for _, e := range s {
		if r, ok := other.lookup(e.key); ok && r == e.reg {
			out = append(out, e)
		}
	}
	return out
}

func exprEqual(a, b exprState) bool {
	if len(a) != len(b) {
		return false
	}
	for _, e := range a {
		if r, ok := b.lookup(e.key); !ok || r != e.reg {
			return false
		}
	}
	return true
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

// exprTransfer updates the state across one instruction, returning the
// (possibly reduced) slice.
func exprTransfer(f *rtl.Func, s exprState, in *rtl.Instr) exprState {
	var buf [8]rtl.Reg
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
		out := s[:0]
		for _, e := range s {
			if e.key.op == rtl.OpLoad {
				if scalarStore {
					if e.key.scalar && e.key.disp == in.Disp {
						continue
					}
				} else if !e.key.scalar {
					continue
				}
			}
			out = append(out, e)
		}
		s = out
	case rtl.OpCall:
		out := s[:0]
		for _, e := range s {
			if e.key.op == rtl.OpLoad && !e.key.scalar {
				continue
			}
			out = append(out, e)
		}
		s = out
	}
	k, isExpr := exprOf(f, in)
	defs := in.Defs(buf[:0])
	if len(defs) > 0 {
		out := s[:0]
		for _, e := range s {
			killed := false
			for _, d := range defs {
				if e.reg == d || exprUsesReg(e.key, d) {
					killed = true
					break
				}
			}
			if !killed {
				out = append(out, e)
			}
		}
		s = out
	}
	if isExpr && in.Dst != rtl.RegNone && !exprUsesReg(k, in.Dst) {
		if _, exists := s.lookup(k); !exists {
			s = append(s, exprEntry{key: k, reg: in.Dst})
		}
	}
	return s
}

// exprSolver owns the per-block available-expression states and the
// scratch slices of eliminateCommonSubexprs, allocated once per phase
// application; each round rebuilds the states by appending into the
// retained backings.
type exprSolver struct {
	ins, outs []exprState
	computed  []bool // an empty slice is a valid state; track TOP separately
	tmp, sbuf exprState
}

func newExprSolver(n int) *exprSolver {
	return &exprSolver{
		ins:      make([]exprState, n),
		outs:     make([]exprState, n),
		computed: make([]bool, n),
	}
}

func eliminateCommonSubexprs(f *rtl.Func, g *rtl.CFG, es *exprSolver) bool {
	ins, outs, computed := es.ins, es.outs, es.computed
	for i := range ins {
		ins[i] = ins[i][:0]
		computed[i] = false // stale outs are dead: the first visit rewrites them
	}
	rpo := g.RPO()
	// Each slot in ins/outs keeps its backing array across fixpoint
	// iterations (states are recomputed by appending into slot[:0]), and
	// one scratch slice carries the transfer results; the previous
	// clone-per-block-per-iteration scheme dominated the allocation
	// profile of the whole enumeration.
	tmp := es.tmp
	for changed := true; changed; {
		changed = false
		for _, bpos := range rpo {
			in := ins[bpos][:0]
			haveIn := false
			if bpos == 0 {
				haveIn = true
			} else {
				for _, p := range g.Preds[bpos] {
					if !computed[p] {
						continue // TOP
					}
					if !haveIn {
						in = append(in, outs[p]...)
						haveIn = true
					} else {
						in = meetExpr(in, outs[p])
					}
				}
				if !haveIn {
					if len(g.Preds[bpos]) == 0 {
						haveIn = true
					} else {
						continue
					}
				}
			}
			ins[bpos] = in
			out := append(tmp[:0], in...)
			for i := range f.Blocks[bpos].Instrs {
				out = exprTransfer(f, out, &f.Blocks[bpos].Instrs[i])
			}
			tmp = out
			if !computed[bpos] || !exprEqual(out, outs[bpos]) {
				outs[bpos] = append(outs[bpos][:0], out...)
				computed[bpos] = true
				changed = true
			}
		}
	}

	es.tmp = tmp
	changedCode := false
	sbuf := es.sbuf
	for bpos, b := range f.Blocks {
		s := append(sbuf[:0], ins[bpos]...)
		for i := 0; i < len(b.Instrs); i++ {
			instr := &b.Instrs[i]
			if k, ok := exprOf(f, instr); ok {
				if holder, avail := s.lookup(k); avail {
					if holder == instr.Dst {
						// The register already holds this value: the
						// recomputation is a no-op and is removed.
						b.Remove(i)
						i--
						changedCode = true
						continue
					}
					// The value is already in holder: replace the
					// recomputation with a move.
					*instr = rtl.NewMov(instr.Dst, rtl.R(holder))
					changedCode = true
				}
			}
			s = exprTransfer(f, s, instr)
		}
		sbuf = s
	}
	es.sbuf = sbuf
	return changedCode
}
