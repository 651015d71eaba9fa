package opt

// The slice-based analyses of phase c as they stood before the phase
// moved to bit sets (cse.go), kept verbatim — identifiers that would
// collide with their replacements carry a ref prefix, nothing else
// changed — as the reference TestPhaseCMatchesReference holds the
// replacement to. The two share only what neither rewrote: usedRegWidth,
// exprKey, exprOf, operandLess and exprUsesReg.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/rtl"
)

// referenceCSE is CommonSubexprElim.Apply over the reference analyses.
func referenceCSE(f *rtl.Func, d *machine.Desc) bool {
	g := rtl.ComputeCFG(f)
	sv := newRefRegSolver(len(f.Blocks), usedRegWidth(f))
	es := newRefExprSolver(len(f.Blocks))
	changed := false
	for turn, dormant := 0, 0; dormant < 3; turn++ {
		var did bool
		switch turn % 3 {
		case 0:
			did = refPropagateConstants(f, g, sv, d)
		case 1:
			did = refPropagateCopies(f, g, sv)
		case 2:
			did = refEliminateCommonSubexprs(f, g, es)
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

// refRegLattice is a forward dataflow state with one slot per register,
// kept in a single pointer-free allocation because the search
// evaluates these transfer functions hundreds of thousands of times.
// A nil *refRegLattice is TOP.
type refRegLattice struct {
	cells []regCell
}

// meetInto intersects other into s, reporting whether s changed.
func (s *refRegLattice) meetInto(other *refRegLattice) bool {
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

func (s *refRegLattice) equal(o *refRegLattice) bool {
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

func (s *refRegLattice) kill(r rtl.Reg) {
	if int(r) < len(s.cells) {
		s.cells[r].known = false
	}
}

// refConstTransfer updates the constant state across one instruction.
func refConstTransfer(s *refRegLattice, in *rtl.Instr) {
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

// refSubstConstOperand replaces reads of registers with known constants
// by immediate operands where the machine encoding allows it.
func refSubstConstOperand(in *rtl.Instr, s *refRegLattice, d *machine.Desc) bool {
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

// refCopyTransfer updates the copy state across one instruction. For a
// copy state, known[d] means src[d] currently holds the same value as
// d.
func refCopyTransfer(s *refRegLattice, in *rtl.Instr) {
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

// refRegSolver owns the lattice storage for solve: one pointer-free cell
// array holding every block's entry and exit state plus a scratch
// state. It is allocated once per phase application and reused by
// every sub-pass and fixpoint round — the block count and register
// width are both invariant while the phase runs, and this solver runs
// hundreds of thousands of times per enumeration.
type refRegSolver struct {
	width int
	cells []regCell
	lat   []refRegLattice
	ins   []*refRegLattice
	outs  []*refRegLattice
}

func newRefRegSolver(n, width int) *refRegSolver {
	sv := &refRegSolver{
		width: width,
		cells: make([]regCell, (2*n+1)*width),
		lat:   make([]refRegLattice, 2*n),
		ins:   make([]*refRegLattice, n),
		outs:  make([]*refRegLattice, n),
	}
	for i := range sv.lat {
		sv.lat[i] = refRegLattice{cells: sv.cells[i*width : (i+1)*width]}
	}
	return sv
}

// solve runs a forward intersection dataflow with the given transfer
// function and returns per-block entry states (valid until the next
// solve call). The fixpoint iterates with the single scratch state
// instead of cloning per block per pass.
func (sv *refRegSolver) solve(f *rtl.Func, g *rtl.CFG, transfer func(*refRegLattice, *rtl.Instr)) []*refRegLattice {
	n := len(sv.ins)
	lat, ins, outs := sv.lat, sv.ins, sv.outs
	for i := range ins {
		ins[i], outs[i] = nil, nil
	}
	scratch := refRegLattice{cells: sv.cells[2*n*sv.width:]}
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

func refPropagateConstants(f *rtl.Func, g *rtl.CFG, sv *refRegSolver, d *machine.Desc) bool {
	ins := sv.solve(f, g, refConstTransfer)
	changed := false
	for bpos, b := range f.Blocks {
		s := ins[bpos]
		for i := range b.Instrs {
			if refSubstConstOperand(&b.Instrs[i], s, d) {
				changed = true
			}
			refConstTransfer(s, &b.Instrs[i])
		}
	}
	return changed
}

func refPropagateCopies(f *rtl.Func, g *rtl.CFG, sv *refRegSolver) bool {
	ins := sv.solve(f, g, refCopyTransfer)
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
			refCopyTransfer(s, instr)
		}
	}
	return changed
}

// ---------------------------------------------------------------------------
// Global common subexpression elimination.

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

// refExprSolver owns the per-block available-expression states and the
// scratch slices of refEliminateCommonSubexprs, allocated once per phase
// application; each round rebuilds the states by appending into the
// retained backings.
type refExprSolver struct {
	ins, outs []exprState
	computed  []bool // an empty slice is a valid state; track TOP separately
	tmp, sbuf exprState
}

func newRefExprSolver(n int) *refExprSolver {
	return &refExprSolver{
		ins:      make([]exprState, n),
		outs:     make([]exprState, n),
		computed: make([]bool, n),
	}
}

func refEliminateCommonSubexprs(f *rtl.Func, g *rtl.CFG, es *refExprSolver) bool {
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

// ---------------------------------------------------------------------------
// The differential test.

// sameCode reports whether a and b print the same RTL: the same blocks
// in the same order holding the same instructions.
func sameCode(a, b *rtl.Func) bool {
	return slices.EqualFunc(a.Blocks, b.Blocks, func(x, y *rtl.Block) bool {
		return x.ID == y.ID && slices.Equal(x.Instrs, y.Instrs)
	})
}

// checkPhaseC applies c to clones of f by both implementations and
// requires the same answer and the same code; then it runs the two turn
// by turn on the reference's schedule, each on its own clone, and
// requires every sub-pass to agree on whether it changed anything and
// on the code it left. Along the way it holds the sub-passes to the two
// properties Apply's shorter schedule rests on: no constant turn after
// the first changes code, and a copy turn is dormant when the last copy
// turn rewrote no move and no turn has changed code since.
func checkPhaseC(t *testing.T, what string, f *rtl.Func, d *machine.Desc) {
	t.Helper()
	want, got := f.Clone(), f.Clone()
	wantActive := referenceCSE(want, d)
	gotActive := CommonSubexprElim{}.Apply(got, d)
	if gotActive != wantActive || !sameCode(got, want) {
		t.Fatalf("%s: c active=%v, the reference active=%v\n--- got\n%s--- want\n%s--- from\n%s",
			what, gotActive, wantActive, got, want, f)
	}

	want, got = f.Clone(), f.Clone()
	gw, gg := rtl.ComputeCFG(want), rtl.ComputeCFG(got)
	width := usedRegWidth(f)
	rsv, res := newRefRegSolver(len(f.Blocks), width), newRefExprSolver(len(f.Blocks))
	sc := new(cseScratch)
	sc.reset(f)
	copyIdle := false // the last copy turn rewrote no move, and no turn changed code since
	for turn, dormant := 0, 0; dormant < 3; turn++ {
		var wantDid, gotDid bool
		switch turn % 3 {
		case 0:
			wantDid, gotDid = refPropagateConstants(want, gw, rsv, d), propagateConstants(got, gg, &sc.regs, d)
		case 1:
			before := got.Clone()
			var moved bool
			wantDid = refPropagateCopies(want, gw, rsv)
			gotDid, moved = propagateCopies(got, gg, &sc.regs)
			if copyIdle && gotDid {
				t.Fatalf("%s: copy turn %d changed code, though the last copy turn rewrote no move and nothing changed since\n--- before\n%s--- after\n%s--- from\n%s",
					what, turn, before, got, f)
			}
			if moved != rewroteMove(before, got) {
				t.Fatalf("%s: copy turn %d reported rewriting a move %v\n--- before\n%s--- after\n%s", what, turn, moved, before, got)
			}
			copyIdle = !moved
		case 2:
			wantDid, gotDid = refEliminateCommonSubexprs(want, gw, res), eliminateCommonSubexprs(got, gg, &sc.exprs)
		}
		if gotDid != wantDid || !sameCode(got, want) {
			t.Fatalf("%s: turn %d (sub-pass %d) changed=%v, the reference changed=%v\n--- got\n%s--- want\n%s--- from\n%s",
				what, turn, turn%3, gotDid, wantDid, got, want, f)
		}
		if turn > 0 && turn%3 == 0 && gotDid {
			t.Fatalf("%s: constant turn %d changed code after the first\n--- got\n%s--- from\n%s", what, turn, got, f)
		}
		if wantDid {
			dormant = 0
			if turn%3 != 1 {
				copyIdle = false
			}
		} else {
			dormant++
		}
	}
}

// rewroteMove reports whether a copy turn that took before to after
// gave some move a new source. Copy turns never add or remove
// instructions.
func rewroteMove(before, after *rtl.Func) bool {
	for bi, b := range after.Blocks {
		for i, in := range b.Instrs {
			if in.Op == rtl.OpMov && in != before.Blocks[bi].Instrs[i] {
				return true
			}
		}
	}
	return false
}

func TestPhaseCMatchesReference(t *testing.T) {
	walkCorpus(t, checkPhaseC)
	t.Run("many value sites", func(t *testing.T) {
		// Straight-line code whose value sites outnumber one and two
		// mask words: every instruction computes its own expression, a
		// few of them again a little later. Over pseudo registers each
		// site stays available to the end (and the registers need more
		// than one word too); over ten hardware registers a site dies
		// when its holder is reused, ten instructions on.
		for _, sites := range []int{70, 140} {
			for _, hard := range []bool{false, true} {
				f := rtl.NewFunc("sites", 1, true)
				f.RegAssigned = hard
				b := f.Entry()
				reg := func(i int) rtl.Reg {
					if hard {
						return rtl.RegR1 + rtl.Reg(i%10)
					}
					return rtl.FirstPseudo + rtl.Reg(i)
				}
				f.NextPseudo = rtl.FirstPseudo + rtl.Reg(2*sites)
				for i := 0; i < sites; i++ {
					b.Instrs = append(b.Instrs, rtl.NewALU(rtl.OpAdd, reg(i), rtl.R(rtl.RegR0), rtl.Imm(int32(i))))
					if i%7 == 6 {
						// Recomputed into another register, and into its own.
						b.Instrs = append(b.Instrs,
							rtl.NewALU(rtl.OpAdd, rtl.RegR11, rtl.R(rtl.RegR0), rtl.Imm(int32(i-3))),
							rtl.NewALU(rtl.OpAdd, reg(i-1), rtl.Imm(int32(i-1)), rtl.R(rtl.RegR0)))
					}
				}
				b.Instrs = append(b.Instrs, rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
				what := fmt.Sprintf("%d sites, hardware registers %v", sites, hard)
				checkPhaseC(t, what, f, machine.StrongARM())
				got := f.Clone()
				CommonSubexprElim{}.Apply(got, machine.StrongARM())
				if moves := strings.Count(got.String(), "r[11]=r["); moves != sites/7 {
					t.Fatalf("%s: %d of %d recomputations became moves:\n%s", what, moves, sites/7, got)
				}
				if got.NumInstrs() != f.NumInstrs()-sites/7 {
					t.Fatalf("%s: %d instructions left of %d, want %d removed:\n%s", what, got.NumInstrs(), f.NumInstrs(), sites/7, got)
				}
			}
		}
	})
	t.Run("memory kills", func(t *testing.T) {
		// Loads recomputed across a pointer store, a scalar-slot store
		// and a call: a scalar slot's load survives the first and the
		// last, every other load neither, and a store to the slot ends
		// only that slot's.
		f := rtl.NewFunc("mem", 2, true)
		f.RegAssigned = true
		x := f.AddSlot("x", 4, true)
		y := f.AddSlot("y", 4, true)
		arr := f.AddSlot("arr", 16, false)
		b := f.Entry()
		loads := func(rx, ry, rarr, rptr rtl.Reg) {
			b.Instrs = append(b.Instrs,
				rtl.NewLoad(rx, rtl.RegSP, x),
				rtl.NewLoad(ry, rtl.RegSP, y),
				rtl.NewLoad(rarr, rtl.RegSP, arr),
				rtl.NewLoad(rptr, rtl.RegR1, 0))
		}
		loads(rtl.RegR4, rtl.RegR5, rtl.RegR6, rtl.RegR7)
		b.Instrs = append(b.Instrs, rtl.NewStore(rtl.RegR0, rtl.RegR1, 4)) // through a pointer
		loads(rtl.RegR8, rtl.RegR9, rtl.RegR10, rtl.RegR11)
		b.Instrs = append(b.Instrs, rtl.NewStore(rtl.RegR0, rtl.RegSP, x)) // to scalar slot x
		loads(rtl.RegR8, rtl.RegR9, rtl.RegR10, rtl.RegR11)
		b.Instrs = append(b.Instrs, rtl.Instr{Op: rtl.OpCall, Sym: f.Intern("g"), NArgs: 1})
		loads(rtl.RegR4, rtl.RegR5, rtl.RegR6, rtl.RegR7)
		b.Instrs = append(b.Instrs, rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
		d := machine.StrongARM()
		checkPhaseC(t, "memory kills", f, d)
		got := f.Clone()
		CommonSubexprElim{}.Apply(got, d)
		want := []string{
			// after the pointer store: the scalars are copies, the others reload
			"r[8]=r[4];", "r[9]=r[5];", "r[10]=M[r[sp]+8];", "r[11]=M[r[1]];",
			// after the store to x: x reloads, y is still r5's, arr and *p (already in r10, r11) are dropped
			"M[r[sp]]=r[0];\n\tr[8]=M[r[sp]];\n\tr[9]=r[5];\n\tCALL",
			// after the call: the scalars survive (x in r8, y where it is loaded to), the others reload
			"CALL g(1);\n\tr[4]=r[8];\n\tr[6]=M[r[sp]+8];\n\tr[7]=M[r[1]];\n\tRET",
		}
		text := got.String()
		for _, w := range want {
			if !strings.Contains(text, w) {
				t.Fatalf("memory kills: no %q in\n%s", w, text)
			}
		}
	})
}
