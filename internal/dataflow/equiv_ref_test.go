package dataflow

// The map-based canonicalizer as it stood before the value numbering and
// the encoder moved to pooled dense arrays (gvn.go, equiv.go), kept
// verbatim — identifiers that would collide with their replacements
// carry a ref prefix, nothing else changed — as the reference
// TestEquivEncodeMatchesReference and FuzzEquivInvariance hold the
// replacement to, byte for byte. The two share only what neither
// rewrote: the terminator, label and position constants and fwdUnknown.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/mibench"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/rtl"
)

// refVNState is the register→value-number map flowing through one block.
type refVNState map[rtl.Reg]int

// refVNBuilder assigns dominator-scoped value numbers. Expressions are
// hash-consed globally; a register's number is inherited from the
// closest processed dominator only when every definition of that
// register dominates the inheriting block, which makes the carried
// value unambiguous without SSA construction. Registers without an
// inheritable number get a fresh one at first use, scoped to the
// block that introduced it.
type refVNBuilder struct {
	g         *rtl.CFG
	reach     []bool
	reachTo   []rtl.BlockSet // transitive successor closure per block
	defBlocks map[rtl.Reg][]int
	exprs     map[string]int
	next      int
	states    []refVNState // per-block exit state, nil until processed
	key       []byte
}

func newRefVNBuilder(g *rtl.CFG) *refVNBuilder {
	v := &refVNBuilder{
		g:         g,
		reach:     g.Reachable(),
		defBlocks: make(map[rtl.Reg][]int),
		exprs:     make(map[string]int),
		states:    make([]refVNState, len(g.Succs)),
	}
	// Transitive closure of the successor relation, a backward union
	// problem over sets of blocks: a block's top state is itself plus
	// its bottom state, everything its successors' top states hold.
	n := len(g.Succs)
	fl := rtl.Flow{
		Backward: true,
		Words:    (n + 63) / 64,
		Marks:    make([]bool, 2*n),
		Transfer: func(b int, s []uint64) { s[b>>6] |= 1 << (b & 63) },
	}
	fl.State = make([]uint64, (2*n+1)*fl.Words)
	g.Solve(&fl)
	v.reachTo = make([]rtl.BlockSet, n)
	for b := range v.reachTo {
		v.reachTo[b] = rtl.SetOver[int](fl.At(n + b))
	}
	var buf [8]rtl.Reg
	for bpos, b := range g.F.Blocks {
		if !v.reach[bpos] {
			continue // definitions in dead code never execute
		}
		seen := make(map[rtl.Reg]bool)
		for i := range b.Instrs {
			for _, r := range b.Instrs[i].Defs(buf[:0]) {
				if !seen[r] {
					seen[r] = true
					v.defBlocks[r] = append(v.defBlocks[r], bpos)
				}
			}
		}
	}
	return v
}

func (v *refVNBuilder) fresh() int {
	n := v.next
	v.next++
	return n
}

// exprVN hash-conses an expression key built in v.key.
func (v *refVNBuilder) exprVN() int {
	if n, ok := v.exprs[string(v.key)]; ok {
		return n
	}
	n := v.fresh()
	v.exprs[string(v.key)] = n
	return n
}

func (v *refVNBuilder) keyReset(tag byte) { v.key = append(v.key[:0], tag) }
func (v *refVNBuilder) keyInt(n int) {
	v.key = binary.AppendVarint(v.key, int64(n))
}
func (v *refVNBuilder) keySym(s string) {
	v.key = binary.AppendVarint(v.key, int64(len(s)))
	v.key = append(v.key, s...)
}

// inheritable reports whether register r's value number may flow from
// a dominator into block bpos. Two conditions make the carried value
// unambiguous without SSA construction: every (reachable) definition
// of r must dominate bpos, so exactly one definition is live on
// entry; and no defining block may be reachable again from bpos, or a
// back edge could re-execute the definition with different operand
// values before control returns.
func (v *refVNBuilder) inheritable(r rtl.Reg, bpos int) bool {
	for _, d := range v.defBlocks[r] {
		if !v.g.Dominates(d, bpos) || v.reachTo[bpos].Has(d) {
			return false
		}
	}
	return true
}

// entryState builds the value-number map entering bpos from the exit
// state of parent (the closest processed dominator; -1 for none).
func (v *refVNBuilder) entryState(bpos, parent int) refVNState {
	st := make(refVNState)
	if parent >= 0 {
		for r, vn := range v.states[parent] {
			if v.inheritable(r, bpos) {
				st[r] = vn
			}
		}
	}
	return st
}

// useVN returns the value number of reading register r in state st.
// An unknown register gets a fresh number on first use.
func (v *refVNBuilder) useVN(st refVNState, r rtl.Reg) int {
	if vn, ok := st[r]; ok {
		return vn
	}
	vn := v.fresh()
	st[r] = vn
	return vn
}

func (v *refVNBuilder) operandVN(st refVNState, o rtl.Operand) int {
	switch o.Kind {
	case rtl.OperReg:
		return v.useVN(st, o.Reg)
	case rtl.OperImm:
		v.keyReset('i')
		v.keyInt(int(o.Imm))
		return v.exprVN()
	}
	return -1
}

// instrVN numbers one instruction in state st, updating st with its
// definitions. It returns the destination's value number (-1 when the
// instruction defines nothing or clobbers several registers) and the
// numbers of the A and B operands (-1 when absent).
func (v *refVNBuilder) instrVN(st refVNState, in *rtl.Instr) (dst, aVN, bVN int) {
	dst, aVN, bVN = -1, -1, -1
	switch {
	case in.Op == rtl.OpMov:
		aVN = v.operandVN(st, in.A)
		dst = aVN
	case in.Op == rtl.OpMovHi:
		v.keyReset('h')
		v.keySym(in.Sym)
		dst = v.exprVN()
	case in.Op == rtl.OpAddLo:
		aVN = v.operandVN(st, in.A)
		v.keyReset('a')
		v.keyInt(aVN)
		v.keySym(in.Sym)
		dst = v.exprVN()
	case in.Op == rtl.OpNeg || in.Op == rtl.OpNot:
		aVN = v.operandVN(st, in.A)
		v.keyReset(byte(in.Op))
		v.keyInt(aVN)
		dst = v.exprVN()
	case in.Op.IsALU():
		aVN = v.operandVN(st, in.A)
		bVN = v.operandVN(st, in.B)
		x, y := aVN, bVN
		if in.Op.Commutative() && y < x {
			x, y = y, x
		}
		v.keyReset(byte(in.Op))
		v.keyInt(x)
		v.keyInt(y)
		dst = v.exprVN()
	case in.Op == rtl.OpCmp:
		aVN = v.operandVN(st, in.A)
		bVN = v.operandVN(st, in.B)
		v.keyReset('c')
		v.keyInt(aVN)
		v.keyInt(bVN)
		st[rtl.RegIC] = v.exprVN()
		return -1, aVN, bVN
	case in.Op == rtl.OpLoad:
		// Memory is not modeled: every load produces a fresh value.
		aVN = v.operandVN(st, in.A)
		dst = v.fresh()
	case in.Op == rtl.OpStore:
		aVN = v.operandVN(st, in.A)
		bVN = v.operandVN(st, in.B)
		return -1, aVN, bVN
	case in.Op == rtl.OpCall:
		for _, r := range rtl.CallerSave {
			st[r] = v.fresh()
		}
		return -1, -1, -1
	default: // Nop, Branch, Jmp, Ret
		if in.Op == rtl.OpRet && in.A.Kind == rtl.OperReg {
			aVN = v.operandVN(st, in.A)
		}
		return -1, aVN, -1
	}
	if in.Dst != rtl.RegNone {
		if dst >= 0 {
			st[in.Dst] = dst
		} else {
			delete(st, in.Dst) // malformed operand: value unknown
		}
	}
	return dst, aVN, bVN
}

// effectiveParent walks the idom chain of bpos up to the closest
// block accepted by ok (a processed, encodable block). It returns -1
// when none exists (the entry, or a chain of skipped blocks).
func (v *refVNBuilder) effectiveParent(bpos int, ok func(int) bool) int {
	idom := v.g.Dominators()
	for b := bpos; b != 0; {
		p := idom[b]
		if p < 0 {
			return -1
		}
		if ok(p) {
			return p
		}
		b = p
	}
	return -1
}

// refEquivEncoder carries the per-function canonicalization state.
type refEquivEncoder struct {
	g        *rtl.CFG
	v        *refVNBuilder
	fwd      []int // forwarder resolution per block, labelNone until memoized
	order    []int // canonical visit order (layout positions)
	label    []int // layout position -> canonical label, -1 unassigned
	regs     map[rtl.Reg]uint16
	dst      []byte
	aVN, bVN []int // operand value numbers of the current block
}

// resolveForwarder follows chains of pure-forwarder blocks (a single
// unconditional jump) starting at layout position bpos, returning the
// first non-forwarder position or -1 for a forwarder cycle.
func (e *refEquivEncoder) resolveForwarder(bpos int) int {
	if r := e.fwd[bpos]; r != fwdUnknown {
		return r
	}
	path := []int{}
	cur := bpos
	for {
		b := e.g.F.Blocks[cur]
		if len(b.Instrs) != 1 || b.Instrs[0].Op != rtl.OpJmp {
			break
		}
		e.fwd[cur] = -3 // visiting marker
		path = append(path, cur)
		next := e.g.MustPos(b.Instrs[0].Target)
		if e.fwd[next] == -3 {
			cur = -1 // jump cycle
			break
		}
		if e.fwd[next] != fwdUnknown {
			cur = e.fwd[next]
			break
		}
		cur = next
	}
	for _, p := range path {
		e.fwd[p] = cur
	}
	if e.fwd[bpos] == fwdUnknown || e.fwd[bpos] == -3 {
		e.fwd[bpos] = cur
	}
	return e.fwd[bpos]
}

// semanticTerm returns the terminator of the non-forwarder block at
// bpos with forwarder-resolved successor positions (-1 = cycle).
func (e *refEquivEncoder) semanticTerm(bpos int) (kind int, taken, fall int) {
	f := e.g.F
	b := f.Blocks[bpos]
	last := b.Last()
	next := func() int {
		if bpos+1 < len(f.Blocks) {
			return e.resolveForwarder(bpos + 1)
		}
		return posNone
	}
	switch {
	case last == nil || !last.Op.IsControl():
		if n := next(); n != posNone {
			return termGoto, n, posNone
		}
		return termNone, posNone, posNone
	case last.Op == rtl.OpJmp:
		return termGoto, e.resolveForwarder(e.g.MustPos(last.Target)), posNone
	case last.Op == rtl.OpRet:
		return termRet, posNone, posNone
	default: // OpBranch
		return termBranch, e.resolveForwarder(e.g.MustPos(last.Target)), next()
	}
}

// visit assigns canonical labels in DFS preorder over semantic
// successors: not-taken before taken, matching execution layout.
func (e *refEquivEncoder) visit(start int) {
	if start < 0 {
		return
	}
	stack := []int{start}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b < 0 || e.label[b] >= 0 {
			continue
		}
		e.label[b] = len(e.order)
		e.order = append(e.order, b)
		kind, taken, fall := e.semanticTerm(b)
		switch kind {
		case termGoto:
			stack = append(stack, taken)
		case termBranch:
			// Push taken first so not-taken is visited first.
			stack = append(stack, taken, fall)
		}
	}
}

func (e *refEquivEncoder) reg(r rtl.Reg) uint16 {
	if n, ok := e.regs[r]; ok {
		return n
	}
	n := uint16(len(e.regs))
	e.regs[r] = n
	return n
}

func (e *refEquivEncoder) u16(v uint16) { e.dst = binary.LittleEndian.AppendUint16(e.dst, v) }
func (e *refEquivEncoder) u32(v uint32) { e.dst = binary.LittleEndian.AppendUint32(e.dst, v) }
func (e *refEquivEncoder) sym(s string) {
	e.dst = append(e.dst, byte(len(s)))
	e.dst = append(e.dst, s...)
}

func (e *refEquivEncoder) targetLabel(pos int) uint16 {
	switch pos {
	case posCycle:
		return labelCycle
	case posNone:
		return labelNone
	}
	return uint16(e.label[pos])
}

// operand emits one operand.
func (e *refEquivEncoder) operand(o rtl.Operand) {
	e.dst = append(e.dst, byte(o.Kind))
	switch o.Kind {
	case rtl.OperReg:
		e.u16(e.reg(o.Reg))
	case rtl.OperImm:
		e.u32(uint32(o.Imm))
	}
}

// instr emits one non-terminator instruction. Commutative ALU
// operands are ordered by value number before register renumbering,
// so operand order differences between equivalent instances vanish.
func (e *refEquivEncoder) instr(in *rtl.Instr, idx int) {
	e.dst = append(e.dst, byte(in.Op))
	switch in.Op {
	case rtl.OpCall:
		e.dst = append(e.dst, in.NArgs)
		e.sym(in.Sym)
	case rtl.OpMovHi, rtl.OpAddLo:
		e.u16(e.reg(in.Dst))
		e.operand(in.A)
		e.sym(in.Sym)
	default:
		a, b := in.A, in.B
		if in.Op.IsALU() && in.Op.Commutative() && e.bVN[idx] < e.aVN[idx] {
			a, b = b, a
		}
		e.u16(e.reg(in.Dst))
		e.operand(a)
		e.operand(b)
		e.u32(uint32(in.Disp))
	}
}

// refEquivEncode appends the equivalence-canonical encoding of f to dst
// and returns the extended slice. Instances with equal encodings are
// semantically equivalent (see the package comment on one-sidedness);
// the search's third index tier merges them into one node.
func refEquivEncode(dst []byte, f *rtl.Func) []byte {
	g := rtl.ComputeCFG(f)
	n := len(f.Blocks)
	e := &refEquivEncoder{
		g:     g,
		fwd:   make([]int, n),
		label: make([]int, n),
		regs:  make(map[rtl.Reg]uint16, 16),
		dst:   dst,
	}
	for i := 0; i < n; i++ {
		e.fwd[i], e.label[i] = fwdUnknown, -1
	}
	// Mirror fingerprint's fixed codes for structural registers.
	e.regs[rtl.RegSP] = 0xFFF0
	e.regs[rtl.RegIC] = 0xFFF1
	e.regs[rtl.RegNone] = 0xFFFF

	e.dst = append(e.dst, byte(f.NArgs))
	if f.Returns {
		e.dst = append(e.dst, 1)
	} else {
		e.dst = append(e.dst, 0)
	}

	start := -1
	if n > 0 {
		start = e.resolveForwarder(0)
	}
	if start < 0 {
		// The whole function is an inescapable forwarder cycle.
		e.u16(labelCycle)
		return e.dst
	}
	e.visit(start)

	e.v = newRefVNBuilder(g)
	emitted := func(p int) bool { return e.v.states[p] != nil }
	for _, bpos := range e.order {
		parent := e.v.effectiveParent(bpos, emitted)
		st := e.v.entryState(bpos, parent)
		b := f.Blocks[bpos]
		instrs := b.Instrs
		kind, taken, fall := e.semanticTerm(bpos)
		if last := b.Last(); last != nil && last.Op.IsControl() {
			instrs = instrs[:len(instrs)-1]
		}
		// Value-number the block (terminator included, for IC).
		if cap(e.aVN) < len(b.Instrs) {
			e.aVN = make([]int, len(b.Instrs))
			e.bVN = make([]int, len(b.Instrs))
		}
		e.aVN, e.bVN = e.aVN[:len(b.Instrs)], e.bVN[:len(b.Instrs)]
		for i := range b.Instrs {
			_, e.aVN[i], e.bVN[i] = e.v.instrVN(st, &b.Instrs[i])
		}
		e.v.states[bpos] = st

		e.u16(uint16(e.label[bpos]))
		e.u16(uint16(len(instrs)))
		for i := range instrs {
			e.instr(&instrs[i], i)
		}
		e.dst = append(e.dst, 0xFF, byte(kind))
		switch kind {
		case termGoto:
			e.u16(e.targetLabel(taken))
		case termBranch:
			last := b.Last()
			e.dst = append(e.dst, byte(last.Rel))
			e.u16(e.targetLabel(taken))
			e.u16(e.targetLabel(fall))
		case termRet:
			last := b.Last()
			if last.A.Kind == rtl.OperReg {
				e.dst = append(e.dst, 1)
				e.u16(e.reg(last.A.Reg))
			} else {
				e.dst = append(e.dst, 0)
			}
		}
	}
	return e.dst
}

// TestEquivEncodeMatchesReference holds EquivEncode to the reference,
// byte for byte, at every instance of seeded random phase walks: from
// every corpus function, and from the generated programs
// TestGeneratedSpacesHashOneWay (internal/search) enumerates.
// FuzzEquivInvariance checks the pair on everything it mutates too.
func TestEquivEncodeMatchesReference(t *testing.T) {
	walks, depth, programs := 3, 16, 24
	if testing.Short() {
		walks, depth, programs = 1, 10, 12
	}
	t.Run("corpus", func(t *testing.T) {
		fns, err := mibench.AllFunctions()
		if err != nil {
			t.Fatal(err)
		}
		for _, tf := range fns {
			for w := 0; w < walks; w++ {
				walkEquiv(t, tf.Bench+"/"+tf.Func.Name, tf.Func, int64(w), depth)
			}
		}
	})
	t.Run("generated", func(t *testing.T) {
		cfg := randprog.Config{MaxStmts: 3, MaxDepth: 2, MaxExprDepth: 2}
		for seed := int64(0); seed < int64(programs); seed++ {
			p := randprog.New(seed, cfg)
			prog, err := mc.Compile(p.Source)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, fn := range prog.Funcs {
				for w := 0; w < walks; w++ {
					walkEquiv(t, fmt.Sprintf("randprog seed %d %s", seed, fn.Name), fn, seed+int64(w)<<32, depth)
				}
			}
		}
	})
}

// walkEquiv walks a random sequence of active phases from f and checks
// the encoding at every instance on the way.
func walkEquiv(t *testing.T, name string, f *rtl.Func, seed int64, depth int) {
	t.Helper()
	d := machine.StrongARM()
	cur := f.Clone()
	rtl.Cleanup(cur)
	var st opt.State
	rng := rand.New(rand.NewSource(seed))
	seq := ""
	for step := 0; step <= depth; step++ {
		checkEquiv(t, fmt.Sprintf("%s after %q", name, seq), cur)
		phases := opt.All()
		rng.Shuffle(len(phases), func(i, j int) { phases[i], phases[j] = phases[j], phases[i] })
		moved := false
		for _, p := range phases {
			next, nst := cur.Clone(), st
			if opt.Attempt(next, &nst, p, d) {
				cur, st, seq, moved = next, nst, seq+string(p.ID()), true
				break
			}
		}
		if !moved {
			return // a leaf of the space
		}
	}
}

// checkEquiv compares the two encoders on f, appending to a non-empty
// buffer with room to spare, as the search's workers do.
func checkEquiv(t *testing.T, what string, f *rtl.Func) {
	t.Helper()
	want := refEquivEncode([]byte{7}, f)
	got := EquivEncode(append(make([]byte, 0, 8), 7), f)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: EquivEncode differs from the reference\n got %x\nwant %x\n%s", what, got, want, f)
	}
}

// rleBlockAfterS is jpeg/rle_block after instruction selection: register
// assigned, a few dozen blocks, the function the equivalence tier
// collapses most.
func rleBlockAfterS(t testing.TB) *rtl.Func {
	fns, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range fns {
		if tf.Bench == "jpeg" && tf.Func.Name == "rle_block" {
			f := tf.Func.Clone()
			rtl.Cleanup(f)
			var st opt.State
			if !opt.Attempt(f, &st, opt.ByID('s'), machine.StrongARM()) {
				t.Fatal("s is dormant on rle_block")
			}
			return f
		}
	}
	t.Fatal("jpeg/rle_block is not in the corpus")
	return nil
}

// TestEquivEncodeAllocs is the encoder's cost guard: with a warm pool and
// a caller buffer large enough, a call allocates the graph it builds and
// its analyses — nothing per register, block or expression. The
// map-based encoder made 130 allocations here.
func TestEquivEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	f := rleBlockAfterS(t)
	buf := EquivEncode(nil, f) // warms the pool
	buf = make([]byte, 0, 2*len(buf))
	allocs := testing.AllocsPerRun(200, func() { buf = EquivEncode(buf[:0], f) })
	t.Logf("%.1f allocations per call (reference: %.1f)", allocs,
		testing.AllocsPerRun(20, func() { refEquivEncode(buf[:0], f) }))
	if allocs > 16 {
		t.Fatalf("EquivEncode makes %.1f allocations per call on rle_block, want at most 16", allocs)
	}
}

func BenchmarkEquivEncode(b *testing.B) {
	f := rleBlockAfterS(b)
	for _, enc := range []struct {
		name string
		fn   func([]byte, *rtl.Func) []byte
	}{{"dense", EquivEncode}, {"reference", refEquivEncode}} {
		b.Run(enc.name, func(b *testing.B) {
			buf := enc.fn(nil, f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = enc.fn(buf[:0], f)
			}
		})
	}
}
