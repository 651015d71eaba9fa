package fingerprint

import (
	"encoding/binary"
	"sync"

	"repro/internal/rtl"
)

// EquivEncode is this package's second encoder: the search's third index
// tier (Options.Equiv) merges instances whose equivalence keys are equal
// even when their canonical encodings (EncodeTo) differ. On top of the
// register renumbering the two share (remapper), it normalizes:
//
//   - block layout: blocks are emitted in a canonical DFS order over
//     *semantic* successors, so reordered layouts of the same CFG encode
//     identically;
//   - control transfer spelling: an explicit trailing jump and a
//     fall-through to the same block encode as the same terminator, and
//     chains of trivial forwarder blocks (a lone jump) are resolved away;
//   - unreachable code: blocks no path reaches are dropped.
//
// Registers are numbered in first-encounter order of that traversal.
// Commutative operands are emitted as written: ordering them by value
// number merged no instance of any measured space (DESIGN §11).
//
// The key is one-sided: equal keys imply equivalence by construction
// under the normalizations above, while distinct keys prove nothing.
// That is exactly the contract the third tier needs — merging is sound,
// and missed merges only cost space.

// terminator kinds in the equivalence encoding.
const (
	termGoto   = 0 // unconditional transfer (jump or fall-through)
	termBranch = 1 // conditional branch: taken + not-taken labels
	termRet    = 2 // function return
	termNone   = 3 // block falls off the end of the function
)

// label codes reserved for resolution failures.
const (
	// labelCycle marks a transfer into a cycle of pure forwarder
	// blocks: an inescapable, observation-free loop. Every such
	// transfer is equivalent, so they share one sentinel.
	labelCycle = 0xFFFE
	// labelNone marks an absent fall-through (a malformed function
	// whose last block does not end in control flow).
	labelNone = 0xFFFD
)

// successor positions carrying the sentinels above.
const (
	posCycle = -1
	posNone  = -2
)

// equivEncoder carries the per-function canonicalization state. It is
// pooled with all of its storage, so a warm EquivEncode allocates
// nothing.
type equivEncoder struct {
	f           *rtl.Func
	rm          remapper
	pos         []int // block ID -> layout position, -1 when absent
	fwd         []int // forwarder resolution per block, fwdUnknown until memoized
	order       []int // canonical visit order (layout positions)
	label       []int // layout position -> canonical label, -1 unassigned
	path, stack []int // resolveForwarder's and visit's scratch
}

var encoders = sync.Pool{New: func() any { return new(equivEncoder) }}

const fwdUnknown = -2

// resolveForwarder follows chains of pure-forwarder blocks (a single
// unconditional jump) starting at layout position bpos, returning the
// first non-forwarder position or -1 for a forwarder cycle.
func (e *equivEncoder) resolveForwarder(bpos int) int {
	if r := e.fwd[bpos]; r != fwdUnknown {
		return r
	}
	path := e.path[:0]
	cur := bpos
	for {
		b := e.f.Blocks[cur]
		if len(b.Instrs) != 1 || b.Instrs[0].Op != rtl.OpJmp {
			break
		}
		e.fwd[cur] = -3 // visiting marker
		path = append(path, cur)
		next := e.pos[b.Instrs[0].Target]
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
	e.path = path
	if e.fwd[bpos] == fwdUnknown || e.fwd[bpos] == -3 {
		e.fwd[bpos] = cur
	}
	return e.fwd[bpos]
}

// semanticTerm returns the terminator of the non-forwarder block at
// bpos with forwarder-resolved successor positions (-1 = cycle).
func (e *equivEncoder) semanticTerm(bpos int) (kind int, taken, fall int) {
	f := e.f
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
		return termGoto, e.resolveForwarder(e.pos[last.Target]), posNone
	case last.Op == rtl.OpRet:
		return termRet, posNone, posNone
	default: // OpBranch
		return termBranch, e.resolveForwarder(e.pos[last.Target]), next()
	}
}

// visit assigns canonical labels in DFS preorder over semantic
// successors: not-taken before taken, matching execution layout.
func (e *equivEncoder) visit(start int) {
	stack := append(e.stack[:0], start)
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
	e.stack = stack
}

func (e *equivEncoder) targetLabel(pos int) uint16 {
	switch pos {
	case posCycle:
		return labelCycle
	case posNone:
		return labelNone
	}
	return uint16(e.label[pos])
}

// EquivEncode appends the equivalence key of f to dst and returns the
// extended slice. Instances with equal keys are semantically equivalent
// (see above on one-sidedness); the search's third index tier merges
// them into one node.
func EquivEncode(dst []byte, f *rtl.Func) []byte {
	e := encoders.Get().(*equivEncoder)
	dst = e.encode(dst, f)
	e.f = nil
	encoders.Put(e)
	return dst
}

func (e *equivEncoder) encode(dst []byte, f *rtl.Func) []byte {
	n := len(f.Blocks)
	e.f, e.order = f, e.order[:0]
	e.pos = rtl.Resize(e.pos, f.NextBlockID)
	for i := range e.pos {
		e.pos[i] = -1
	}
	e.fwd, e.label = rtl.Resize(e.fwd, n), rtl.Resize(e.label, n)
	for i, b := range f.Blocks {
		e.pos[b.ID], e.fwd[i], e.label[i] = i, fwdUnknown, -1
	}

	dst = append(dst, byte(f.NArgs))
	if f.Returns {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}

	start := -1
	if n > 0 {
		start = e.resolveForwarder(0)
	}
	if start < 0 {
		// The whole function is an inescapable forwarder cycle.
		return binary.LittleEndian.AppendUint16(dst, labelCycle)
	}
	e.visit(start)

	rm := &e.rm
	rm.reset()
	for _, bpos := range e.order {
		b := f.Blocks[bpos]
		instrs := b.Instrs
		kind, taken, fall := e.semanticTerm(bpos)
		last := b.Last()
		if last != nil && last.Op.IsControl() {
			instrs = instrs[:len(instrs)-1]
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(e.label[bpos]))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(instrs)))
		for i := range instrs {
			dst = appendInstr(dst, rm, &instrs[i])
		}
		dst = append(dst, 0xFF, byte(kind))
		switch kind {
		case termGoto:
			dst = binary.LittleEndian.AppendUint16(dst, e.targetLabel(taken))
		case termBranch:
			dst = append(dst, byte(last.Rel))
			dst = binary.LittleEndian.AppendUint16(dst, e.targetLabel(taken))
			dst = binary.LittleEndian.AppendUint16(dst, e.targetLabel(fall))
		case termRet:
			if last.A.Kind == rtl.OperReg {
				dst = append(dst, 1)
				dst = binary.LittleEndian.AppendUint16(dst, rm.reg(last.A.Reg))
			} else {
				dst = append(dst, 0)
			}
		}
	}
	return dst
}

// EquivKey returns the equivalence key of f as a string usable as a map
// key.
func EquivKey(f *rtl.Func) string { return string(EquivEncode(nil, f)) }
