package opt

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/machine"
	"repro/internal/rtl"
)

// RegisterAllocation is phase k: it uses graph coloring to replace
// references to a variable within a live range with a register. In
// this compiler — following VPO — local scalars and arguments live in
// stack-frame slots until this phase promotes them: loads of a
// promoted slot become register moves (which instruction selection
// then collapses, the classic k-enables-s interaction) and stores
// become moves the other way.
//
// A slot whose live range crosses a call can only be promoted to a
// callee-save register; a slot whose address may be taken is never
// promoted (the frontend marks those non-scalar).
type RegisterAllocation struct{}

// ID returns the paper's designation for the phase.
func (RegisterAllocation) ID() byte { return 'k' }

// Name returns the paper's name for the phase.
func (RegisterAllocation) Name() string { return "register allocation" }

// RequiresRegAssign reports that this dataflow phase runs after the
// compulsory register assignment.
func (RegisterAllocation) RequiresRegAssign() bool { return true }

// Apply runs the phase.
//
// Interference comes from liveness over a shadow function in which
// every load and store of a candidate slot is a move from or to a
// register of its own, numbered just above the function's registers, so
// one liveness solution covers hardware registers and slots together
// and its sets stay as narrow as the function's. Everything else is
// dense and indexed by candidate: the scalar slots, in slot order.
func (RegisterAllocation) Apply(f *rtl.Func, _ *machine.Desc) bool {
	sc := allocScratchPool.Get().(*allocScratch)
	defer allocScratchPool.Put(sc)
	if !sc.reset(f) {
		return false // no candidate is ever loaded or stored
	}
	nc, base := len(sc.offsets), sc.base

	// Shadow function: rewrite candidate loads/stores as moves to/from
	// their registers, so ordinary liveness analysis yields slot live
	// ranges and slot/register interference.
	shadow := f.CloneReusing(sc.shadow)
	shadow.DropAnalyses()
	sc.shadow = shadow
	shadow.NextPseudo = rtl.Reg(base + nc)
	for _, b := range shadow.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if k := sc.access(in); k >= 0 {
				v := rtl.Reg(base + k)
				switch in.Op {
				case rtl.OpLoad:
					*in = rtl.NewMov(in.Dst, rtl.R(v))
				case rtl.OpStore:
					*in = rtl.NewMov(v, in.A)
				}
			}
		}
	}

	ls := rtl.NewLiveSolver()
	defer ls.Release()
	lv := ls.Solve(rtl.ComputeCFG(shadow))

	// Interference of each candidate with hardware registers and with
	// other candidates: a definition interferes with everything live
	// after it.
	virt := func(r rtl.Reg) int {
		if k := int(r) - base; k >= 0 && k < nc {
			return k
		}
		return -1
	}
	live := sc.live
	var buf [8]rtl.Reg
	for bpos, b := range shadow.Blocks {
		clear(live)
		copy(live, lv.Out[bpos].Words())
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			moveSrc := rtl.RegNone
			if in.Op == rtl.OpMov && in.A.Kind == rtl.OperReg {
				moveSrc = in.A.Reg
			}
			for _, dreg := range in.Defs(buf[:0]) {
				dk := virt(dreg)
				if dk < 0 && !dreg.IsHard() {
					continue // interferes with nothing a slot may be given
				}
				rtl.SetOver[rtl.Reg](live).ForEach(func(l rtl.Reg) {
					if l == moveSrc || l == dreg {
						return
					}
					lk := virt(l)
					switch {
					case dk >= 0 && lk >= 0:
						sc.conflict(dk)[lk>>6] |= 1 << (lk & 63)
						sc.conflict(lk)[dk>>6] |= 1 << (dk & 63)
					case dk >= 0 && l.IsHard():
						sc.forbidden[dk] |= 1 << l
					case lk >= 0 && dreg.IsHard():
						sc.forbidden[lk] |= 1 << dreg
					}
				})
			}
			for _, dreg := range in.Defs(buf[:0]) {
				live[dreg>>6] &^= 1 << (dreg & 63)
			}
			for _, ureg := range in.Uses(buf[:0]) {
				if int(ureg) < base+nc {
					live[ureg>>6] |= 1 << (ureg & 63)
				}
			}
		}
	}

	// Registers referenced anywhere in the original function can hold
	// unrelated values in blocks the liveness pass cannot see through
	// (dead defs still clobber); exclude registers that are defined
	// anywhere the slot is live — approximated above — plus SP/LR/PC.
	// Color slots in order of descending access count so the most
	// valuable promotions happen first; a slot never accessed is not
	// colored.
	order := sc.order[:0]
	for k := range nc {
		if sc.counts[k] > 0 {
			order = append(order, int32(k))
		}
	}
	sc.order = order
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(sc.counts[b], sc.counts[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	promoted := false
	for _, k := range order {
		used := sc.forbidden[k]
		rtl.SetOver[int](sc.conflict(int(k))).ForEach(func(other int) {
			if hw := sc.assigned[other]; hw != rtl.RegNone {
				used |= 1 << hw
			}
		})
		for _, hw := range allocationPalette {
			if used&(1<<hw) == 0 {
				sc.assigned[k], promoted = hw, true
				break
			}
		}
	}
	if !promoted {
		return false
	}

	// Rewrite the real function.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			k := sc.access(in)
			if k < 0 || sc.assigned[k] == rtl.RegNone {
				continue
			}
			hw := sc.assigned[k]
			switch in.Op {
			case rtl.OpLoad:
				*in = rtl.NewMov(in.Dst, rtl.R(hw))
			case rtl.OpStore:
				*in = rtl.NewMov(hw, in.A)
			}
		}
	}
	// Promoted slots are no longer memory-resident scalars.
	for k, hw := range sc.assigned {
		if hw != rtl.RegNone {
			s := &f.Slots[sc.slots[k]]
			s.Scalar = false
			s.Name += ".promoted"
		}
	}
	return true
}

// allocationPalette lists the hardware registers a slot may be promoted
// to, in order of preference: callee-save first, so promoted variables
// survive later-introduced calls cheaply. A slot live across a call is
// never given a caller-save register: the call defines every one of
// them while the slot is live, so they all interfere with it.
var allocationPalette = [...]rtl.Reg{
	rtl.RegR4, rtl.RegR5, rtl.RegR6, rtl.RegR7,
	rtl.RegR8, rtl.RegR9, rtl.RegR10, rtl.RegR11,
	rtl.RegR12, rtl.RegR3, rtl.RegR2, rtl.RegR1, rtl.RegR0,
}

// allocScratch is the storage an application of k works in, indexed by
// candidate: the promotable (scalar) slots of the function, in slot
// order. Scratch is pooled; an application takes one and sizes it to
// its function, so a warm pool allocates only the liveness graph.
type allocScratch struct {
	shadow    *rtl.Func
	base      int       // the register of candidate 0; above every register f names
	slots     []int32   // by candidate: its index in f.Slots
	offsets   []int32   // by candidate: its frame offset
	counts    []int32   // by candidate: the loads and stores of it
	forbidden []uint32  // by candidate: the hardware registers it interferes with
	assigned  []rtl.Reg // by candidate: the register it is promoted to, or RegNone
	conflicts []uint64  // by candidate: the candidates it interferes with, rowWords each
	rowWords  int
	order     []int32
	live      []uint64 // the backward pass's running set, over base+candidates registers
}

var allocScratchPool = sync.Pool{New: func() any { return new(allocScratch) }}

// reset sizes the scratch for an application to f, indexes its
// candidates by offset and counts their accesses. It reports whether
// any candidate is accessed at all: if none is, nothing can be
// promoted.
func (sc *allocScratch) reset(f *rtl.Func) bool {
	sc.slots, sc.offsets = sc.slots[:0], sc.offsets[:0]
	for i := range f.Slots {
		if f.Slots[i].Scalar {
			sc.slots = append(sc.slots, int32(i))
			sc.offsets = append(sc.offsets, f.Slots[i].Offset)
		}
	}
	nc := len(sc.offsets)
	if nc == 0 {
		return false
	}
	sc.counts = rtl.Resize(sc.counts, nc)
	clear(sc.counts)
	accessed := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if k := sc.access(&b.Instrs[i]); k >= 0 {
				sc.counts[k]++
				accessed = true
			}
		}
	}
	if !accessed {
		return false
	}
	sc.base = max(int(f.NextPseudo), usedRegWidth(f))
	sc.forbidden = rtl.Resize(sc.forbidden, nc)
	sc.assigned = rtl.Resize(sc.assigned, nc)
	clear(sc.forbidden)
	for k := range sc.assigned {
		sc.assigned[k] = rtl.RegNone
	}
	sc.rowWords = (nc + 63) / 64
	sc.conflicts = rtl.Resize(sc.conflicts, nc*sc.rowWords)
	clear(sc.conflicts)
	sc.live = rtl.Resize(sc.live, (sc.base+nc+63)/64)
	return true
}

// conflict returns candidate k's row of the interference matrix.
func (sc *allocScratch) conflict(k int) []uint64 {
	return sc.conflicts[k*sc.rowWords : (k+1)*sc.rowWords]
}

// access reports which candidate the instruction loads or stores, or
// -1: the first scalar slot at its stack-pointer displacement.
func (sc *allocScratch) access(in *rtl.Instr) int {
	var base rtl.Operand
	switch in.Op {
	case rtl.OpLoad:
		base = in.A
	case rtl.OpStore:
		base = in.B
	default:
		return -1
	}
	if !base.IsReg(rtl.RegSP) {
		return -1
	}
	for k, off := range sc.offsets {
		if off == in.Disp {
			return k
		}
	}
	return -1
}
