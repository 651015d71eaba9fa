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
// and its sets stay as narrow as the function's. Candidate k's register
// is node k of the interference graph, and everything else is dense and
// indexed by candidate: the scalar slots, in slot order.
func (RegisterAllocation) Apply(f *rtl.Func, _ *machine.Desc) bool {
	sc := allocScratchPool.Get().(*allocScratch)
	defer allocScratchPool.Put(sc)
	nc := sc.number(f)
	if nc == 0 {
		return false // no candidate is ever loaded or stored
	}

	// Shadow function: rewrite candidate loads/stores as moves to/from
	// their registers, so ordinary liveness analysis yields slot live
	// ranges and slot/register interference.
	shadow := f.CloneReusing(sc.shadow)
	shadow.DropAnalyses()
	sc.shadow = shadow
	shadow.NextPseudo = rtl.Reg(sc.base + nc)
	for _, b := range shadow.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if k := sc.access(in); k >= 0 {
				v := rtl.Reg(sc.base + k)
				switch in.Op {
				case rtl.OpLoad:
					*in = rtl.NewMov(in.Dst, rtl.R(v))
				case rtl.OpStore:
					*in = rtl.NewMov(v, in.A)
				}
			}
		}
	}
	sc.build(shadow)

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
		if hw := sc.pick(int(k), sc.assigned, allocationPalette[:]); hw != rtl.RegNone {
			sc.assigned[k], promoted = hw, true
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
// order. Candidate k is node k of the interference graph. Scratch is
// pooled; an application takes one and sizes it to its function, so a
// warm pool allocates only the liveness graph.
type allocScratch struct {
	interference
	shadow   *rtl.Func
	base     int       // the register of candidate 0; above every register f names
	slots    []int32   // by candidate: its index in f.Slots
	offsets  []int32   // by candidate: its frame offset
	counts   []int32   // by candidate: the loads and stores of it
	assigned []rtl.Reg // by candidate: the register it is promoted to, or RegNone
	order    []int32
}

var allocScratchPool = sync.Pool{New: func() any { return new(allocScratch) }}

// number indexes f's candidates by offset, counts their accesses, makes
// their registers the graph's nodes and sizes the scratch to them. It
// returns how many candidates there are, or 0 when none is accessed at
// all: then nothing can be promoted.
func (sc *allocScratch) number(f *rtl.Func) int {
	sc.slots, sc.offsets = sc.slots[:0], sc.offsets[:0]
	for i := range f.Slots {
		if f.Slots[i].Scalar {
			sc.slots = append(sc.slots, int32(i))
			sc.offsets = append(sc.offsets, f.Slots[i].Offset)
		}
	}
	nc := len(sc.offsets)
	if nc == 0 {
		return 0
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
		return 0
	}
	sc.base = max(int(f.NextPseudo), usedRegWidth(f))
	sc.index = rtl.Resize(sc.index, sc.base+nc)
	for r := range sc.index {
		sc.index[r] = int32(max(-1, r-sc.base)) // f's own registers are not nodes
	}
	sc.reset(nc)
	sc.assigned = rtl.Resize(sc.assigned, nc)
	for k := range sc.assigned {
		sc.assigned[k] = rtl.RegNone
	}
	return nc
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
