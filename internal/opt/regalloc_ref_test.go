package opt

// Phase k as it stood before it numbered scalar slots just above the
// function's registers and kept its interference in dense arrays
// (regalloc.go), kept verbatim — identifiers that would collide with
// their replacements carry a ref prefix, nothing else changed — as the
// reference TestPhaseKMatchesReference holds the replacement to.

import (
	"sort"

	"repro/internal/machine"
	"repro/internal/rtl"
)

// refSlotVirtBase maps scalar slots into a virtual register namespace
// above all pseudo registers so that one liveness computation covers
// hardware registers and slots together.
const refSlotVirtBase = 1 << 14

// refRegisterAllocation is RegisterAllocation.Apply.
func refRegisterAllocation(f *rtl.Func, _ *machine.Desc) bool {
	candidates := refScalarSlots(f)
	if len(candidates) == 0 {
		return false
	}

	// Shadow function: rewrite scalar-slot loads/stores as moves
	// to/from virtual registers, so ordinary liveness analysis yields
	// slot live ranges and slot/register interference.
	shadow := f.Clone()
	shadow.NextPseudo = refSlotVirtBase + rtl.Reg(len(f.Slots))
	for _, b := range shadow.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if si, ok := refScalarSlotAccess(f, in); ok {
				v := refSlotVirtBase + rtl.Reg(si)
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

	// Interference of each candidate slot with hardware registers and
	// with other candidate slots: a definition interferes with
	// everything live after it.
	forbidden := make(map[int]map[rtl.Reg]bool) // slot index -> hw regs
	slotConflict := make(map[int]map[int]bool)  // slot index -> slot indexes
	crossesCall := make(map[int]bool)
	for _, si := range candidates {
		forbidden[si] = make(map[rtl.Reg]bool)
		slotConflict[si] = make(map[int]bool)
	}
	isVirt := func(r rtl.Reg) (int, bool) {
		if r >= refSlotVirtBase {
			return int(r - refSlotVirtBase), true
		}
		return -1, false
	}
	var buf [8]rtl.Reg
	var live rtl.RegSet
	for bpos, b := range shadow.Blocks {
		live.CopyFrom(lv.Out[bpos])
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Op == rtl.OpCall {
				// Any slot live across the call conflicts with
				// caller-save registers.
				live.ForEach(func(l rtl.Reg) {
					if si, ok := isVirt(l); ok {
						crossesCall[si] = true
					}
				})
			}
			moveSrc := rtl.RegNone
			if in.Op == rtl.OpMov && in.A.Kind == rtl.OperReg {
				moveSrc = in.A.Reg
			}
			for _, dreg := range in.Defs(buf[:0]) {
				dsi, dIsVirt := isVirt(dreg)
				live.ForEach(func(l rtl.Reg) {
					if l == moveSrc || l == dreg {
						return
					}
					lsi, lIsVirt := isVirt(l)
					switch {
					case dIsVirt && lIsVirt:
						slotConflict[dsi][lsi] = true
						slotConflict[lsi][dsi] = true
					case dIsVirt && l.IsHard():
						forbidden[dsi][l] = true
					case lIsVirt && dreg.IsHard():
						forbidden[lsi][dreg] = true
					}
				})
			}
			for _, dreg := range in.Defs(buf[:0]) {
				live.Remove(dreg)
			}
			for _, ureg := range in.Uses(buf[:0]) {
				live.Add(ureg)
			}
		}
	}

	// Registers referenced anywhere in the original function can hold
	// unrelated values in blocks the liveness pass cannot see through
	// (dead defs still clobber); exclude registers that are defined
	// anywhere the slot is live — approximated above — plus SP/LR/PC.
	// Color slots in order of descending access count so the most
	// valuable promotions happen first.
	counts := make(map[int]int)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if si, ok := refScalarSlotAccess(f, &b.Instrs[i]); ok {
				counts[si]++
			}
		}
	}
	order := append([]int(nil), candidates...)
	sort.Slice(order, func(i, j int) bool {
		if counts[order[i]] != counts[order[j]] {
			return counts[order[i]] > counts[order[j]]
		}
		return order[i] < order[j]
	})

	assigned := make(map[int]rtl.Reg)
	for _, si := range order {
		if counts[si] == 0 {
			continue // slot never accessed
		}
		used := make(map[rtl.Reg]bool)
		for hw := range forbidden[si] {
			used[hw] = true
		}
		for other := range slotConflict[si] {
			if hw, ok := assigned[other]; ok {
				used[hw] = true
			}
		}
		var choice rtl.Reg = rtl.RegNone
		for _, hw := range refAllocationPalette(crossesCall[si]) {
			if !used[hw] {
				choice = hw
				break
			}
		}
		if choice == rtl.RegNone {
			continue
		}
		assigned[si] = choice
	}
	if len(assigned) == 0 {
		return false
	}

	// Rewrite the real function.
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			si, ok := refScalarSlotAccess(f, in)
			if !ok {
				continue
			}
			hw, ok := assigned[si]
			if !ok {
				continue
			}
			switch in.Op {
			case rtl.OpLoad:
				*in = rtl.NewMov(in.Dst, rtl.R(hw))
			case rtl.OpStore:
				*in = rtl.NewMov(hw, in.A)
			}
		}
	}
	// Promoted slots are no longer memory-resident scalars.
	for si := range assigned {
		f.Slots[si].Scalar = false
		f.Slots[si].Name += ".promoted"
	}
	return true
}

// refAllocationPalette returns the hardware registers a slot may be
// promoted to. Slots live across calls must live in callee-save
// registers; others prefer callee-save too (so promoted variables
// survive later-introduced calls cheaply) but may use anything
// allocatable.
func refAllocationPalette(acrossCall bool) []rtl.Reg {
	calleeSave := []rtl.Reg{
		rtl.RegR4, rtl.RegR5, rtl.RegR6, rtl.RegR7,
		rtl.RegR8, rtl.RegR9, rtl.RegR10, rtl.RegR11,
	}
	if acrossCall {
		return calleeSave
	}
	return append(calleeSave, rtl.RegR12, rtl.RegR3, rtl.RegR2, rtl.RegR1, rtl.RegR0)
}

// refScalarSlots lists the indexes of promotable slots.
func refScalarSlots(f *rtl.Func) []int {
	var out []int
	for i := range f.Slots {
		if f.Slots[i].Scalar {
			out = append(out, i)
		}
	}
	return out
}

// refScalarSlotAccess reports whether the instruction is a load or store
// of a promotable scalar slot, returning the slot index.
func refScalarSlotAccess(f *rtl.Func, in *rtl.Instr) (int, bool) {
	var base rtl.Operand
	switch in.Op {
	case rtl.OpLoad:
		base = in.A
	case rtl.OpStore:
		base = in.B
	default:
		return -1, false
	}
	if !base.IsReg(rtl.RegSP) {
		return -1, false
	}
	for i := range f.Slots {
		s := &f.Slots[i]
		if s.Scalar && s.Offset == in.Disp {
			return i, true
		}
	}
	return -1, false
}
