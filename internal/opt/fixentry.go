package opt

import (
	"fmt"

	"repro/internal/rtl"
)

// FixEntryExit is the compulsory final pass that inserts instructions
// at the entry and exit of the function to manage the activation
// record on the run-time stack (Section 3). After register assignment
// the callee-save registers the function actually uses are saved to
// fresh frame slots on entry and restored before every return. Like
// register assignment it is not a candidate phase: the paper applies
// it after the last code-improving phase of every sequence.
func FixEntryExit(f *rtl.Func) {
	if !f.RegAssigned {
		RegAssign(f)
	}
	f.EntryExitFixed = true
	var saved []rtl.Reg
	used := f.UsedRegs()
	for r := rtl.RegR4; r <= rtl.RegR11; r++ {
		if used.Has(r) {
			saved = append(saved, r)
		}
	}
	if len(saved) == 0 {
		return
	}
	offsets := make([]int32, len(saved))
	for i, r := range saved {
		offsets[i] = f.AddSlot(fmt.Sprintf(".save_%s", r), 4, false)
	}
	entry := f.Entry()
	for i := len(saved) - 1; i >= 0; i-- {
		entry.Insert(0, rtl.NewStore(saved[i], rtl.RegSP, offsets[i]))
	}
	for _, b := range f.Blocks {
		last := b.Last()
		if last == nil || last.Op != rtl.OpRet {
			continue
		}
		at := len(b.Instrs) - 1
		for i, r := range saved {
			b.Insert(at, rtl.NewLoad(r, rtl.RegSP, offsets[i]))
			at++
		}
	}
}
