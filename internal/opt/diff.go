package opt

import (
	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/rtl"
)

// DiffInstrs measures how much a transformation changed a function: the
// size of the symmetric difference between the two instruction
// multisets (over canonically renumbered code, so register renaming
// alone does not count), divided by two and rounded up — roughly "how
// many instructions were touched". Section 7 of the paper proposes
// tracking "the number and type of actual changes for which each phase
// is responsible" instead of the bare active/dormant bit; this is that
// measurement.
func DiffInstrs(a, b *rtl.Func) int {
	ca := fingerprint.Canonicalize(a)
	cb := fingerprint.Canonicalize(b)
	counts := make(map[string]int)
	for _, blk := range ca.Blocks {
		for i := range blk.Instrs {
			counts[ca.InstrString(&blk.Instrs[i])]++
		}
	}
	for _, blk := range cb.Blocks {
		for i := range blk.Instrs {
			counts[cb.InstrString(&blk.Instrs[i])]--
		}
	}
	diff := 0
	for _, c := range counts {
		if c < 0 {
			c = -c
		}
		diff += c
	}
	return (diff + 1) / 2
}

// AttemptMeasured is Attempt plus the Section 7 change measurement:
// it returns whether the phase was active and how many instructions it
// touched.
func AttemptMeasured(f *rtl.Func, st *State, p Phase, d *machine.Desc) (active bool, changed int) {
	before := f.Clone()
	active = Attempt(f, st, p, d)
	if !active {
		return false, 0
	}
	return true, DiffInstrs(before, f)
}
