package rtl

import "fmt"

// Validate checks the structural invariants every phase must preserve:
//
//   - control instructions appear only at the end of a block;
//   - every branch/jump target names an existing block;
//   - every branch/jump target names a block reachable from entry
//     (an edge out of live code can only lead to live code, so a
//     dangling target marks dead control flow that the dataflow
//     analyses cannot reason about);
//   - the final block does not fall off the end of the function;
//   - block IDs are unique, non-negative and below NextBlockID;
//   - after register assignment no pseudo registers remain;
//   - a symbol is at most MaxSymLen bytes long (the instance keys
//     spell its length in one byte).
//
// Validate is the cheap structural tier: the deeper semantic rules
// (def-before-use, condition-code discipline, machine legality,
// callee-save preservation) live in internal/check, which assumes a
// function that already passes Validate.
//
// It returns the first violation found, or nil. It holds up on any
// input, a function decoded from bytes nobody checked included: what it
// allocates is proportional to the blocks and instructions there are.
func Validate(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: function has no blocks", f.Name)
	}
	pos := make(map[int]int, len(f.Blocks)) // block ID -> layout position
	for i, b := range f.Blocks {
		if _, dup := pos[b.ID]; dup {
			return fmt.Errorf("%s: duplicate block id L%d", f.Name, b.ID)
		}
		if b.ID < 0 || b.ID >= f.NextBlockID {
			return fmt.Errorf("%s: block id L%d outside [0, NextBlockID %d)", f.Name, b.ID, f.NextBlockID)
		}
		pos[b.ID] = i
	}
	var buf [8]Reg
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op.IsControl() && i != len(b.Instrs)-1 {
				return fmt.Errorf("%s: L%d instr %d: control instruction %q not at block end",
					f.Name, b.ID, i, in.String())
			}
			if in.Op == OpBranch || in.Op == OpJmp {
				if _, ok := pos[in.Target]; !ok {
					return fmt.Errorf("%s: L%d instr %d: target L%d does not exist",
						f.Name, b.ID, i, in.Target)
				}
			}
			if len(in.Sym) > MaxSymLen && (in.Op == OpMovHi || in.Op == OpAddLo || in.Op == OpCall) {
				return fmt.Errorf("%s: L%d instr %d: symbol of %d bytes, longer than %d",
					f.Name, b.ID, i, len(in.Sym), MaxSymLen)
			}
			if f.RegAssigned {
				for _, r := range in.Defs(buf[:0]) {
					if r.IsPseudo() {
						return fmt.Errorf("%s: L%d instr %d: pseudo register %s after register assignment",
							f.Name, b.ID, i, r)
					}
				}
				for _, r := range in.Uses(buf[:0]) {
					if r.IsPseudo() {
						return fmt.Errorf("%s: L%d instr %d: pseudo register %s after register assignment",
							f.Name, b.ID, i, r)
					}
				}
			}
		}
	}
	last := f.Blocks[len(f.Blocks)-1]
	if lastIn := last.Last(); lastIn == nil || (lastIn.Op != OpRet && lastIn.Op != OpJmp) {
		return fmt.Errorf("%s: final block L%d falls off the end of the function", f.Name, last.ID)
	}
	// With the per-block structure sound, reject branches whose targets
	// sit in code unreachable from the entry. The walk follows successors'
	// rule through pos rather than a graph: ComputeCFG sizes a table by
	// NextBlockID, which an unchecked function may set to anything.
	reach := make([]bool, len(f.Blocks))
	reach[0] = true
	for stack := []int{0}; len(stack) > 0; {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var succ [2]int
		n := 0
		last := f.Blocks[i].Last()
		if last != nil && (last.Op == OpJmp || last.Op == OpBranch) {
			succ[n], n = pos[last.Target], n+1
		}
		if i+1 < len(f.Blocks) && (last == nil || last.Op != OpJmp && last.Op != OpRet) {
			succ[n], n = i+1, n+1
		}
		for _, s := range succ[:n] {
			if !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != OpBranch && in.Op != OpJmp {
				continue
			}
			if !reach[pos[in.Target]] {
				return fmt.Errorf("%s: L%d instr %d: target L%d is unreachable from entry",
					f.Name, b.ID, i, in.Target)
			}
		}
	}
	return nil
}

// MaxSymLen is the longest symbol name a function may carry: the
// canonical and equivalence encodings spell a symbol's length in one
// byte, so a longer name would make two keys ambiguous.
const MaxSymLen = 255

// MustValidate panics when f violates a structural invariant; it is a
// convenience for tests and for the enumeration engine's paranoid mode.
func MustValidate(f *Func) {
	if err := Validate(f); err != nil {
		panic(err)
	}
}
