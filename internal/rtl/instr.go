package rtl

import "fmt"

// OperandKind discriminates the variants of an instruction operand.
type OperandKind uint8

const (
	// OperNone marks an absent operand.
	OperNone OperandKind = iota
	// OperReg is a register operand.
	OperReg
	// OperImm is an immediate (constant) operand.
	OperImm
)

// Operand is a source operand: nothing, a register, or an immediate.
// Destination operands are always registers and live directly in Instr.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int32
}

// R constructs a register operand.
func R(r Reg) Operand { return Operand{Kind: OperReg, Reg: r} }

// Imm constructs an immediate operand.
func Imm(v int32) Operand { return Operand{Kind: OperImm, Imm: v} }

// IsReg reports whether the operand is the given register.
func (o Operand) IsReg(r Reg) bool { return o.Kind == OperReg && o.Reg == r }

// IsImm reports whether the operand is an immediate with value v.
func (o Operand) IsImm(v int32) bool { return o.Kind == OperImm && o.Imm == v }

// String renders the operand in paper notation.
func (o Operand) String() string {
	switch o.Kind {
	case OperReg:
		return o.Reg.String()
	case OperImm:
		return fmt.Sprintf("%d", o.Imm)
	}
	return "_"
}

// Instr is a single RTL instruction. The operand roles depend on Op:
//
//	Mov    Dst = A              (A is a register or immediate)
//	MovHi  Dst = HI[Sym]
//	AddLo  Dst = A + LO[Sym]
//	ALU    Dst = A op B
//	Neg    Dst = -A,  Not: Dst = ~A
//	Load   Dst = M[A + Disp]
//	Store  M[B + Disp] = A      (A carries the stored value)
//	Cmp    IC = A ? B
//	Branch PC = IC Rel 0, Target
//	Jmp    PC = Target
//	Call   call Sym, NArgs arguments in r0..r3
//	Ret    return (A = r0 when the function yields a value)
//
// Target is a block ID within the owning function.
type Instr struct {
	Op     Op
	Dst    Reg
	A, B   Operand
	Disp   int32
	Sym    string
	Rel    Rel
	Target int
	NArgs  uint8
}

// NewMov returns Dst = src.
func NewMov(dst Reg, src Operand) Instr { return Instr{Op: OpMov, Dst: dst, A: src} }

// NewALU returns Dst = a op b.
func NewALU(op Op, dst Reg, a, b Operand) Instr { return Instr{Op: op, Dst: dst, A: a, B: b} }

// NewLoad returns Dst = M[base + disp].
func NewLoad(dst, base Reg, disp int32) Instr {
	return Instr{Op: OpLoad, Dst: dst, A: R(base), Disp: disp}
}

// NewStore returns M[base + disp] = val.
func NewStore(val, base Reg, disp int32) Instr {
	return Instr{Op: OpStore, A: R(val), B: R(base), Disp: disp}
}

// NewCmp returns IC = a ? b.
func NewCmp(a, b Operand) Instr { return Instr{Op: OpCmp, Dst: RegIC, A: a, B: b} }

// NewBranch returns PC = IC rel 0, target.
func NewBranch(rel Rel, target int) Instr { return Instr{Op: OpBranch, Rel: rel, Target: target} }

// NewJmp returns PC = target.
func NewJmp(target int) Instr { return Instr{Op: OpJmp, Target: target} }

// Defs appends the registers written by the instruction to buf and
// returns the extended slice. Passing a reusable buffer keeps the hot
// dataflow loops allocation-free.
func (in *Instr) Defs(buf []Reg) []Reg {
	switch in.Op {
	case OpStore, OpBranch, OpJmp, OpRet, OpNop:
		return buf
	case OpCall:
		// Calls clobber the caller-save registers.
		return append(buf, CallerSave...)
	}
	if in.Dst != RegNone {
		buf = append(buf, in.Dst)
	}
	return buf
}

// Uses appends the registers read by the instruction to buf and
// returns the extended slice.
func (in *Instr) Uses(buf []Reg) []Reg {
	switch in.Op {
	case OpBranch:
		buf = append(buf, RegIC)
	case OpCall:
		for i := uint8(0); i < in.NArgs && i < 4; i++ {
			buf = append(buf, Reg(i))
		}
	default:
		if in.A.Kind == OperReg {
			buf = append(buf, in.A.Reg)
		}
		if in.B.Kind == OperReg {
			buf = append(buf, in.B.Reg)
		}
	}
	return buf
}

// HasSideEffects reports whether the instruction does something beyond
// writing its destination register, so that dead assignment elimination
// must not remove it even when the destination is dead.
func (in *Instr) HasSideEffects() bool {
	switch in.Op {
	case OpStore, OpCall, OpBranch, OpJmp, OpRet:
		return true
	}
	return false
}

// ReadsMemory reports whether the instruction loads from memory.
func (in *Instr) ReadsMemory() bool { return in.Op == OpLoad }

// WritesMemory reports whether the instruction stores to memory.
func (in *Instr) WritesMemory() bool { return in.Op == OpStore }

// UsesReg reports whether the instruction reads register r.
func (in *Instr) UsesReg(r Reg) bool {
	var buf [8]Reg
	for _, u := range in.Uses(buf[:0]) {
		if u == r {
			return true
		}
	}
	return false
}

// DefsReg reports whether the instruction writes register r.
func (in *Instr) DefsReg(r Reg) bool {
	var buf [8]Reg
	for _, d := range in.Defs(buf[:0]) {
		if d == r {
			return true
		}
	}
	return false
}

// ReplaceUses rewrites every read of register old to the operand repl.
// Register operands embedded in addressing positions (load/store bases)
// are only replaced when repl is itself a register. It reports whether
// anything changed.
func (in *Instr) ReplaceUses(old Reg, repl Operand) bool {
	changed := false
	replaceOp := func(o *Operand, allowImm bool) {
		if o.Kind == OperReg && o.Reg == old {
			if repl.Kind == OperReg || allowImm {
				*o = repl
				changed = true
			}
		}
	}
	switch in.Op {
	case OpBranch, OpJmp, OpCall, OpNop, OpRet:
		// A return's use of r0 is fixed by the calling convention and
		// is not a substitutable operand.
		return false
	case OpLoad:
		replaceOp(&in.A, false) // base must stay a register
	case OpStore:
		replaceOp(&in.A, false) // stored value must stay a register
		replaceOp(&in.B, false) // base must stay a register
	case OpAddLo, OpNeg, OpNot:
		replaceOp(&in.A, false)
	case OpMov:
		replaceOp(&in.A, true)
	case OpCmp:
		replaceOp(&in.A, false) // first comparand stays a register
		replaceOp(&in.B, true)
	default: // ALU
		replaceOp(&in.A, false) // machine form keeps A in a register
		replaceOp(&in.B, true)
	}
	return changed
}

// RenameReg rewrites every occurrence of register old (both defs and
// uses) to new. It reports whether anything changed.
func (in *Instr) RenameReg(old, new Reg) bool {
	changed := false
	if in.Dst == old {
		in.Dst = new
		changed = true
	}
	if in.A.Kind == OperReg && in.A.Reg == old {
		in.A.Reg = new
		changed = true
	}
	if in.B.Kind == OperReg && in.B.Reg == old {
		in.B.Reg = new
		changed = true
	}
	return changed
}

// Equal reports full structural equality of two instructions.
func (in Instr) Equal(other Instr) bool { return in == other }

// String renders the instruction in the paper's RTL notation, e.g.
// "r[3]=r[4]+1;" or "PC=IC<0,L3;". Branch and jump targets print as
// L<block-id>.
func (in *Instr) String() string {
	switch in.Op {
	case OpNop:
		return "nop;"
	case OpMov:
		return fmt.Sprintf("%s=%s;", in.Dst, in.A)
	case OpMovHi:
		return fmt.Sprintf("%s=HI[%s];", in.Dst, in.Sym)
	case OpAddLo:
		return fmt.Sprintf("%s=%s+LO[%s];", in.Dst, in.A, in.Sym)
	case OpNeg:
		return fmt.Sprintf("%s=-%s;", in.Dst, in.A)
	case OpNot:
		return fmt.Sprintf("%s=~%s;", in.Dst, in.A)
	case OpLoad:
		if in.Disp == 0 {
			return fmt.Sprintf("%s=M[%s];", in.Dst, in.A)
		}
		return fmt.Sprintf("%s=M[%s+%d];", in.Dst, in.A, in.Disp)
	case OpStore:
		if in.Disp == 0 {
			return fmt.Sprintf("M[%s]=%s;", in.B, in.A)
		}
		return fmt.Sprintf("M[%s+%d]=%s;", in.B, in.Disp, in.A)
	case OpCmp:
		return fmt.Sprintf("IC=%s?%s;", in.A, in.B)
	case OpBranch:
		return fmt.Sprintf("PC=IC%s0,L%d;", in.Rel, in.Target)
	case OpJmp:
		return fmt.Sprintf("PC=L%d;", in.Target)
	case OpCall:
		return fmt.Sprintf("CALL %s(%d);", in.Sym, in.NArgs)
	case OpRet:
		if in.A.Kind == OperReg {
			return fmt.Sprintf("RET %s;", in.A)
		}
		return "RET;"
	}
	if in.Op == OpRsb {
		// Reverse subtract computes B - A; print it that way.
		return fmt.Sprintf("%s=%s-%s;", in.Dst, in.B, in.A)
	}
	if in.Op.IsALU() {
		return fmt.Sprintf("%s=%s%s%s;", in.Dst, in.A, opSymbols[in.Op], in.B)
	}
	return fmt.Sprintf("%s?;", in.Op)
}
