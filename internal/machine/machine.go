// Package machine describes the target processor. The model follows
// the StrongARM SA-1xx used by the paper: a single-issue 32-bit RISC
// with 16 general-purpose registers, immediate operands restricted per
// opcode, no immediate form of multiply, and HI/LO address formation
// for globals. The instruction selection phase consults the machine
// description to decide whether a symbolically combined instruction is
// legal before committing to it, exactly as VPO does.
package machine

import (
	"fmt"

	"repro/internal/rtl"
)

// Desc is a target machine description.
type Desc struct {
	// Name identifies the target.
	Name string
	// WordSize is the size of a machine word in bytes.
	WordSize int32
	// MaxDisp is the largest legal load/store displacement.
	MaxDisp int32
	// MaxALUImm is the largest legal immediate for add/sub/cmp.
	MaxALUImm int32
	// MaxLogicImm is the largest legal immediate for and/or/xor.
	MaxLogicImm int32
	// MaxMovImm is the largest legal immediate for mov (larger
	// constants require a HI/LO pair or literal load).
	MaxMovImm int32
}

// StrongARM returns the machine description used throughout the study.
// The ranges are a simplified but faithful rendering of the ARM
// immediate encodings: 12-bit add/sub/compare immediates, 8-bit logical
// immediates, 16-bit mov immediates and 12-bit load/store offsets.
func StrongARM() *Desc {
	return &Desc{
		Name:        "strongarm",
		WordSize:    4,
		MaxDisp:     4095,
		MaxALUImm:   4095,
		MaxLogicImm: 255,
		MaxMovImm:   65535,
	}
}

// MIPSLike returns an alternative machine description with the flavour
// of a classic MIPS: generous 16-bit immediates on the ALU and logical
// operations, but a cheaper multiplier. The abstract of the paper
// observes that "the best phase order depends on the function being
// compiled, the compiler, and the target architecture characteristics";
// enumerating the same function against two descriptions makes that
// dependence measurable (see TestSpacesDependOnTarget).
func MIPSLike() *Desc {
	return &Desc{
		Name:        "mipslike",
		WordSize:    4,
		MaxDisp:     32767,
		MaxALUImm:   32767,
		MaxLogicImm: 65535,
		MaxMovImm:   32767,
	}
}

// LegalImm reports whether imm may appear as the immediate operand of
// the given opcode.
func (d *Desc) LegalImm(op rtl.Op, imm int32) bool {
	abs := imm
	if abs < 0 {
		abs = -abs
		if abs < 0 { // MinInt32
			return false
		}
	}
	switch op {
	case rtl.OpMov:
		return abs <= d.MaxMovImm
	case rtl.OpAdd, rtl.OpSub, rtl.OpRsb, rtl.OpCmp:
		return abs <= d.MaxALUImm
	case rtl.OpAnd, rtl.OpOr, rtl.OpXor:
		return imm >= 0 && imm <= d.MaxLogicImm
	case rtl.OpShl, rtl.OpShr, rtl.OpSar:
		return imm >= 0 && imm <= 31
	case rtl.OpMul, rtl.OpDiv, rtl.OpRem:
		// No immediate forms: operands must be in registers. This is
		// what gives the strength reduction phase its opportunities.
		return false
	}
	return false
}

// LegalDisp reports whether disp is a legal load/store displacement.
func (d *Desc) LegalDisp(disp int32) bool {
	if disp < 0 {
		disp = -disp
	}
	return disp <= d.MaxDisp
}

// Legal reports whether the instruction as a whole is encodable on the
// target. The instruction selection phase calls this after each
// symbolic combination ("checks if the resulting effect is a legal
// instruction before committing to the transformation", Table 1), and
// rejects most of what it tries, so the answer costs no allocation.
func (d *Desc) Legal(in *rtl.Instr) bool { return d.violation(in) == legal }

// Check explains why an instruction is not encodable on the target, or
// returns nil for a legal instruction. Legal is the boolean view used
// on the hot instruction selection path; the verifier in internal/check
// uses Check so its diagnostics can name the violated encoding limit.
func (d *Desc) Check(in *rtl.Instr) error {
	switch d.violation(in) {
	case legal:
		return nil
	case movImm:
		return fmt.Errorf("%s: move immediate %d exceeds ±%d", d.Name, in.A.Imm, d.MaxMovImm)
	case loadBase:
		return fmt.Errorf("%s: load base must be a register", d.Name)
	case loadDisp:
		return fmt.Errorf("%s: load displacement %d exceeds ±%d", d.Name, in.Disp, d.MaxDisp)
	case storeOperands:
		return fmt.Errorf("%s: store value and base must be registers", d.Name)
	case storeDisp:
		return fmt.Errorf("%s: store displacement %d exceeds ±%d", d.Name, in.Disp, d.MaxDisp)
	case cmpOperand:
		return fmt.Errorf("%s: first comparand must be a register", d.Name)
	case cmpImm:
		return fmt.Errorf("%s: compare immediate %d exceeds ±%d", d.Name, in.B.Imm, d.MaxALUImm)
	case aluOperand:
		return fmt.Errorf("%s: %s operand A must be a register", d.Name, in.Op)
	case aluImm:
		return fmt.Errorf("%s: %s has no encoding for immediate %d", d.Name, in.Op, in.B.Imm)
	}
	return fmt.Errorf("%s: unknown opcode %s", d.Name, in.Op)
}

// violation names the encoding rule an instruction breaks.
type violation uint8

const (
	legal violation = iota
	movImm
	loadBase
	loadDisp
	storeOperands
	storeDisp
	cmpOperand
	cmpImm
	aluOperand
	aluImm
	unknownOp
)

// violation is the target's encoding rules, the one statement of them:
// Legal compares its answer, Check words it.
func (d *Desc) violation(in *rtl.Instr) violation {
	switch in.Op {
	case rtl.OpNop, rtl.OpMovHi, rtl.OpAddLo, rtl.OpBranch, rtl.OpJmp,
		rtl.OpCall, rtl.OpRet, rtl.OpNeg, rtl.OpNot:
		return legal
	case rtl.OpMov:
		if in.A.Kind == rtl.OperImm && !d.LegalImm(rtl.OpMov, in.A.Imm) {
			return movImm
		}
		return legal
	case rtl.OpLoad:
		if in.A.Kind != rtl.OperReg {
			return loadBase
		}
		if !d.LegalDisp(in.Disp) {
			return loadDisp
		}
		return legal
	case rtl.OpStore:
		if in.A.Kind != rtl.OperReg || in.B.Kind != rtl.OperReg {
			return storeOperands
		}
		if !d.LegalDisp(in.Disp) {
			return storeDisp
		}
		return legal
	case rtl.OpCmp:
		if in.A.Kind != rtl.OperReg {
			return cmpOperand
		}
		if in.B.Kind == rtl.OperImm && !d.LegalImm(rtl.OpCmp, in.B.Imm) {
			return cmpImm
		}
		return legal
	}
	if in.Op.IsALU() {
		if in.A.Kind != rtl.OperReg {
			return aluOperand
		}
		if in.B.Kind == rtl.OperImm && !d.LegalImm(in.Op, in.B.Imm) {
			return aluImm
		}
		return legal
	}
	return unknownOp
}

// Cost returns the latency of an instruction in cycles on the modeled
// single-issue pipeline. The strength reduction phase replaces an
// instruction only when the replacement sequence is cheaper.
func (d *Desc) Cost(in *rtl.Instr) int {
	switch in.Op {
	case rtl.OpMul:
		return 4
	case rtl.OpDiv, rtl.OpRem:
		return 24
	case rtl.OpLoad:
		return 2
	case rtl.OpNop:
		return 0
	}
	return 1
}
