package rtl

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseFunc parses the textual RTL notation produced by Func.String,
// closing the print/parse round trip. The expected form is
//
//	name(nargs):
//	L0:
//	        r[3]=r[4]+1;
//	        IC=r[1]?r[9];
//	        PC=IC<0,L3;
//	...
//
// Lines are trimmed, so indentation is free-form; blank lines are
// skipped. The parser exists for tests, fixtures and tooling — the
// compiler pipeline itself never parses RTL.
func ParseFunc(text string) (*Func, error) {
	lines := strings.Split(text, "\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("rtl: empty input")
	}
	var f *Func
	var cur *Block
	labelIDs := map[int]bool{}
	lineNo := 0
	for _, raw := range lines {
		lineNo++
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if f == nil {
			// Header: name(nargs):
			open := strings.IndexByte(line, '(')
			close := strings.IndexByte(line, ')')
			if open < 1 || close < open || !strings.HasSuffix(line, ":") {
				return nil, fmt.Errorf("rtl: line %d: expected \"name(nargs):\", got %q", lineNo, line)
			}
			nargs, err := strconv.Atoi(line[open+1 : close])
			if err != nil {
				return nil, fmt.Errorf("rtl: line %d: bad argument count: %v", lineNo, err)
			}
			f = &Func{Name: line[:open], NArgs: nargs, NextPseudo: FirstPseudo}
			continue
		}
		if strings.HasPrefix(line, "L") && strings.HasSuffix(line, ":") {
			id, err := strconv.Atoi(line[1 : len(line)-1])
			if err != nil {
				return nil, fmt.Errorf("rtl: line %d: bad label %q", lineNo, line)
			}
			if labelIDs[id] {
				return nil, fmt.Errorf("rtl: line %d: duplicate label L%d", lineNo, id)
			}
			labelIDs[id] = true
			cur = &Block{ID: id}
			f.Blocks = append(f.Blocks, cur)
			if id >= f.NextBlockID {
				f.NextBlockID = id + 1
			}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("rtl: line %d: instruction before any label", lineNo)
		}
		in, err := parseInstr(f, line)
		if err != nil {
			return nil, fmt.Errorf("rtl: line %d: %v", lineNo, err)
		}
		trackRegs(f, &in)
		cur.Instrs = append(cur.Instrs, in)
	}
	if f == nil || len(f.Blocks) == 0 {
		return nil, fmt.Errorf("rtl: no function body")
	}
	// Mark the function register-assigned when no pseudo registers
	// appear.
	f.RegAssigned = true
	f.UsedRegs().ForEach(func(r Reg) {
		if r.IsPseudo() {
			f.RegAssigned = false
		}
	})
	if f.Returns {
		// set by RET r[0] forms during parsing via trackRegs
	}
	return f, nil
}

// trackRegs keeps NextPseudo above every referenced pseudo register.
func trackRegs(f *Func, in *Instr) {
	var buf [8]Reg
	for _, r := range in.Defs(buf[:0]) {
		if r.IsPseudo() && r >= f.NextPseudo {
			f.NextPseudo = r + 1
		}
	}
	for _, r := range in.Uses(buf[:0]) {
		if r.IsPseudo() && r >= f.NextPseudo {
			f.NextPseudo = r + 1
		}
	}
	if in.Op == OpRet && in.A.Kind == OperReg {
		f.Returns = true
	}
}

var relByName = map[string]Rel{
	"==": RelEQ, "!=": RelNE, "<": RelLT, "<=": RelLE, ">": RelGT,
	">=": RelGE, "<u": RelULT, "<=u": RelULE, ">u": RelUGT, ">=u": RelUGE,
}

var opBySymbol = map[string]Op{
	"+": OpAdd, "-": OpSub, "*": OpMul, "/": OpDiv, "%": OpRem,
	"&": OpAnd, "|": OpOr, "^": OpXor, "<<": OpShl, ">>u": OpShr, ">>": OpSar,
}

// parseInstr parses one semicolon-terminated instruction.
func parseInstr(f *Func, line string) (Instr, error) {
	var in Instr
	s := strings.TrimSuffix(strings.TrimSpace(line), ";")
	switch {
	case s == "nop":
		in.Op = OpNop
		return in, nil
	case s == "RET":
		in.Op = OpRet
		return in, nil
	case strings.HasPrefix(s, "RET "):
		r, err := parseReg(strings.TrimSpace(s[4:]))
		if err != nil {
			return in, err
		}
		in.Op = OpRet
		in.A = R(r)
		return in, nil
	case strings.HasPrefix(s, "CALL "):
		rest := strings.TrimSpace(s[5:])
		open := strings.IndexByte(rest, '(')
		close := strings.IndexByte(rest, ')')
		if open < 1 || close < open {
			return in, fmt.Errorf("bad call %q", s)
		}
		n, err := strconv.Atoi(rest[open+1 : close])
		if err != nil || n < 0 || n > 4 {
			return in, fmt.Errorf("bad call arity in %q", s)
		}
		in.Op = OpCall
		in.Sym = f.Intern(rest[:open])
		in.NArgs = uint8(n)
		return in, nil
	case strings.HasPrefix(s, "PC=IC"):
		rest := s[5:]
		comma := strings.IndexByte(rest, ',')
		if comma < 0 {
			return in, fmt.Errorf("bad branch %q", s)
		}
		relStr := strings.TrimSuffix(rest[:comma], "0")
		rel, ok := relByName[relStr]
		if !ok {
			return in, fmt.Errorf("bad relation %q in %q", relStr, s)
		}
		t, err := parseLabel(rest[comma+1:])
		if err != nil {
			return in, err
		}
		in.Op = OpBranch
		in.Rel = rel
		in.Target = t
		return in, nil
	case strings.HasPrefix(s, "PC=L"):
		t, err := parseLabel(s[3:])
		if err != nil {
			return in, err
		}
		in.Op = OpJmp
		in.Target = t
		return in, nil
	case strings.HasPrefix(s, "IC="):
		rest := s[3:]
		q := strings.IndexByte(rest, '?')
		if q < 0 {
			return in, fmt.Errorf("bad compare %q", s)
		}
		a, err := parseOperand(rest[:q])
		if err != nil {
			return in, err
		}
		b, err := parseOperand(rest[q+1:])
		if err != nil {
			return in, err
		}
		in = NewCmp(a, b)
		return in, nil
	case strings.HasPrefix(s, "M["):
		// Store: M[base(+disp)]=src
		eq := strings.Index(s, "]=")
		if eq < 0 {
			return in, fmt.Errorf("bad store %q", s)
		}
		base, disp, err := parseAddr(s[2:eq])
		if err != nil {
			return in, err
		}
		val, err := parseReg(s[eq+2:])
		if err != nil {
			return in, err
		}
		return NewStore(val, base, disp), nil
	}

	// Everything else: dst=rhs.
	eq := strings.IndexByte(s, '=')
	if eq < 0 {
		return in, fmt.Errorf("unrecognized instruction %q", s)
	}
	dst, err := parseReg(s[:eq])
	if err != nil {
		return in, err
	}
	rhs := s[eq+1:]
	switch {
	case strings.HasPrefix(rhs, "M["):
		if !strings.HasSuffix(rhs, "]") {
			return in, fmt.Errorf("bad load %q", s)
		}
		base, disp, err := parseAddr(rhs[2 : len(rhs)-1])
		if err != nil {
			return in, err
		}
		return NewLoad(dst, base, disp), nil
	case strings.HasPrefix(rhs, "HI["):
		sym := strings.TrimSuffix(strings.TrimPrefix(rhs, "HI["), "]")
		return Instr{Op: OpMovHi, Dst: dst, Sym: f.Intern(sym)}, nil
	case strings.HasPrefix(rhs, "-"):
		if r, err := parseReg(rhs[1:]); err == nil {
			return Instr{Op: OpNeg, Dst: dst, A: R(r)}, nil
		}
	case strings.HasPrefix(rhs, "~"):
		r, err := parseReg(rhs[1:])
		if err != nil {
			return in, err
		}
		return Instr{Op: OpNot, Dst: dst, A: R(r)}, nil
	}
	// AddLo: r[x]+LO[sym]
	if lo := strings.Index(rhs, "+LO["); lo > 0 && strings.HasSuffix(rhs, "]") {
		a, err := parseReg(rhs[:lo])
		if err != nil {
			return in, err
		}
		return Instr{Op: OpAddLo, Dst: dst, A: R(a), Sym: f.Intern(rhs[lo+4 : len(rhs)-1])}, nil
	}
	// Binary ALU: operand op operand. Find the operator after the
	// first operand.
	if a, rest, ok := splitOperand(rhs); ok && rest != "" {
		for _, sym := range []string{"<<", ">>u", ">>", "+", "-", "*", "/", "%", "&", "|", "^"} {
			if strings.HasPrefix(rest, sym) {
				b, err := parseOperand(rest[len(sym):])
				if err != nil {
					return in, err
				}
				op := opBySymbol[sym]
				if op == OpSub && a.Kind == OperImm && b.Kind == OperReg {
					// "c-r" is the printed form of reverse subtract.
					return NewALU(OpRsb, dst, b, a), nil
				}
				return NewALU(op, dst, a, b), nil
			}
		}
		return in, fmt.Errorf("bad operator in %q", s)
	}
	// Plain move.
	src, err := parseOperand(rhs)
	if err != nil {
		return in, err
	}
	return NewMov(dst, src), nil
}

// splitOperand splits the leading operand off an expression.
func splitOperand(s string) (Operand, string, bool) {
	if strings.HasPrefix(s, "r[") || strings.HasPrefix(s, "PC") || strings.HasPrefix(s, "IC") {
		end := strings.IndexByte(s, ']')
		if strings.HasPrefix(s, "IC") {
			return R(RegIC), s[2:], true
		}
		if end < 0 {
			return Operand{}, "", false
		}
		r, err := parseReg(s[:end+1])
		if err != nil {
			return Operand{}, "", false
		}
		return R(r), s[end+1:], true
	}
	// Immediate: digits (optionally negative).
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 || (i == 1 && s[0] == '-') {
		return Operand{}, "", false
	}
	v, err := strconv.ParseInt(s[:i], 10, 32)
	if err != nil {
		return Operand{}, "", false
	}
	return Imm(int32(v)), s[i:], true
}

func parseOperand(s string) (Operand, error) {
	s = strings.TrimSpace(s)
	o, rest, ok := splitOperand(s)
	if !ok || rest != "" {
		return Operand{}, fmt.Errorf("bad operand %q", s)
	}
	return o, nil
}

func parseReg(s string) (Reg, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "r[sp]":
		return RegSP, nil
	case "r[lr]":
		return RegLR, nil
	case "PC":
		return RegPC, nil
	case "IC":
		return RegIC, nil
	}
	if !strings.HasPrefix(s, "r[") || !strings.HasSuffix(s, "]") {
		return RegNone, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[2 : len(s)-1])
	if err != nil || n < 0 || n > 0xFFFE {
		return RegNone, fmt.Errorf("bad register %q", s)
	}
	return Reg(n), nil
}

// parseAddr parses "r[b]" or "r[b]+disp" (disp may be negative).
func parseAddr(s string) (Reg, int32, error) {
	s = strings.TrimSpace(s)
	end := strings.IndexByte(s, ']')
	if end < 0 {
		return RegNone, 0, fmt.Errorf("bad address %q", s)
	}
	base, err := parseReg(s[:end+1])
	if err != nil {
		return RegNone, 0, err
	}
	rest := s[end+1:]
	if rest == "" {
		return base, 0, nil
	}
	if !strings.HasPrefix(rest, "+") && !strings.HasPrefix(rest, "-") {
		return RegNone, 0, fmt.Errorf("bad displacement in %q", s)
	}
	v, err := strconv.ParseInt(rest, 10, 32)
	if err != nil {
		return RegNone, 0, fmt.Errorf("bad displacement in %q", s)
	}
	return base, int32(v), nil
}

// parseLabel parses "L<n>", n an int32 as an instruction's Target is.
func parseLabel(s string) (int32, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "L") {
		return 0, fmt.Errorf("bad label %q", s)
	}
	n, err := strconv.ParseInt(s[1:], 10, 32)
	return int32(n), err
}
