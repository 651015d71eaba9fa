package rtl

import (
	"encoding/json"
	"strconv"
)

// A function's JSON is what encoding/json wrote for it when an
// instruction spelled its symbol as a string: the exported fields in
// declaration order, an instruction's fields in the order Op, Dst, A, B,
// Disp, Sym, Rel, Target, NArgs with Sym the symbol's name, and no
// symbol table. A space document's root and the fleet's assignments
// carry it, so its bytes are part of every canonical space hash.

// MarshalJSON returns AppendJSON's bytes.
func (f *Func) MarshalJSON() ([]byte, error) { return f.AppendJSON(nil), nil }

// AppendJSON appends f's JSON to b; a nil f is null.
func (f *Func) AppendJSON(b []byte) []byte {
	if f == nil {
		return append(b, "null"...)
	}
	b = AppendJSONString(append(b, `{"Name":`...), f.Name)
	b = strconv.AppendInt(append(b, `,"NArgs":`...), int64(f.NArgs), 10)
	b = strconv.AppendBool(append(b, `,"Returns":`...), f.Returns)
	b = append(b, `,"Blocks":`...)
	if f.Blocks == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, blk := range f.Blocks {
			if i > 0 {
				b = append(b, ',')
			}
			b = f.appendBlock(b, blk)
		}
		b = append(b, ']')
	}
	b = append(b, `,"Slots":`...)
	if f.Slots == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, s := range f.Slots {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendJSONString(append(b, `{"Name":`...), s.Name)
			b = strconv.AppendInt(append(b, `,"Offset":`...), int64(s.Offset), 10)
			b = strconv.AppendInt(append(b, `,"Size":`...), int64(s.Size), 10)
			b = append(strconv.AppendBool(append(b, `,"Scalar":`...), s.Scalar), '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"FrameSize":`...), int64(f.FrameSize), 10)
	b = strconv.AppendUint(append(b, `,"NextPseudo":`...), uint64(f.NextPseudo), 10)
	b = strconv.AppendInt(append(b, `,"NextBlockID":`...), int64(f.NextBlockID), 10)
	b = strconv.AppendBool(append(b, `,"RegAssigned":`...), f.RegAssigned)
	b = strconv.AppendBool(append(b, `,"EntryExitFixed":`...), f.EntryExitFixed)
	return append(b, '}')
}

func (f *Func) appendBlock(b []byte, blk *Block) []byte {
	if blk == nil {
		return append(b, "null"...)
	}
	b = strconv.AppendInt(append(b, `{"ID":`...), int64(blk.ID), 10)
	if blk.Instrs == nil {
		return append(b, `,"Instrs":null}`...)
	}
	b = append(b, `,"Instrs":[`...)
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(append(b, `{"Op":`...), uint64(in.Op), 10)
		b = strconv.AppendUint(append(b, `,"Dst":`...), uint64(in.Dst), 10)
		b = appendOperand(append(b, `,"A":`...), in.A)
		b = appendOperand(append(b, `,"B":`...), in.B)
		b = strconv.AppendInt(append(b, `,"Disp":`...), int64(in.Disp), 10)
		b = AppendJSONString(append(b, `,"Sym":`...), f.SymName(in.Sym))
		b = strconv.AppendUint(append(b, `,"Rel":`...), uint64(in.Rel), 10)
		b = strconv.AppendInt(append(b, `,"Target":`...), int64(in.Target), 10)
		b = strconv.AppendUint(append(b, `,"NArgs":`...), uint64(in.NArgs), 10)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

func appendOperand(b []byte, o Operand) []byte {
	b = strconv.AppendUint(append(b, `{"Kind":`...), uint64(o.Kind), 10)
	b = strconv.AppendUint(append(b, `,"Reg":`...), uint64(o.Reg), 10)
	b = strconv.AppendInt(append(b, `,"Imm":`...), int64(o.Imm), 10)
	return append(b, '}')
}

// AppendJSONString appends s as encoding/json quotes it. Printable
// ASCII that JSON and HTML leave alone is copied as it stands; anything
// else — quotes, backslashes, <, > and &, control bytes, non-ASCII,
// invalid UTF-8 — is quoted by encoding/json itself.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// jsonFunc, jsonBlock and jsonInstr are the shapes UnmarshalJSON
// decodes: Func's, Block's and Instr's exported fields as the JSON
// spells them.
type jsonFunc struct {
	Name           string
	NArgs          int
	Returns        bool
	Blocks         []*jsonBlock
	Slots          []Slot
	FrameSize      int32
	NextPseudo     Reg
	NextBlockID    int
	RegAssigned    bool
	EntryExitFixed bool
}

type jsonBlock struct {
	ID     int
	Instrs []jsonInstr
}

type jsonInstr struct {
	Op     Op
	Dst    Reg
	A, B   Operand
	Disp   int32
	Sym    string
	Rel    Rel
	Target int32
	NArgs  uint8
}

// UnmarshalJSON decodes f from its JSON, interning the symbols into a
// table of f's own in the order the instructions name them. A document
// naming more than MaxSyms symbols decodes, and fails Validate.
func (f *Func) UnmarshalJSON(data []byte) error {
	var jf jsonFunc
	if err := json.Unmarshal(data, &jf); err != nil {
		return err
	}
	*f = Func{
		Name:           jf.Name,
		NArgs:          jf.NArgs,
		Returns:        jf.Returns,
		Slots:          jf.Slots,
		FrameSize:      jf.FrameSize,
		NextPseudo:     jf.NextPseudo,
		NextBlockID:    jf.NextBlockID,
		RegAssigned:    jf.RegAssigned,
		EntryExitFixed: jf.EntryExitFixed,
	}
	if jf.Blocks != nil {
		f.Blocks = make([]*Block, len(jf.Blocks))
	}
	for i, jb := range jf.Blocks {
		if jb == nil {
			continue
		}
		b := &Block{ID: jb.ID}
		if jb.Instrs != nil {
			b.Instrs = make([]Instr, len(jb.Instrs))
		}
		for k, ji := range jb.Instrs {
			b.Instrs[k] = Instr{Op: ji.Op, Dst: ji.Dst, A: ji.A, B: ji.B, Disp: ji.Disp,
				Sym: f.Intern(ji.Sym), Rel: ji.Rel, Target: ji.Target, NArgs: ji.NArgs}
		}
		f.Blocks[i] = b
	}
	f.symIdx = nil // only building needs the index
	return nil
}
