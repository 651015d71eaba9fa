// Package fingerprint detects identical function instances, the
// second pruning technique of the paper (Section 4.2). Two instances
// produced by different phase orderings are considered the same when
// their instructions are identical after canonically renumbering
// registers and block labels in first-encounter order — the paper's
// Figure 5 remapping, which catches instances that differ only because
// optimization phases consumed registers or created blocks in a
// different order.
//
// Following the paper, each instance is summarized by three values —
// instruction count, byte sum and CRC-32 checksum of the canonical
// encoding. The package additionally exposes the full canonical
// encoding so the search can compare instances exactly; the paper
// verified empirically that the checksum triple never conflated
// distinct instances, and the exact encoding lets this implementation
// guarantee it.
package fingerprint

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/rtl"
)

// FP is the paper's function-instance summary: the number of
// instructions, the byte sum of the canonical encoding, and its CRC-32
// checksum.
type FP struct {
	Count   int
	ByteSum uint32
	CRC     uint32
}

// Key is the exact canonical encoding of a function instance, usable
// as a map key. Instances with equal Keys are identical up to register
// and label renumbering.
type Key string

// numbering hands out consecutive numbers to small non-negative keys —
// register numbers, block IDs — in first-encounter order. It is a table
// indexed by the key, not a map: a summarization asks for a number per
// operand, the keys are below a few dozen, and hashing them was a
// twentieth of an enumeration.
type numbering struct {
	code []uint16 // by key: its number + 1, 0 while it has none
	next uint16   // the next number to hand out
}

// reset forgets every key; numbers start again at first.
func (t *numbering) reset(first uint16) {
	clear(t.code)
	t.next = first
}

// cell returns key's table entry, growing the table to hold it.
func (t *numbering) cell(key int) *uint16 {
	if key >= len(t.code) {
		t.code = append(t.code, make([]uint16, key+1-len(t.code))...)
	}
	return &t.code[key]
}

// of returns key's number, the next unused one at first sight.
func (t *numbering) of(key int) uint16 {
	c := t.cell(key)
	if *c == 0 {
		t.next++
		*c = t.next
	}
	return *c - 1
}

// remapper assigns canonical numbers to registers and labels in
// first-encounter order, scanning the function from the top basic
// block, as in Section 4.2.1.
type remapper struct {
	regs   numbering
	labels numbering
}

// reset readies r for a scan. Structural registers keep fixed codes:
// the stack pointer and condition codes are not allocatable, so
// renumbering them would only mask real differences. The other
// registers' codes start after the three fixed ones.
func (r *remapper) reset() {
	r.regs.reset(3)
	r.labels.reset(0)
	*r.regs.cell(int(rtl.RegSP)) = 0xFFF0 + 1
	*r.regs.cell(int(rtl.RegIC)) = 0xFFF1 + 1
}

func newRemapper() *remapper {
	r := new(remapper)
	r.reset()
	return r
}

func (r *remapper) reg(x rtl.Reg) uint16 {
	if x == rtl.RegNone {
		return 0xFFFF // fixed, and far outside any table
	}
	return r.regs.of(int(x))
}

func (r *remapper) label(id int) uint16 { return r.labels.of(id) }

// Encode produces the canonical byte encoding of the function.
// Blocks are labeled in layout order as they are encountered from the
// top; branch targets met before their block get numbered at first
// reference, exactly like a top-down scan.
func Encode(f *rtl.Func) []byte {
	return EncodeTo(make([]byte, 0, f.NumInstrs()*16), f)
}

// KeyOf returns the exact canonical key of a function instance.
func KeyOf(f *rtl.Func) Key { return Key(Encode(f)) }

// Of computes the paper's three-value fingerprint of a function
// instance.
func Of(f *rtl.Func) FP {
	enc := Encode(f)
	var sum uint32
	for _, b := range enc {
		sum += uint32(b)
	}
	return FP{
		Count:   f.NumInstrs(),
		ByteSum: sum,
		CRC:     crc32.ChecksumIEEE(enc),
	}
}

// Canonicalize returns a copy of the function with registers and
// labels renumbered to canonical form — the transformation of
// Figure 5(d). The copy is for display and testing; the search
// compares encodings directly.
func Canonicalize(f *rtl.Func) *rtl.Func {
	rm := newRemapper()
	nf := f.Clone()
	// Establish numbering with a scan identical to Encode's.
	for _, b := range nf.Blocks {
		rm.label(b.ID)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case rtl.OpBranch, rtl.OpJmp:
				rm.label(in.Target)
			case rtl.OpCall:
			default:
				if in.Dst != rtl.RegNone {
					rm.reg(in.Dst)
				}
				if in.A.Kind == rtl.OperReg {
					rm.reg(in.A.Reg)
				}
				if in.B.Kind == rtl.OperReg {
					rm.reg(in.B.Reg)
				}
			}
		}
	}
	mapReg := func(x rtl.Reg) rtl.Reg {
		switch x {
		case rtl.RegSP, rtl.RegIC, rtl.RegNone:
			return x
		}
		// Canonical registers start at 1 in the paper's presentation;
		// the remapper's fixed codes occupy high values, and dynamic
		// codes start after the three preassigned entries.
		return rtl.Reg(rm.reg(x) - 2)
	}
	for _, b := range nf.Blocks {
		b.ID = int(rm.label(b.ID))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == rtl.OpBranch || in.Op == rtl.OpJmp {
				in.Target = int(rm.label(in.Target))
				continue
			}
			if in.Op == rtl.OpCall {
				continue
			}
			if in.Dst != rtl.RegNone {
				in.Dst = mapReg(in.Dst)
			}
			if in.A.Kind == rtl.OperReg {
				in.A.Reg = mapReg(in.A.Reg)
			}
			if in.B.Kind == rtl.OperReg {
				in.B.Reg = mapReg(in.B.Reg)
			}
		}
	}
	nf.NextBlockID = len(nf.Blocks)
	return nf
}

// ControlFlowKey summarizes the control-flow shape of a function —
// block count plus the branch structure — used for the paper's count
// of distinct control flows (Table 3, column CF).
func ControlFlowKey(f *rtl.Func) Key {
	var labels numbering
	var buf []byte
	u16 := func(v uint16) { buf = binary.LittleEndian.AppendUint16(buf, v) }
	for _, b := range f.Blocks {
		u16(labels.of(b.ID))
		last := b.Last()
		if last == nil {
			buf = append(buf, 0)
			continue
		}
		switch last.Op {
		case rtl.OpBranch:
			buf = append(buf, 1, byte(last.Rel))
			u16(labels.of(last.Target))
		case rtl.OpJmp:
			buf = append(buf, 2)
			u16(labels.of(last.Target))
		case rtl.OpRet:
			buf = append(buf, 3)
		default:
			buf = append(buf, 0)
		}
	}
	return Key(buf)
}
