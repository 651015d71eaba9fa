// Single-pass summarization of a function instance: one scan produces
// the full canonical encoding, the control-flow key, and the
// three-value fingerprint together. The search's workers use this to
// move all encoding work off the serial merge path; the byte output is
// identical to the separate Encode / Of / ControlFlowKey computations.
package fingerprint

import (
	"encoding/binary"
	"hash/crc32"
	"sync"

	"repro/internal/rtl"
)

// Buffer holds the reusable byte slices filled by SummarizeInto: the
// full canonical encoding and the control-flow key encoding. Equiv is
// its holder's to fill — SummarizeInto leaves it alone — so that a key
// the holder derives besides (the search's equivalence class key) is
// pooled with the rest. Obtain one with GetBuffer and return it with
// PutBuffer once the bytes have been consumed (copied or compared).
type Buffer struct {
	Enc   []byte
	CF    []byte
	Equiv []byte
}

var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// GetBuffer returns a pooled Buffer. The slices it contains are
// overwritten by the next SummarizeInto call.
func GetBuffer() *Buffer { return bufferPool.Get().(*Buffer) }

// PutBuffer returns a Buffer to the pool. The caller must not retain
// b.Enc or b.CF afterwards.
func PutBuffer(b *Buffer) { bufferPool.Put(b) }

// scan is the pooled per-summarization remapping state: the register
// and label remapper for the full encoding, plus the independent label
// remapper the control-flow key requires (it numbers only block IDs
// and terminator targets, in its own first-encounter order).
type scan struct {
	rm       remapper
	cfLabels numbering
}

var scanPool = sync.Pool{New: func() any { return new(scan) }}

func (s *scan) reset() {
	s.rm.reset()
	s.cfLabels.reset(0)
}

// appendOperand appends the canonical encoding of one operand.
func appendOperand(dst []byte, rm *remapper, o rtl.Operand) []byte {
	dst = append(dst, byte(o.Kind))
	switch o.Kind {
	case rtl.OperReg:
		dst = binary.LittleEndian.AppendUint16(dst, rm.reg(o.Reg))
	case rtl.OperImm:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(o.Imm))
	}
	return dst
}

// appendInstr appends the canonical encoding of one instruction.
func appendInstr(dst []byte, rm *remapper, in *rtl.Instr) []byte {
	dst = append(dst, byte(in.Op))
	switch in.Op {
	case rtl.OpBranch:
		dst = append(dst, byte(in.Rel))
		dst = binary.LittleEndian.AppendUint16(dst, rm.label(in.Target))
	case rtl.OpJmp:
		dst = binary.LittleEndian.AppendUint16(dst, rm.label(in.Target))
	case rtl.OpCall:
		dst = append(dst, in.NArgs)
		dst = append(dst, byte(len(in.Sym)))
		dst = append(dst, in.Sym...)
	case rtl.OpMovHi, rtl.OpAddLo:
		dst = binary.LittleEndian.AppendUint16(dst, rm.reg(in.Dst))
		dst = appendOperand(dst, rm, in.A)
		dst = append(dst, byte(len(in.Sym)))
		dst = append(dst, in.Sym...)
	default:
		dst = binary.LittleEndian.AppendUint16(dst, rm.reg(in.Dst))
		dst = appendOperand(dst, rm, in.A)
		dst = appendOperand(dst, rm, in.B)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(in.Disp))
	}
	return dst
}

// EncodeTo appends the canonical byte encoding of f to dst and returns
// the extended slice, reusing dst's backing array when it has capacity.
func EncodeTo(dst []byte, f *rtl.Func) []byte {
	s := scanPool.Get().(*scan)
	s.reset()
	for _, b := range f.Blocks {
		dst = binary.LittleEndian.AppendUint16(dst, s.rm.label(b.ID))
		for i := range b.Instrs {
			dst = appendInstr(dst, &s.rm, &b.Instrs[i])
		}
	}
	scanPool.Put(s)
	return dst
}

// SummarizeInto fills buf with the canonical encoding (buf.Enc) and
// control-flow key (buf.CF) of f in one fused scan, and returns the
// three-value fingerprint of the encoding. The results are
// byte-identical to Encode, ControlFlowKey and Of computed separately.
func SummarizeInto(buf *Buffer, f *rtl.Func) FP {
	s := scanPool.Get().(*scan)
	s.reset()
	enc := buf.Enc[:0]
	cf := buf.CF[:0]
	count := 0
	for _, b := range f.Blocks {
		enc = binary.LittleEndian.AppendUint16(enc, s.rm.label(b.ID))
		count += len(b.Instrs)
		for i := range b.Instrs {
			enc = appendInstr(enc, &s.rm, &b.Instrs[i])
		}
		// Control-flow leg: same bytes ControlFlowKey emits, but with
		// its own label numbering (it sees only block IDs and
		// terminator targets, so first-encounter order differs from the
		// full encoding's).
		cf = binary.LittleEndian.AppendUint16(cf, s.cfLabels.of(b.ID))
		last := b.Last()
		if last == nil {
			cf = append(cf, 0)
			continue
		}
		switch last.Op {
		case rtl.OpBranch:
			cf = append(cf, 1, byte(last.Rel))
			cf = binary.LittleEndian.AppendUint16(cf, s.cfLabels.of(last.Target))
		case rtl.OpJmp:
			cf = append(cf, 2)
			cf = binary.LittleEndian.AppendUint16(cf, s.cfLabels.of(last.Target))
		case rtl.OpRet:
			cf = append(cf, 3)
		default:
			cf = append(cf, 0)
		}
	}
	scanPool.Put(s)
	buf.Enc, buf.CF = enc, cf
	var sum uint32
	for _, c := range enc {
		sum += uint32(c)
	}
	return FP{Count: count, ByteSum: sum, CRC: crc32.ChecksumIEEE(enc)}
}

// Summarize computes the fingerprint, exact canonical key and
// control-flow key of f in a single scan.
func Summarize(f *rtl.Func) (FP, Key, Key) {
	buf := GetBuffer()
	fp := SummarizeInto(buf, f)
	k, cf := Key(buf.Enc), Key(buf.CF)
	PutBuffer(buf)
	return fp, k, cf
}
