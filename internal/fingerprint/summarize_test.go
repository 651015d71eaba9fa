package fingerprint_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/rtl"
)

// TestSummarizeMatchesLegacy checks the fused single-pass summary
// against the three independent legacy computations over the randprog
// corpus: every function instance reached by random phase orderings
// must yield byte-identical encoding, control-flow key and fingerprint
// triple.
func TestSummarizeMatchesLegacy(t *testing.T) {
	programs := 25
	if testing.Short() {
		programs = 6
	}
	d := machine.StrongARM()
	all := opt.All()
	checked := 0
	buf := fingerprint.GetBuffer()
	defer fingerprint.PutBuffer(buf)
	for seed := int64(0); seed < int64(programs); seed++ {
		p := randprog.New(seed, randprog.Config{})
		prog, err := mc.Compile(p.Source)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed ^ 0x77))
		for trial := 0; trial < 3; trial++ {
			mod := prog.Clone()
			f := mod.Func(p.Entry)
			var st opt.State
			for step := 0; step < 10; step++ {
				wantEnc := fingerprint.Encode(f)
				wantFP := fingerprint.Of(f)
				wantCF := fingerprint.ControlFlowKey(f)

				fp, key, cf := fingerprint.Summarize(f)
				if string(key) != string(wantEnc) {
					t.Fatalf("seed %d step %d: Summarize key differs from Encode", seed, step)
				}
				if cf != wantCF {
					t.Fatalf("seed %d step %d: Summarize CF key differs from ControlFlowKey", seed, step)
				}
				if fp != wantFP {
					t.Fatalf("seed %d step %d: Summarize FP %+v != Of %+v", seed, step, fp, wantFP)
				}
				gotFP := fingerprint.SummarizeInto(buf, f)
				if gotFP != wantFP || !bytes.Equal(buf.Enc, wantEnc) || string(buf.CF) != string(wantCF) {
					t.Fatalf("seed %d step %d: SummarizeInto disagrees with legacy computations", seed, step)
				}
				if got := fingerprint.EncodeTo(nil, f); !bytes.Equal(got, wantEnc) {
					t.Fatalf("seed %d step %d: EncodeTo differs from Encode", seed, step)
				}
				checked++

				opt.Attempt(f, &st, all[rng.Intn(len(all))], d)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no instances checked")
	}
	t.Logf("checked %d instances", checked)
}

// mapEncoder is the encoding as it was computed before the remapper's
// tables became slices: first-encounter numbering kept in Go maps,
// which have no size to outgrow. It is the reference for
// TestDenseTablesMatchMapReference only.
type mapEncoder struct {
	regs   map[rtl.Reg]uint16
	labels map[int]uint16
}

func newMapEncoder() *mapEncoder {
	return &mapEncoder{
		regs:   map[rtl.Reg]uint16{rtl.RegSP: 0xFFF0, rtl.RegIC: 0xFFF1, rtl.RegNone: 0xFFFF},
		labels: map[int]uint16{},
	}
}

func (m *mapEncoder) reg(x rtl.Reg) uint16 {
	if n, ok := m.regs[x]; ok {
		return n
	}
	n := uint16(len(m.regs))
	m.regs[x] = n
	return n
}

func (m *mapEncoder) label(id int) uint16 {
	if n, ok := m.labels[id]; ok {
		return n
	}
	n := uint16(len(m.labels))
	m.labels[id] = n
	return n
}

func (m *mapEncoder) operand(dst []byte, o rtl.Operand) []byte {
	dst = append(dst, byte(o.Kind))
	switch o.Kind {
	case rtl.OperReg:
		dst = binary.LittleEndian.AppendUint16(dst, m.reg(o.Reg))
	case rtl.OperImm:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(o.Imm))
	}
	return dst
}

func (m *mapEncoder) encode(f *rtl.Func) []byte {
	var dst []byte
	for _, b := range f.Blocks {
		dst = binary.LittleEndian.AppendUint16(dst, m.label(b.ID))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			dst = append(dst, byte(in.Op))
			switch in.Op {
			case rtl.OpBranch:
				dst = append(dst, byte(in.Rel))
				dst = binary.LittleEndian.AppendUint16(dst, m.label(in.Target))
			case rtl.OpJmp:
				dst = binary.LittleEndian.AppendUint16(dst, m.label(in.Target))
			case rtl.OpCall:
				dst = append(dst, in.NArgs, byte(len(in.Sym)))
				dst = append(dst, in.Sym...)
			case rtl.OpMovHi, rtl.OpAddLo:
				dst = binary.LittleEndian.AppendUint16(dst, m.reg(in.Dst))
				dst = m.operand(dst, in.A)
				dst = append(dst, byte(len(in.Sym)))
				dst = append(dst, in.Sym...)
			default:
				dst = binary.LittleEndian.AppendUint16(dst, m.reg(in.Dst))
				dst = m.operand(dst, in.A)
				dst = m.operand(dst, in.B)
				dst = binary.LittleEndian.AppendUint32(dst, uint32(in.Disp))
			}
		}
	}
	return dst
}

func (m *mapEncoder) controlFlow(f *rtl.Func) []byte {
	var dst []byte
	for _, b := range f.Blocks {
		dst = binary.LittleEndian.AppendUint16(dst, m.label(b.ID))
		last := b.Last()
		switch {
		case last == nil:
			dst = append(dst, 0)
		case last.Op == rtl.OpBranch:
			dst = append(dst, 1, byte(last.Rel))
			dst = binary.LittleEndian.AppendUint16(dst, m.label(last.Target))
		case last.Op == rtl.OpJmp:
			dst = append(dst, 2)
			dst = binary.LittleEndian.AppendUint16(dst, m.label(last.Target))
		case last.Op == rtl.OpRet:
			dst = append(dst, 3)
		default:
			dst = append(dst, 0)
		}
	}
	return dst
}

// sparseFunc generates a function the corpus never produces: block IDs
// scattered far below NextBlockID, laid out in random order and
// referenced before they are met, and registers drawn from the hardware
// file, the fixed ones and pseudo registers up to maxReg, low ones
// first, so that a table sized by what the scan has seen so far is
// outgrown again and again.
func sparseFunc(rng *rand.Rand, blocks, maxReg int) *rtl.Func {
	f := rtl.NewFunc("sparse", 2, true)
	f.NextBlockID = 1 << 14
	f.NextPseudo = rtl.Reg(maxReg + 1)
	ids := rng.Perm(f.NextBlockID)[:blocks]
	ids[0] = 0
	f.Blocks = f.Blocks[:0]
	for at, id := range ids {
		b := &rtl.Block{ID: id}
		reg := func() rtl.Reg {
			switch rng.Intn(8) {
			case 0:
				return rtl.RegSP
			case 1:
				return rtl.Reg(rng.Intn(rtl.NumHardRegs))
			}
			// The registers in reach widen as the layout goes on.
			return rtl.FirstPseudo + rtl.Reg(rng.Intn(1+(maxReg-int(rtl.FirstPseudo))*(at+1)/blocks))
		}
		for n := rng.Intn(6); n > 0; n-- {
			switch rng.Intn(6) {
			case 0:
				b.Instrs = append(b.Instrs, rtl.NewLoad(reg(), reg(), int32(rng.Intn(64))))
			case 1:
				b.Instrs = append(b.Instrs, rtl.NewStore(reg(), reg(), int32(rng.Intn(64))))
			case 2:
				b.Instrs = append(b.Instrs, rtl.Instr{Op: rtl.OpMovHi, Dst: reg(), Sym: "tab"}, rtl.Instr{Op: rtl.OpAddLo, Dst: reg(), A: rtl.R(reg()), Sym: "tab"})
			case 3:
				b.Instrs = append(b.Instrs, rtl.Instr{Op: rtl.OpCall, Sym: "callee", NArgs: 2})
			case 4:
				b.Instrs = append(b.Instrs, rtl.NewMov(reg(), rtl.Imm(int32(rng.Intn(1000)))))
			default:
				b.Instrs = append(b.Instrs, rtl.NewALU(rtl.OpAdd, reg(), rtl.R(reg()), rtl.R(reg())))
			}
		}
		switch target := ids[rng.Intn(blocks)]; rng.Intn(4) {
		case 0:
			b.Instrs = append(b.Instrs, rtl.NewCmp(rtl.R(reg()), rtl.Imm(0)), rtl.NewBranch(rtl.RelLT, target))
		case 1:
			b.Instrs = append(b.Instrs, rtl.NewJmp(target))
		case 2:
			b.Instrs = append(b.Instrs, rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
		}
		f.Blocks = append(f.Blocks, b)
	}
	return f
}

// TestDenseTablesMatchMapReference holds the slice-indexed remapper to
// the map-based numbering it replaced on inputs that make its tables
// grow in mid-scan — pseudo registers well past 64 and block IDs far
// apart (NextBlockID ≫ len(Blocks)) — interleaved with small functions,
// so a pooled scan is handed a table sized for another function and
// must have forgotten that function's numbers.
func TestDenseTablesMatchMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	buf := fingerprint.GetBuffer()
	defer fingerprint.PutBuffer(buf)
	for trial := 0; trial < 200; trial++ {
		blocks, maxReg := 2+rng.Intn(40), 64+rng.Intn(700)
		if trial%3 == 1 {
			blocks, maxReg = 1+rng.Intn(3), int(rtl.FirstPseudo)+rng.Intn(8)
		}
		f := sparseFunc(rng, blocks, maxReg)
		wantEnc, wantCF := newMapEncoder().encode(f), newMapEncoder().controlFlow(f)
		fingerprint.SummarizeInto(buf, f)
		if !bytes.Equal(buf.Enc, wantEnc) || !bytes.Equal(buf.CF, wantCF) {
			t.Fatalf("trial %d (%d blocks, registers to %d): SummarizeInto differs from the map reference\n%s", trial, blocks, maxReg, f)
		}
		if got := fingerprint.EncodeTo(nil, f); !bytes.Equal(got, wantEnc) {
			t.Fatalf("trial %d: EncodeTo differs from the map reference\n%s", trial, f)
		}
		if got := fingerprint.ControlFlowKey(f); string(got) != string(wantCF) {
			t.Fatalf("trial %d: ControlFlowKey differs from the map reference\n%s", trial, f)
		}
		// Canonicalize renumbers by the same tables: block i of the
		// layout becomes L<i>, a register its code less two.
		ref := newMapEncoder()
		ref.encode(f)
		want := func(x rtl.Reg) rtl.Reg {
			if x == rtl.RegSP || x == rtl.RegIC || x == rtl.RegNone {
				return x
			}
			return rtl.Reg(ref.regs[x] - 2)
		}
		canon := fingerprint.Canonicalize(f)
		for bi, b := range f.Blocks {
			cb := canon.Blocks[bi]
			if cb.ID != int(ref.labels[b.ID]) {
				t.Fatalf("trial %d: Canonicalize labels block %d L%d, the map reference L%d", trial, bi, cb.ID, ref.labels[b.ID])
			}
			for i, in := range b.Instrs {
				c := cb.Instrs[i]
				switch in.Op {
				case rtl.OpBranch, rtl.OpJmp:
					if c.Target != int(ref.labels[in.Target]) {
						t.Fatalf("trial %d: Canonicalize retargets %s to L%d, the map reference to L%d", trial, in.String(), c.Target, ref.labels[in.Target])
					}
				case rtl.OpCall:
				default:
					if c.Dst != want(in.Dst) || (in.A.Kind == rtl.OperReg && c.A.Reg != want(in.A.Reg)) || (in.B.Kind == rtl.OperReg && c.B.Reg != want(in.B.Reg)) {
						t.Fatalf("trial %d: Canonicalize renames %s to %s against the map reference", trial, in.String(), c.String())
					}
				}
			}
		}
	}
}
