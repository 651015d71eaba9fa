package rtl_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mibench"
	"repro/internal/rtl"
)

// TestInstrLayout: an instruction holds no pointer, so an instruction
// array is copied without write barriers and never scanned by the
// collector, and it fits in 32 bytes.
func TestInstrLayout(t *testing.T) {
	if n := unsafe.Sizeof(rtl.Instr{}); n > 32 {
		t.Errorf("rtl.Instr is %d bytes, want at most 32", n)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint, reflect.Uintptr:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, ty.Kind())
		}
	}
	walk("Instr", reflect.TypeOf(rtl.Instr{}))
}

// The shapes of rtl.Func before instructions indexed a symbol table:
// the JSON a function must keep writing is what encoding/json wrote
// for these.
type oldInstr struct {
	Op     rtl.Op
	Dst    rtl.Reg
	A, B   rtl.Operand
	Disp   int32
	Sym    string
	Rel    rtl.Rel
	Target int
	NArgs  uint8
}

type oldBlock struct {
	ID     int
	Instrs []oldInstr
}

type oldFunc struct {
	Name           string
	NArgs          int
	Returns        bool
	Blocks         []*oldBlock
	Slots          []rtl.Slot
	FrameSize      int32
	NextPseudo     rtl.Reg
	NextBlockID    int
	RegAssigned    bool
	EntryExitFixed bool
}

func oldOf(f *rtl.Func) *oldFunc {
	o := &oldFunc{Name: f.Name, NArgs: f.NArgs, Returns: f.Returns, Slots: f.Slots, FrameSize: f.FrameSize,
		NextPseudo: f.NextPseudo, NextBlockID: f.NextBlockID, RegAssigned: f.RegAssigned, EntryExitFixed: f.EntryExitFixed}
	if f.Blocks != nil {
		o.Blocks = []*oldBlock{}
	}
	for _, b := range f.Blocks {
		ob := &oldBlock{ID: b.ID}
		if b.Instrs != nil {
			ob.Instrs = []oldInstr{}
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			ob.Instrs = append(ob.Instrs, oldInstr{in.Op, in.Dst, in.A, in.B, in.Disp, f.SymName(in.Sym), in.Rel, int(in.Target), in.NArgs})
		}
		o.Blocks = append(o.Blocks, ob)
	}
	return o
}

// goldenRoot is a root with calls, HI/LO pairs naming globals, a
// 255-byte symbol, names encoding/json escapes, a block with no
// instruction slice and one with an empty one.
func goldenRoot(t *testing.T) *rtl.Func {
	t.Helper()
	f, err := rtl.ParseFunc(`g<&>(2):
L0:
	r[32]=HI[tab];
	r[33]=r[32]+LO[tab];
	r[0]=M[r[33]+8];
	CALL helper(1);
	IC=r[0]?0;
	PC=IC<0,L2;
L1:
	CALL helper(1);
	r[34]=HI[other];
	PC=L3;
L2:
L3:
	RET r[0];
`)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("s", rtl.MaxSymLen)
	b := f.Blocks[1]
	b.Insert(0, rtl.Instr{Op: rtl.OpMovHi, Dst: 35, Sym: f.Intern(long)})
	b.Insert(1, rtl.Instr{Op: rtl.OpAddLo, Dst: 36, A: rtl.R(35), Sym: f.Intern(long)})
	b.Insert(2, rtl.Instr{Op: rtl.OpCall, Sym: f.Intern("é \"q\"<tag>&"), NArgs: 2})
	f.Blocks[2].Instrs = []rtl.Instr{}
	f.Blocks = append(f.Blocks[:3], &rtl.Block{ID: 4}, f.Blocks[3])
	f.NextBlockID = 5
	f.AddSlot("x<y", 4, true)
	return f
}

// TestFuncJSONIsTheOldEncoding: a function marshals to exactly the bytes
// encoding/json wrote for its old shape, by MarshalJSON and by
// AppendJSON, and those bytes unmarshal back to the same function.
func TestFuncJSONIsTheOldEncoding(t *testing.T) {
	funcs := []*rtl.Func{goldenRoot(t), rtl.NewFunc("empty", 0, false), {Name: "no blocks"}}
	for _, p := range mibench.All() {
		prog, err := p.Compile()
		if err != nil {
			t.Fatal(err)
		}
		funcs = append(funcs, prog.Funcs...)
	}
	for _, f := range funcs {
		want, err := json.Marshal(oldOf(f))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: json.Marshal\n got %s\nwant %s", f.Name, got, want)
		}
		if app := f.AppendJSON([]byte("x")); !bytes.Equal(app[1:], want) || app[0] != 'x' {
			t.Fatalf("%s: AppendJSON\n got %s\nwant x%s", f.Name, app, want)
		}
		var back rtl.Func
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if back.String() != f.String() {
			t.Fatalf("%s: round trip\n got %s\nwant %s", f.Name, back.String(), f.String())
		}
		if again, _ := json.Marshal(&back); !bytes.Equal(again, want) {
			t.Fatalf("%s: re-marshal\n got %s\nwant %s", f.Name, again, want)
		}
	}
	// The golden root's instructions name their symbols through a table
	// of their own, which the JSON does not carry.
	if want := `"Sym":"` + strings.Repeat("s", rtl.MaxSymLen) + `"`; !strings.Contains(string(goldenRoot(t).AppendJSON(nil)), want) {
		t.Fatal("the 255-byte symbol is not spelled out")
	}
}

// TestSymbolTable: a symbol index names its function's table; clones
// share the table, and a clone interning a new name does not write into
// the table its origin and siblings read.
func TestSymbolTable(t *testing.T) {
	f := rtl.NewFunc("f", 0, false)
	if s := f.Intern(""); s != 0 || f.SymName(0) != "" {
		t.Fatalf("the empty name is %d", s)
	}
	a, b := f.Intern("a"), f.Intern("b")
	f.Intern("c") // three names: the table's array has room for a fourth
	if a != 1 || b != 2 || f.Intern("a") != a || f.SymName(b) != "b" {
		t.Fatalf("a=%d b=%d", a, b)
	}
	c1, c2 := f.Clone(), f.Clone()
	if c1.SymName(b) != "b" {
		t.Fatal("a clone does not read its origin's table")
	}
	x, y := c1.Intern("x"), c2.Intern("y")
	z := f.Intern("z")
	if x != 4 || y != 4 || z != 4 || c1.SymName(x) != "x" || c2.SymName(y) != "y" || f.SymName(z) != "z" {
		t.Fatalf("interning after cloning: %q %q %q", c1.SymName(x), c2.SymName(y), f.SymName(z))
	}
}
