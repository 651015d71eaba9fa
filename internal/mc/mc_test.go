package mc_test

import (
	"strings"
	"testing"

	"repro/internal/mc"
	"repro/internal/rtl"
)

func TestLexerTokens(t *testing.T) {
	toks, err := mc.Tokenize(`int f(int x) { return x + 0x1F - 'a'; } // c
/* block */ int g;`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []mc.Kind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []mc.Kind{
		mc.KwInt, mc.IDENT, mc.LPAREN, mc.KwInt, mc.IDENT, mc.RPAREN,
		mc.LBRACE, mc.KwReturn, mc.IDENT, mc.PLUS, mc.NUMBER, mc.MINUS,
		mc.NUMBER, mc.SEMI, mc.RBRACE, mc.KwInt, mc.IDENT, mc.SEMI, mc.EOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// Literal values.
	if toks[10].Val != 0x1F {
		t.Fatalf("hex literal = %d", toks[10].Val)
	}
	if toks[12].Val != 'a' {
		t.Fatalf("char literal = %d", toks[12].Val)
	}
}

func TestLexerOperators(t *testing.T) {
	src := "<< >> <<= >>= <= >= == != && || ++ -- += -= *= /= %= &= |= ^= ~ !"
	toks, err := mc.Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []mc.Kind{
		mc.SHL, mc.SHR, mc.SHLEQ, mc.SHREQ, mc.LE, mc.GE, mc.EQ, mc.NE,
		mc.ANDAND, mc.OROR, mc.INC, mc.DEC, mc.PLUSEQ, mc.MINUSEQ,
		mc.STAREQ, mc.SLASHEQ, mc.PCTEQ, mc.AMPEQ, mc.PIPEEQ, mc.CARETEQ,
		mc.TILDE, mc.BANG, mc.EOF,
	}
	for i := range want {
		if toks[i].Kind != want[i] {
			t.Fatalf("token %d = %v, want %v", i, toks[i].Kind, want[i])
		}
	}
}

func TestParserPrecedence(t *testing.T) {
	// 2 + 3 * 4 must parse as 2 + (3 * 4).
	file, err := mc.Parse(`int f(void) { return 2 + 3 * 4; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := file.Funcs[0].Body.List[0].(*mc.ReturnStmt)
	add, ok := ret.Value.(*mc.BinaryExpr)
	if !ok || add.Op != mc.PLUS {
		t.Fatalf("top operator not +: %T", ret.Value)
	}
	mul, ok := add.Y.(*mc.BinaryExpr)
	if !ok || mul.Op != mc.STAR {
		t.Fatalf("right operand not *: %T", add.Y)
	}
}

func TestParserErrors(t *testing.T) {
	cases := map[string]string{
		"missing semi":       `int f(void) { return 1 }`,
		"unclosed block":     `int f(void) { return 1;`,
		"bad toplevel":       `float f(void) {}`,
		"assign to rvalue":   `int f(int x) { x + 1 = 2; return x; }`,
		"void variable":      `void x;`,
		"array of pointers":  `int f(void) { int *p[3]; return 0; }`,
		"too many params":    `int f(int a, int b, int c, int d, int e) { return 0; }`,
		"undeclared var":     `int f(void) { return y; }`,
		"redeclared var":     `int f(void) { int x; int x; return 0; }`,
		"void returns value": `void f(void) { return 3; }`,
		"break outside loop": `int f(void) { break; return 0; }`,
		"negative array":     `int f(void) { int a[0]; return 0; }`,
		"bad arg count":      `int g(int a) { return a; } int f(void) { return g(1, 2); }`,
	}
	for name, src := range cases {
		if _, err := mc.Compile(src); err == nil {
			t.Errorf("%s: no error for %q", name, src)
		}
	}
}

func TestCodegenNaiveShape(t *testing.T) {
	prog, err := mc.Compile(`
int g;
int f(int x) {
    int y = x + 1;
    g = y;
    return y * 2;
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	s := f.String()
	// Naive code keeps locals in frame slots and uses HI/LO for
	// globals.
	for _, frag := range []string{"M[r[sp]]=r[0];", "HI[g]", "LO[g]"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("missing %q in naive code:\n%s", frag, s)
		}
	}
	// All computation flows through pseudo registers.
	hasPseudo := false
	f.UsedRegs().ForEach(func(r rtl.Reg) {
		if r.IsPseudo() {
			hasPseudo = true
		}
	})
	if !hasPseudo {
		t.Fatal("no pseudo registers in unoptimized code")
	}
	if f.RegAssigned {
		t.Fatal("fresh code must not be register-assigned")
	}
	if err := rtl.Validate(f); err != nil {
		t.Fatal(err)
	}
}

func TestCodegenNoUnreachableCode(t *testing.T) {
	prog, err := mc.Compile(`
int f(int x) {
    while (1) {
        x++;
        if (x > 10) return x;
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	g := rtl.ComputeCFG(f)
	for i, ok := range g.Reachable() {
		if !ok {
			t.Fatalf("block %d unreachable in fresh code:\n%s", i, f)
		}
	}
}

// TestCompileRefusesLongSymbols: a call or a global address names its
// symbol in the instruction, and a name longer than rtl.MaxSymLen fails
// rtl.Validate, so no instance that reaches the enumeration carries one.
func TestCompileRefusesLongSymbols(t *testing.T) {
	for _, n := range []int{rtl.MaxSymLen, rtl.MaxSymLen + 1} {
		name := "g" + strings.Repeat("x", n-1)
		for _, src := range []string{
			"int " + name + "(int x) { return x; }\nint f(int y) { return " + name + "(y); }\n",
			"int " + name + "[4];\nint f(int y) { return " + name + "[y]; }\n",
		} {
			_, err := mc.Compile(src)
			if n <= rtl.MaxSymLen && err != nil {
				t.Fatalf("a %d-byte name: %v", n, err)
			}
			if n > rtl.MaxSymLen && (err == nil || !strings.Contains(err.Error(), "symbol of")) {
				t.Fatalf("a %d-byte name compiled (error %v)", n, err)
			}
		}
	}
}

func TestCodegenScalarSlotMarking(t *testing.T) {
	prog, err := mc.Compile(`
int f(int x) {
    int kept;
    int exposed;
    int arr[4];
    int *p;
    kept = x;
    p = &exposed;
    *p = 3;
    arr[0] = kept;
    return arr[0] + exposed;
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	byName := map[string]rtl.Slot{}
	for _, s := range f.Slots {
		byName[s.Name] = s
	}
	if !byName["kept"].Scalar {
		t.Error("kept should be promotable")
	}
	if byName["exposed"].Scalar {
		t.Error("exposed has its address taken; must not be promotable")
	}
	if byName["arr"].Scalar {
		t.Error("arrays are never promotable")
	}
	if !byName["p"].Scalar {
		t.Error("the pointer variable itself is a promotable scalar")
	}
	if !byName["x"].Scalar {
		t.Error("parameter x should be promotable")
	}
}

func TestWideConstantExpansion(t *testing.T) {
	prog, err := mc.Compile(`int f(void) { return 1103515245; }`)
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Func("f").String()
	if strings.Contains(s, "1103515245") {
		t.Fatalf("wide constant survived as a single immediate:\n%s", s)
	}
	// 1103515245 = 16838<<16 | 20077
	if !strings.Contains(s, "16838") || !strings.Contains(s, "20077") {
		t.Fatalf("expected hi/lo halves in:\n%s", s)
	}
}

func TestGlobalInitializers(t *testing.T) {
	prog, err := mc.Compile(`
int a[4] = {1, 2, 3};
int b = -7;
int c;
int f(void) { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	ga := prog.Global("a")
	if ga == nil || ga.Words != 4 || len(ga.Init) != 3 || ga.Init[2] != 3 {
		t.Fatalf("global a = %+v", ga)
	}
	if gb := prog.Global("b"); gb == nil || gb.Init[0] != -7 {
		t.Fatalf("global b = %+v", gb)
	}
	if gc := prog.Global("c"); gc == nil || len(gc.Init) != 0 {
		t.Fatalf("global c = %+v", gc)
	}
}

func TestArrayParamSyntax(t *testing.T) {
	// "int a[]" parameters are pointer syntax.
	prog, err := mc.Compile(`
int sum3(int a[]) { return a[0] + a[1] + a[2]; }
int use(void) {
    int buf[3];
    buf[0] = 1; buf[1] = 2; buf[2] = 3;
    return sum3(buf);
}`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Func("sum3").NArgs != 1 {
		t.Fatal("array param lost")
	}
}

func TestCharLiteralsAndEscapes(t *testing.T) {
	prog, err := mc.Compile(`int f(void) { return 'a' + '\n' + '\t' + '\\' + '\0'; }`)
	if err != nil {
		t.Fatal(err)
	}
	_ = prog
}

func TestUseFunctionResultSemantics(t *testing.T) {
	// interp-level check moved to interp tests; here verify that use()
	// from TestArrayParamSyntax compiles into valid RTL with a call.
	prog, err := mc.Compile(`
int sum3(int a[]) { return a[0] + a[1] + a[2]; }
int use(void) {
    int buf[3];
    buf[0] = 1; buf[1] = 2; buf[2] = 3;
    return sum3(buf);
}`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range prog.Func("use").Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == rtl.OpCall && prog.Func("use").SymName(b.Instrs[i].Sym) == "sum3" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no call emitted")
	}
}
