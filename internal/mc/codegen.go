package mc

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/rtl"
)

// Compile parses and translates mini-C source into an RTL program.
// The generated code is deliberately unoptimized: every value passes
// through a fresh pseudo register, constants are materialized with
// explicit moves, and every variable access goes through its stack
// slot. The optimization phases are responsible for all improvement.
func Compile(src string) (*rtl.Program, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Generate(file)
}

// Generate translates a parsed file into an RTL program.
func Generate(file *File) (*rtl.Program, error) {
	g := &gen{
		prog:    &rtl.Program{},
		sigs:    make(map[string]*FuncDecl),
		globals: make(map[string]*GlobalDecl),
		mach:    machine.StrongARM(),
	}
	for _, gd := range file.Globals {
		if g.globals[gd.Name] != nil {
			return nil, fmt.Errorf("%s: global %q redeclared", gd.Tok.Pos(), gd.Name)
		}
		g.globals[gd.Name] = gd
		g.prog.Globals = append(g.prog.Globals, rtl.Global{
			Name: gd.Name, Words: gd.Words, Init: append([]int32(nil), gd.Init...),
		})
	}
	for _, fd := range file.Funcs {
		if g.sigs[fd.Name] != nil {
			return nil, fmt.Errorf("%s: function %q redeclared", fd.Tok.Pos(), fd.Name)
		}
		if g.globals[fd.Name] != nil {
			return nil, fmt.Errorf("%s: %q declared as both global and function", fd.Tok.Pos(), fd.Name)
		}
		g.sigs[fd.Name] = fd
	}
	for _, fd := range file.Funcs {
		f, err := g.genFunc(fd)
		if err != nil {
			return nil, err
		}
		// Like VPO's frontend, never hand unreachable code (e.g. the
		// fall-off return after a terminating loop) to the optimizer:
		// the paper observes that phase d is never active because no
		// phase leaves unreachable code behind.
		cfg := rtl.ComputeCFG(f)
		reach := cfg.Reachable()
		for i := len(f.Blocks) - 1; i >= 1; i-- {
			if !reach[i] {
				f.RemoveBlockAt(i)
			}
		}
		rtl.Cleanup(f)
		if err := rtl.Validate(f); err != nil {
			return nil, fmt.Errorf("internal error: generated invalid RTL: %w", err)
		}
		g.prog.Funcs = append(g.prog.Funcs, f)
	}
	return g.prog, nil
}

// symKind classifies a resolved name.
type symKind uint8

const (
	symScalar symKind = iota // word-sized local or parameter in a frame slot
	symArray                 // local array (frame memory)
	symGlobal                // global scalar or array
)

type symbol struct {
	kind   symKind
	name   string
	offset int32 // frame offset for locals
	ptr    bool  // pointer-typed scalar
	global *GlobalDecl
}

type loopCtx struct {
	breakTo    int // block ID
	continueTo int
}

type gen struct {
	prog    *rtl.Program
	sigs    map[string]*FuncDecl
	globals map[string]*GlobalDecl
	mach    *machine.Desc

	f      *rtl.Func
	cur    *rtl.Block
	scopes []map[string]*symbol
	loops  []loopCtx
	fd     *FuncDecl
}

func (g *gen) emit(in rtl.Instr) { g.cur.Instrs = append(g.cur.Instrs, in) }

// startBlock makes b the current insertion point. The block must
// already be in the function layout.
func (g *gen) startBlock(b *rtl.Block) { g.cur = b }

func (g *gen) pushScope() { g.scopes = append(g.scopes, make(map[string]*symbol)) }
func (g *gen) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *gen) define(sym *symbol, tok Token) error {
	top := g.scopes[len(g.scopes)-1]
	if top[sym.name] != nil {
		return fmt.Errorf("%s: %q redeclared in this scope", tok.Pos(), sym.name)
	}
	top[sym.name] = sym
	return nil
}

func (g *gen) lookup(name string) *symbol {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if s := g.scopes[i][name]; s != nil {
			return s
		}
	}
	if gd := g.globals[name]; gd != nil {
		return &symbol{kind: symGlobal, name: name, global: gd}
	}
	return nil
}

// collectAddrTaken finds every local name whose address is taken with
// '&' anywhere in the function, so its slot is not marked promotable.
func collectAddrTaken(fd *FuncDecl) map[string]bool {
	taken := make(map[string]bool)
	var walkExpr func(Expr)
	var walkStmt func(Stmt)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case *UnaryExpr:
			if x.Op == AMP {
				if id, ok := x.X.(*Ident); ok {
					taken[id.Name] = true
				}
			}
			walkExpr(x.X)
		case *BinaryExpr:
			walkExpr(x.X)
			walkExpr(x.Y)
		case *IndexExpr:
			walkExpr(x.Index)
		case *CallExpr:
			for _, a := range x.Args {
				walkExpr(a)
			}
		}
	}
	walkStmt = func(s Stmt) {
		switch x := s.(type) {
		case *BlockStmt:
			for _, s2 := range x.List {
				walkStmt(s2)
			}
		case *DeclStmt:
			if x.Init != nil {
				walkExpr(x.Init)
			}
		case *AssignStmt:
			walkExpr(x.LHS)
			walkExpr(x.RHS)
		case *IfStmt:
			walkExpr(x.Cond)
			walkStmt(x.Then)
			if x.Else != nil {
				walkStmt(x.Else)
			}
		case *WhileStmt:
			walkExpr(x.Cond)
			walkStmt(x.Body)
		case *ForStmt:
			if x.Init != nil {
				walkStmt(x.Init)
			}
			if x.Cond != nil {
				walkExpr(x.Cond)
			}
			if x.Post != nil {
				walkStmt(x.Post)
			}
			walkStmt(x.Body)
		case *ReturnStmt:
			if x.Value != nil {
				walkExpr(x.Value)
			}
		case *ExprStmt:
			walkExpr(x.X)
		}
	}
	walkStmt(fd.Body)
	return taken
}

func (g *gen) genFunc(fd *FuncDecl) (*rtl.Func, error) {
	if len(fd.Params) > 4 {
		return nil, fmt.Errorf("%s: %q has %d parameters; at most 4 are supported (r0-r3)",
			fd.Tok.Pos(), fd.Name, len(fd.Params))
	}
	g.f = rtl.NewFunc(fd.Name, len(fd.Params), fd.Returns)
	g.fd = fd
	g.cur = g.f.Entry()
	g.scopes = nil
	g.loops = nil
	g.pushScope()
	defer g.popScope()

	addrTaken := collectAddrTaken(fd)

	// Spill incoming arguments to their frame slots; the register
	// allocation phase will promote them back.
	for i, p := range fd.Params {
		off := g.f.AddSlot(p.Name, 4, !addrTaken[p.Name])
		if err := g.define(&symbol{kind: symScalar, name: p.Name, offset: off, ptr: p.Ptr}, fd.Tok); err != nil {
			return nil, err
		}
		g.emit(rtl.NewStore(rtl.Reg(i), rtl.RegSP, off))
	}

	if err := g.genBlockStmt(fd.Body, addrTaken); err != nil {
		return nil, err
	}

	// Fall-off-the-end return.
	if !g.cur.EndsInControl() {
		if fd.Returns {
			g.emit(rtl.NewMov(rtl.RegR0, rtl.Imm(0)))
			g.emit(rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
		} else {
			g.emit(rtl.Instr{Op: rtl.OpRet})
		}
	}
	return g.f, nil
}

func (g *gen) genBlockStmt(b *BlockStmt, addrTaken map[string]bool) error {
	g.pushScope()
	defer g.popScope()
	for _, s := range b.List {
		if err := g.genStmt(s, addrTaken); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) genStmt(s Stmt, addrTaken map[string]bool) error {
	switch st := s.(type) {
	case *BlockStmt:
		return g.genBlockStmt(st, addrTaken)

	case *DeclStmt:
		var sym *symbol
		if st.IsArray {
			off := g.f.AddSlot(st.Name, st.Words*4, false)
			sym = &symbol{kind: symArray, name: st.Name, offset: off}
		} else {
			off := g.f.AddSlot(st.Name, 4, !addrTaken[st.Name])
			sym = &symbol{kind: symScalar, name: st.Name, offset: off, ptr: st.Ptr}
		}
		if err := g.define(sym, st.Tok); err != nil {
			return err
		}
		if st.Init != nil {
			r, err := g.genExpr(st.Init)
			if err != nil {
				return err
			}
			g.emit(rtl.NewStore(r, rtl.RegSP, sym.offset))
		}
		return nil

	case *AssignStmt:
		return g.genAssign(st)

	case *IfStmt:
		thenB := g.f.NewDetachedBlock()
		doneB := g.f.NewDetachedBlock()
		var elseB *rtl.Block
		falseID := doneB.ID
		if st.Else != nil {
			elseB = g.f.NewDetachedBlock()
			falseID = elseB.ID
		}
		if err := g.genCond(st.Cond, thenB.ID, falseID, thenB.ID); err != nil {
			return err
		}
		g.f.AppendBlock(thenB)
		g.startBlock(thenB)
		if err := g.genStmt(st.Then, addrTaken); err != nil {
			return err
		}
		if st.Else != nil {
			if !g.cur.EndsInControl() {
				g.emit(rtl.NewJmp(doneB.ID))
			}
			g.f.AppendBlock(elseB)
			g.startBlock(elseB)
			if err := g.genStmt(st.Else, addrTaken); err != nil {
				return err
			}
		}
		g.f.AppendBlock(doneB)
		g.startBlock(doneB)
		return nil

	case *WhileStmt:
		if st.DoWhile {
			bodyB := g.f.AddBlock()
			g.startBlock(bodyB)
			condB := g.f.NewDetachedBlock()
			exitB := g.f.NewDetachedBlock()
			g.loops = append(g.loops, loopCtx{breakTo: exitB.ID, continueTo: condB.ID})
			err := g.genStmt(st.Body, addrTaken)
			g.loops = g.loops[:len(g.loops)-1]
			if err != nil {
				return err
			}
			g.f.AppendBlock(condB)
			g.startBlock(condB)
			if err := g.genCond(st.Cond, bodyB.ID, exitB.ID, exitB.ID); err != nil {
				return err
			}
			g.f.AppendBlock(exitB)
			g.startBlock(exitB)
			return nil
		}
		headB := g.f.AddBlock()
		bodyB := g.f.NewDetachedBlock()
		exitB := g.f.NewDetachedBlock()
		g.startBlock(headB)
		if err := g.genCond(st.Cond, bodyB.ID, exitB.ID, bodyB.ID); err != nil {
			return err
		}
		g.f.AppendBlock(bodyB)
		g.startBlock(bodyB)
		g.loops = append(g.loops, loopCtx{breakTo: exitB.ID, continueTo: headB.ID})
		err := g.genStmt(st.Body, addrTaken)
		g.loops = g.loops[:len(g.loops)-1]
		if err != nil {
			return err
		}
		if !g.cur.EndsInControl() {
			g.emit(rtl.NewJmp(headB.ID))
		}
		g.f.AppendBlock(exitB)
		g.startBlock(exitB)
		return nil

	case *ForStmt:
		if st.Init != nil {
			if err := g.genStmt(st.Init, addrTaken); err != nil {
				return err
			}
		}
		headB := g.f.AddBlock()
		bodyB := g.f.NewDetachedBlock()
		postB := g.f.NewDetachedBlock()
		exitB := g.f.NewDetachedBlock()
		g.startBlock(headB)
		if st.Cond != nil {
			if err := g.genCond(st.Cond, bodyB.ID, exitB.ID, bodyB.ID); err != nil {
				return err
			}
		}
		g.f.AppendBlock(bodyB)
		g.startBlock(bodyB)
		g.loops = append(g.loops, loopCtx{breakTo: exitB.ID, continueTo: postB.ID})
		err := g.genStmt(st.Body, addrTaken)
		g.loops = g.loops[:len(g.loops)-1]
		if err != nil {
			return err
		}
		g.f.AppendBlock(postB)
		g.startBlock(postB)
		if st.Post != nil {
			if err := g.genStmt(st.Post, addrTaken); err != nil {
				return err
			}
		}
		g.emit(rtl.NewJmp(headB.ID))
		g.f.AppendBlock(exitB)
		g.startBlock(exitB)
		return nil

	case *ReturnStmt:
		if st.Value != nil {
			if !g.fd.Returns {
				return fmt.Errorf("%s: void function %q returns a value", st.Tok.Pos(), g.fd.Name)
			}
			r, err := g.genExpr(st.Value)
			if err != nil {
				return err
			}
			g.emit(rtl.NewMov(rtl.RegR0, rtl.R(r)))
			g.emit(rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
		} else {
			if g.fd.Returns {
				return fmt.Errorf("%s: non-void function %q returns without a value", st.Tok.Pos(), g.fd.Name)
			}
			g.emit(rtl.Instr{Op: rtl.OpRet})
		}
		// Subsequent code in this statement list is unreachable; give
		// it a fresh block so the structure stays well-formed.
		g.startBlock(g.f.AddBlock())
		return nil

	case *BreakStmt:
		if len(g.loops) == 0 {
			return fmt.Errorf("%s: break outside a loop", st.Tok.Pos())
		}
		g.emit(rtl.NewJmp(g.loops[len(g.loops)-1].breakTo))
		g.startBlock(g.f.AddBlock())
		return nil

	case *ContinueStmt:
		if len(g.loops) == 0 {
			return fmt.Errorf("%s: continue outside a loop", st.Tok.Pos())
		}
		g.emit(rtl.NewJmp(g.loops[len(g.loops)-1].continueTo))
		g.startBlock(g.f.AddBlock())
		return nil

	case *ExprStmt:
		_, err := g.genExpr(st.X)
		return err
	}
	return fmt.Errorf("unhandled statement %T", s)
}

func (g *gen) genAssign(st *AssignStmt) error {
	switch lhs := st.LHS.(type) {
	case *Ident:
		sym := g.lookup(lhs.Name)
		if sym == nil {
			return fmt.Errorf("%s: undeclared variable %q", lhs.Tok.Pos(), lhs.Name)
		}
		switch sym.kind {
		case symScalar:
			r, err := g.genExpr(st.RHS)
			if err != nil {
				return err
			}
			g.emit(rtl.NewStore(r, rtl.RegSP, sym.offset))
			return nil
		case symGlobal:
			if sym.global.IsArray {
				return fmt.Errorf("%s: cannot assign to array %q", lhs.Tok.Pos(), lhs.Name)
			}
			r, err := g.genExpr(st.RHS)
			if err != nil {
				return err
			}
			addr := g.globalAddr(sym.global.Name)
			g.emit(rtl.NewStore(r, addr, 0))
			return nil
		default:
			return fmt.Errorf("%s: cannot assign to array %q", lhs.Tok.Pos(), lhs.Name)
		}

	case *IndexExpr:
		addr, err := g.genIndexAddr(lhs)
		if err != nil {
			return err
		}
		r, err := g.genExpr(st.RHS)
		if err != nil {
			return err
		}
		g.emit(rtl.NewStore(r, addr, 0))
		return nil

	case *UnaryExpr: // *p = rhs
		if lhs.Op != STAR {
			break
		}
		p, err := g.genExpr(lhs.X)
		if err != nil {
			return err
		}
		r, err := g.genExpr(st.RHS)
		if err != nil {
			return err
		}
		g.emit(rtl.NewStore(r, p, 0))
		return nil
	}
	return fmt.Errorf("%s: invalid assignment target", st.Tok.Pos())
}

// globalAddr emits the HI/LO pair forming the address of a global and
// returns the register holding it.
func (g *gen) globalAddr(name string) rtl.Reg {
	hi := g.f.NewReg()
	g.emit(rtl.Instr{Op: rtl.OpMovHi, Dst: hi, Sym: g.f.Intern(name)})
	lo := g.f.NewReg()
	g.emit(rtl.Instr{Op: rtl.OpAddLo, Dst: lo, A: rtl.R(hi), Sym: g.f.Intern(name)})
	return lo
}

// materialize emits code loading the constant v into a fresh register
// and returns it. Naive code generation never uses immediate operands
// directly, leaving that to the instruction selection phase. Constants
// too wide for the target's move-immediate encoding are built from
// their halves (hi16 << 16 | lo16), the way a RISC frontend expands
// wide literals.
func (g *gen) materialize(v int32) rtl.Reg {
	rd := g.f.NewReg()
	if g.mach.LegalImm(rtl.OpMov, v) {
		g.emit(rtl.NewMov(rd, rtl.Imm(v)))
		return rd
	}
	hi := g.f.NewReg()
	g.emit(rtl.NewMov(hi, rtl.Imm(int32(uint32(v)>>16))))
	sh := g.f.NewReg()
	g.emit(rtl.NewMov(sh, rtl.Imm(16)))
	shifted := g.f.NewReg()
	g.emit(rtl.NewALU(rtl.OpShl, shifted, rtl.R(hi), rtl.R(sh)))
	lo := g.f.NewReg()
	g.emit(rtl.NewMov(lo, rtl.Imm(int32(uint32(v)&0xFFFF))))
	g.emit(rtl.NewALU(rtl.OpOr, rd, rtl.R(shifted), rtl.R(lo)))
	return rd
}

// genIndexAddr computes the address of base[index] into a register.
func (g *gen) genIndexAddr(e *IndexExpr) (rtl.Reg, error) {
	sym := g.lookup(e.Base.Name)
	if sym == nil {
		return 0, fmt.Errorf("%s: undeclared variable %q", e.Tok.Pos(), e.Base.Name)
	}
	var base rtl.Reg
	switch {
	case sym.kind == symGlobal && sym.global.IsArray:
		base = g.globalAddr(sym.global.Name)
	case sym.kind == symArray:
		off := g.materialize(sym.offset)
		base = g.f.NewReg()
		g.emit(rtl.NewALU(rtl.OpAdd, base, rtl.R(rtl.RegSP), rtl.R(off)))
	case sym.kind == symScalar && sym.ptr:
		base = g.f.NewReg()
		g.emit(rtl.NewLoad(base, rtl.RegSP, sym.offset))
	case sym.kind == symGlobal && !sym.global.IsArray:
		return 0, fmt.Errorf("%s: %q is not an array or pointer", e.Tok.Pos(), e.Base.Name)
	default:
		return 0, fmt.Errorf("%s: %q is not an array or pointer", e.Tok.Pos(), e.Base.Name)
	}
	idx, err := g.genExpr(e.Index)
	if err != nil {
		return 0, err
	}
	two := g.materialize(2)
	scaled := g.f.NewReg()
	g.emit(rtl.NewALU(rtl.OpShl, scaled, rtl.R(idx), rtl.R(two)))
	addr := g.f.NewReg()
	g.emit(rtl.NewALU(rtl.OpAdd, addr, rtl.R(base), rtl.R(scaled)))
	return addr, nil
}

var binOpMap = map[Kind]rtl.Op{
	PLUS: rtl.OpAdd, MINUS: rtl.OpSub, STAR: rtl.OpMul, SLASH: rtl.OpDiv,
	PERCENT: rtl.OpRem, AMP: rtl.OpAnd, PIPE: rtl.OpOr, CARET: rtl.OpXor,
	SHL: rtl.OpShl, SHR: rtl.OpSar,
}

var relMap = map[Kind]rtl.Rel{
	LT: rtl.RelLT, LE: rtl.RelLE, GT: rtl.RelGT, GE: rtl.RelGE,
	EQ: rtl.RelEQ, NE: rtl.RelNE,
}

func isCondOp(k Kind) bool {
	switch k {
	case LT, LE, GT, GE, EQ, NE, ANDAND, OROR:
		return true
	}
	return false
}

// genExpr evaluates e into a fresh register and returns it.
func (g *gen) genExpr(e Expr) (rtl.Reg, error) {
	switch x := e.(type) {
	case *NumberLit:
		return g.materialize(x.Val), nil

	case *Ident:
		sym := g.lookup(x.Name)
		if sym == nil {
			return 0, fmt.Errorf("%s: undeclared variable %q", x.Tok.Pos(), x.Name)
		}
		switch sym.kind {
		case symScalar:
			rd := g.f.NewReg()
			g.emit(rtl.NewLoad(rd, rtl.RegSP, sym.offset))
			return rd, nil
		case symArray: // array decays to its address
			off := g.materialize(sym.offset)
			rd := g.f.NewReg()
			g.emit(rtl.NewALU(rtl.OpAdd, rd, rtl.R(rtl.RegSP), rtl.R(off)))
			return rd, nil
		case symGlobal:
			addr := g.globalAddr(sym.global.Name)
			if sym.global.IsArray {
				return addr, nil
			}
			rd := g.f.NewReg()
			g.emit(rtl.NewLoad(rd, addr, 0))
			return rd, nil
		}

	case *IndexExpr:
		addr, err := g.genIndexAddr(x)
		if err != nil {
			return 0, err
		}
		rd := g.f.NewReg()
		g.emit(rtl.NewLoad(rd, addr, 0))
		return rd, nil

	case *UnaryExpr:
		switch x.Op {
		case MINUS:
			r, err := g.genExpr(x.X)
			if err != nil {
				return 0, err
			}
			rd := g.f.NewReg()
			g.emit(rtl.Instr{Op: rtl.OpNeg, Dst: rd, A: rtl.R(r)})
			return rd, nil
		case TILDE:
			r, err := g.genExpr(x.X)
			if err != nil {
				return 0, err
			}
			rd := g.f.NewReg()
			g.emit(rtl.Instr{Op: rtl.OpNot, Dst: rd, A: rtl.R(r)})
			return rd, nil
		case STAR:
			p, err := g.genExpr(x.X)
			if err != nil {
				return 0, err
			}
			rd := g.f.NewReg()
			g.emit(rtl.NewLoad(rd, p, 0))
			return rd, nil
		case AMP:
			if ix, ok := x.X.(*IndexExpr); ok {
				return g.genIndexAddr(ix)
			}
			id := x.X.(*Ident)
			sym := g.lookup(id.Name)
			if sym == nil {
				return 0, fmt.Errorf("%s: undeclared variable %q", id.Tok.Pos(), id.Name)
			}
			switch sym.kind {
			case symScalar, symArray:
				off := g.materialize(sym.offset)
				rd := g.f.NewReg()
				g.emit(rtl.NewALU(rtl.OpAdd, rd, rtl.R(rtl.RegSP), rtl.R(off)))
				return rd, nil
			case symGlobal:
				return g.globalAddr(sym.global.Name), nil
			}
		case BANG:
			return g.genCondValue(e)
		}

	case *BinaryExpr:
		if isCondOp(x.Op) {
			return g.genCondValue(e)
		}
		rx, err := g.genExpr(x.X)
		if err != nil {
			return 0, err
		}
		ry, err := g.genExpr(x.Y)
		if err != nil {
			return 0, err
		}
		rd := g.f.NewReg()
		g.emit(rtl.NewALU(binOpMap[x.Op], rd, rtl.R(rx), rtl.R(ry)))
		return rd, nil

	case *CallExpr:
		return g.genCall(x)
	}
	return 0, fmt.Errorf("unhandled expression %T", e)
}

func (g *gen) genCall(x *CallExpr) (rtl.Reg, error) {
	sig := g.sigs[x.Name]
	if sig != nil && len(sig.Params) != len(x.Args) {
		return 0, fmt.Errorf("%s: %q expects %d arguments, got %d",
			x.Tok.Pos(), x.Name, len(sig.Params), len(x.Args))
	}
	if len(x.Args) > 4 {
		return 0, fmt.Errorf("%s: at most 4 call arguments are supported", x.Tok.Pos())
	}
	// Evaluate arguments into temporaries first, then marshal into
	// r0..r3 so nested calls cannot clobber earlier argument registers.
	temps := make([]rtl.Reg, len(x.Args))
	for i, a := range x.Args {
		r, err := g.genExpr(a)
		if err != nil {
			return 0, err
		}
		temps[i] = r
	}
	for i, t := range temps {
		g.emit(rtl.NewMov(rtl.Reg(i), rtl.R(t)))
	}
	g.emit(rtl.Instr{Op: rtl.OpCall, Sym: g.f.Intern(x.Name), NArgs: uint8(len(x.Args))})
	rd := g.f.NewReg()
	g.emit(rtl.NewMov(rd, rtl.R(rtl.RegR0)))
	return rd, nil
}

// genCondValue materializes a boolean expression as 0 or 1.
func (g *gen) genCondValue(e Expr) (rtl.Reg, error) {
	rd := g.f.NewReg()
	trueB := g.f.NewDetachedBlock()
	falseB := g.f.NewDetachedBlock()
	doneB := g.f.NewDetachedBlock()
	if err := g.genCond(e, trueB.ID, falseB.ID, trueB.ID); err != nil {
		return 0, err
	}
	g.f.AppendBlock(trueB)
	g.startBlock(trueB)
	g.emit(rtl.NewMov(rd, rtl.Imm(1)))
	g.emit(rtl.NewJmp(doneB.ID))
	g.f.AppendBlock(falseB)
	g.startBlock(falseB)
	g.emit(rtl.NewMov(rd, rtl.Imm(0)))
	g.f.AppendBlock(doneB)
	g.startBlock(doneB)
	return rd, nil
}

// genCond emits control flow evaluating e as a condition, branching to
// block trueID when it holds and falseID otherwise. next names the
// block the caller will place immediately after the emitted code, so a
// jump to it can be omitted.
func (g *gen) genCond(e Expr, trueID, falseID, next int) error {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case ANDAND:
			mid := g.f.NewDetachedBlock()
			if err := g.genCond(x.X, mid.ID, falseID, mid.ID); err != nil {
				return err
			}
			g.f.AppendBlock(mid)
			g.startBlock(mid)
			return g.genCond(x.Y, trueID, falseID, next)
		case OROR:
			mid := g.f.NewDetachedBlock()
			if err := g.genCond(x.X, trueID, mid.ID, mid.ID); err != nil {
				return err
			}
			g.f.AppendBlock(mid)
			g.startBlock(mid)
			return g.genCond(x.Y, trueID, falseID, next)
		case LT, LE, GT, GE, EQ, NE:
			rx, err := g.genExpr(x.X)
			if err != nil {
				return err
			}
			ry, err := g.genExpr(x.Y)
			if err != nil {
				return err
			}
			g.emit(rtl.NewCmp(rtl.R(rx), rtl.R(ry)))
			g.emitCondBranch(relMap[x.Op], trueID, falseID, next)
			return nil
		}
	case *UnaryExpr:
		if x.Op == BANG {
			return g.genCond(x.X, falseID, trueID, next)
		}
	}
	// General case: compare the value against zero.
	r, err := g.genExpr(e)
	if err != nil {
		return err
	}
	z := g.materialize(0)
	g.emit(rtl.NewCmp(rtl.R(r), rtl.R(z)))
	g.emitCondBranch(rtl.RelNE, trueID, falseID, next)
	return nil
}

// emitCondBranch finishes a comparison with the branch shape that puts
// the given next block on the fall-through path where possible.
func (g *gen) emitCondBranch(rel rtl.Rel, trueID, falseID, next int) {
	switch next {
	case falseID:
		g.emit(rtl.NewBranch(rel, trueID))
	case trueID:
		g.emit(rtl.NewBranch(rel.Negate(), falseID))
	default:
		// A branch may only end a block, so the jump to the false
		// target gets a block of its own.
		g.emit(rtl.NewBranch(rel, trueID))
		jb := g.f.AddBlock()
		g.startBlock(jb)
		g.emit(rtl.NewJmp(falseID))
	}
}
