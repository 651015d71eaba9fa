// Package randprog generates random, deterministic, always-terminating
// mini-C programs for differential testing: the unoptimized
// interpretation of a generated program is the oracle against which
// every optimized instance is compared, so no second semantics
// implementation is needed.
//
// Generated programs use bounded counted loops, masked array indexes
// and non-zero constant divisors, so they cannot diverge, fault or
// divide by zero regardless of the arithmetic the generator picks.
//
// ShuffleBlocks and PermuteRegs (rewrite.go) rewrite a compiled
// function into another spelling of the same computation, for
// property tests of keys that must not tell the two apart.
package randprog

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generator.
type Config struct {
	// MaxStmts bounds the statements per block (default 6).
	MaxStmts int
	// MaxDepth bounds statement nesting (default 3).
	MaxDepth int
	// MaxExprDepth bounds expression trees (default 3).
	MaxExprDepth int
	// Params is the number of int parameters (default 2, max 4).
	Params int
}

func (c *Config) fill() {
	if c.MaxStmts == 0 {
		c.MaxStmts = 6
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 3
	}
	if c.MaxExprDepth == 0 {
		c.MaxExprDepth = 3
	}
	if c.Params == 0 {
		c.Params = 2
	}
	if c.Params > 4 {
		c.Params = 4
	}
}

// Program is a generated test program.
type Program struct {
	// Source is the mini-C text; the function to call is Entry with
	// Params int arguments. The function returns an int accumulating
	// the program's state, and traces intermediate values, so any
	// miscompilation surfaces in the observable behaviour.
	Source string
	Entry  string
	Params int
}

type gen struct {
	rng    *rand.Rand
	cfg    Config
	sb     strings.Builder
	vars   []string // assignable variables
	ro     []string // read-only (loop indexes): writing one could unbound the loop
	indent int
	nextID int
}

// New generates a program from the given seed.
func New(seed int64, cfg Config) Program {
	cfg.fill()
	g := &gen{rng: rand.New(rand.NewSource(seed)), cfg: cfg}

	g.line("int garr[16];")
	g.line("int gscalar;")
	g.line("")

	// A helper callee so calls and caller-save handling get coverage.
	g.line("int helper(int v) {")
	g.line("    gscalar += v & 15;")
	g.line("    return v * 3 - gscalar;")
	g.line("}")
	g.line("")

	params := make([]string, cfg.Params)
	for i := range params {
		params[i] = fmt.Sprintf("int p%d", i)
	}
	g.line("int fuzz(" + strings.Join(params, ", ") + ") {")
	g.indent++
	for i := 0; i < cfg.Params; i++ {
		g.vars = append(g.vars, fmt.Sprintf("p%d", i))
	}
	// Locals.
	nLocals := 2 + g.rng.Intn(3)
	for i := 0; i < nLocals; i++ {
		v := fmt.Sprintf("v%d", i)
		g.line(fmt.Sprintf("int %s = %d;", v, g.rng.Intn(41)-20))
		g.vars = append(g.vars, v)
	}
	g.block(cfg.MaxDepth)
	// Accumulate everything observable.
	acc := "gscalar"
	for _, v := range g.vars {
		acc += " + " + v
	}
	g.line("__trace(" + acc + ");")
	g.line("return " + acc + " + garr[3] + garr[7];")
	g.indent--
	g.line("}")

	return Program{Source: g.sb.String(), Entry: "fuzz", Params: cfg.Params}
}

func (g *gen) line(s string) {
	for i := 0; i < g.indent; i++ {
		g.sb.WriteString("    ")
	}
	g.sb.WriteString(s)
	g.sb.WriteByte('\n')
}

// lv picks an assignable variable; rv picks any readable one.
func (g *gen) lv() string { return g.vars[g.rng.Intn(len(g.vars))] }

func (g *gen) rv() string {
	n := len(g.vars) + len(g.ro)
	i := g.rng.Intn(n)
	if i < len(g.vars) {
		return g.vars[i]
	}
	return g.ro[i-len(g.vars)]
}

// expr builds a random expression of bounded depth. All divisions use
// non-zero constant divisors; all shifts use constant amounts.
func (g *gen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(201)-100)
		case 1:
			return fmt.Sprintf("garr[%s & 15]", g.rv())
		case 2:
			return "gscalar"
		default:
			return g.rv()
		}
	}
	a := g.expr(depth - 1)
	b := g.expr(depth - 1)
	switch g.rng.Intn(10) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s / %d)", a, 1+g.rng.Intn(9))
	case 4:
		return fmt.Sprintf("(%s %% %d)", a, 1+g.rng.Intn(9))
	case 5:
		return fmt.Sprintf("(%s & %s)", a, b)
	case 6:
		return fmt.Sprintf("(%s | %s)", a, b)
	case 7:
		return fmt.Sprintf("(%s ^ %s)", a, b)
	case 8:
		return fmt.Sprintf("(%s << %d)", a, g.rng.Intn(8))
	default:
		return fmt.Sprintf("(%s >> %d)", a, g.rng.Intn(8))
	}
}

func (g *gen) cond() string {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	c := fmt.Sprintf("%s %s %s",
		g.expr(1), ops[g.rng.Intn(len(ops))], g.expr(1))
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%s && %s %s %s", c, g.rv(), ops[g.rng.Intn(len(ops))], g.expr(1))
	case 1:
		return fmt.Sprintf("%s || %s %s %s", c, g.rv(), ops[g.rng.Intn(len(ops))], g.expr(1))
	}
	return c
}

func (g *gen) block(depth int) {
	n := 1 + g.rng.Intn(g.cfg.MaxStmts)
	for i := 0; i < n; i++ {
		g.stmt(depth)
	}
}

func (g *gen) stmt(depth int) {
	choice := g.rng.Intn(10)
	if depth <= 0 && choice >= 5 {
		choice = g.rng.Intn(5)
	}
	switch choice {
	case 0, 1:
		g.line(fmt.Sprintf("%s = %s;", g.lv(), g.expr(g.cfg.MaxExprDepth)))
	case 2:
		g.line(fmt.Sprintf("garr[%s & 15] = %s;", g.rv(), g.expr(2)))
	case 3:
		g.line(fmt.Sprintf("%s += helper(%s);", g.lv(), g.expr(1)))
	case 4:
		g.line(fmt.Sprintf("__trace(%s);", g.rv()))
	case 5, 6:
		g.line(fmt.Sprintf("if (%s) {", g.cond()))
		g.indent++
		g.block(depth - 1)
		g.indent--
		if g.rng.Intn(2) == 0 {
			g.line("} else {")
			g.indent++
			g.block(depth - 1)
			g.indent--
		}
		g.line("}")
	case 7, 8:
		// Bounded counted loop: always terminates.
		idx := fmt.Sprintf("i%d", g.nextID)
		g.nextID++
		iters := 1 + g.rng.Intn(8)
		g.line(fmt.Sprintf("{ int %s;", idx))
		g.indent++
		g.line(fmt.Sprintf("for (%s = 0; %s < %d; %s++) {", idx, idx, iters, idx))
		g.indent++
		g.ro = append(g.ro, idx)
		g.block(depth - 1)
		g.ro = g.ro[:len(g.ro)-1]
		g.indent--
		g.line("}")
		g.indent--
		g.line("}")
	default:
		g.line(fmt.Sprintf("%s -= %s;", g.lv(), g.expr(2)))
	}
}
