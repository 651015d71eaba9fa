// Package interp executes RTL programs. It serves two roles in the
// reproduction:
//
//   - it measures dynamic instruction counts, the performance metric of
//     Table 7 (the paper likewise uses dynamic counts as "a crude
//     approximation of execution efficiency", Section 7), and
//   - it is the oracle for differential testing: every function
//     instance produced by any optimization phase ordering must behave
//     exactly like the unoptimized instance.
//
// The interpreter runs RTL at any optimization stage: pseudo registers
// (before the compulsory register assignment) and hardware registers
// are both supported, and each call activates a fresh register file.
// To expose miscompilations, a call deliberately clobbers the
// caller-save registers and the condition codes with a poison value.
package interp

import (
	"fmt"

	"repro/internal/rtl"
)

// poison is written into caller-save registers at calls so that any
// instance that wrongly relies on a value surviving a call misbehaves
// deterministically.
const poison = int32(-559038737) // 0xDEADBEEF

// Memory layout of the simulated address space.
const (
	globalBase = 0x0001_0000
	stackTop   = 0x0100_0000
)

// Limits bound an execution.
type Limits struct {
	// MaxSteps is the maximum number of executed instructions before
	// the run is aborted (0 means the default of 50 million).
	MaxSteps int64
	// MaxDepth is the maximum call depth (0 means 256).
	MaxDepth int
}

// Result reports the outcome of an execution.
type Result struct {
	// Ret is the value returned by the entry function (r0).
	Ret int32
	// Steps is the number of dynamically executed instructions.
	Steps int64
	// Trace accumulates the arguments of __trace builtin calls, giving
	// programs an observable output stream for differential testing.
	Trace []int32
}

// Machine executes functions of one RTL program against a shared
// memory image. Create one with New, then call Run (possibly several
// times; memory persists between runs, as with successive calls into a
// loaded program image).
type Machine struct {
	prog    *rtl.Program
	mem     map[uint32]int32
	gaddr   map[string]uint32
	limits  Limits
	steps   int64
	trace   []int32
	callers int

	// Block-level profiling (Section 7 of the paper: block execution
	// frequencies let one execution stand in for every instance with
	// the same control flow).
	profName   string
	profCounts []int64
}

// New prepares a machine for the program: globals are laid out and
// initialized, and the stack is empty.
func New(prog *rtl.Program, limits Limits) *Machine {
	if limits.MaxSteps == 0 {
		limits.MaxSteps = 50_000_000
	}
	if limits.MaxDepth == 0 {
		limits.MaxDepth = 256
	}
	m := &Machine{
		prog:   prog,
		mem:    make(map[uint32]int32),
		gaddr:  make(map[string]uint32),
		limits: limits,
	}
	addr := uint32(globalBase)
	for _, g := range prog.Globals {
		m.gaddr[g.Name] = addr
		for i, v := range g.Init {
			m.mem[(addr+uint32(i*4))>>2] = v
		}
		addr += uint32(g.Words * 4)
		addr = (addr + 15) &^ 15
	}
	return m
}

// GlobalAddr returns the simulated address of a global.
func (m *Machine) GlobalAddr(name string) (uint32, bool) {
	a, ok := m.gaddr[name]
	return a, ok
}

// ReadWord returns the word at the given simulated address.
func (m *Machine) ReadWord(addr uint32) int32 { return m.mem[addr>>2] }

// WriteWord stores a word at the given simulated address.
func (m *Machine) WriteWord(addr uint32, v int32) { m.mem[addr>>2] = v }

// ReadGlobal returns word index i of a named global.
func (m *Machine) ReadGlobal(name string, i int32) int32 {
	return m.ReadWord(m.gaddr[name] + uint32(i*4))
}

// GlobalsSnapshot returns the current contents of every global, used
// by differential tests to compare whole-memory effects.
func (m *Machine) GlobalsSnapshot() map[string][]int32 {
	out := make(map[string][]int32, len(m.prog.Globals))
	for _, g := range m.prog.Globals {
		words := make([]int32, g.Words)
		for i := int32(0); i < g.Words; i++ {
			words[i] = m.ReadGlobal(g.Name, i)
		}
		out[g.Name] = words
	}
	return out
}

// Profile enables block-level execution counting for the named
// function: every entry into one of its basic blocks (by layout
// position) is tallied across all activations until the next Profile
// call. BlockCounts returns the tallies.
func (m *Machine) Profile(funcName string) {
	m.profName = funcName
	f := m.prog.Func(funcName)
	if f != nil {
		m.profCounts = make([]int64, len(f.Blocks))
	} else {
		m.profCounts = nil
	}
}

// BlockCounts returns the per-block (layout position) execution counts
// collected since Profile was called.
func (m *Machine) BlockCounts() []int64 {
	return append([]int64(nil), m.profCounts...)
}

// Run executes the named function with up to four arguments and
// returns the result. Memory effects persist in the machine.
func (m *Machine) Run(name string, args ...int32) (Result, error) {
	if len(args) > 4 {
		return Result{}, fmt.Errorf("interp: at most 4 arguments supported, got %d", len(args))
	}
	f := m.prog.Func(name)
	if f == nil {
		return Result{}, fmt.Errorf("interp: no function %q", name)
	}
	m.steps = 0
	m.trace = m.trace[:0]
	ret, err := m.call(f, args, stackTop)
	if err != nil {
		return Result{}, err
	}
	return Result{Ret: ret, Steps: m.steps, Trace: append([]int32(nil), m.trace...)}, nil
}

// frame is the per-activation register file.
type frame struct {
	regs     []int32
	icA, icB int32
}

func (m *Machine) call(f *rtl.Func, args []int32, sp uint32) (int32, error) {
	m.callers++
	defer func() { m.callers-- }()
	if m.callers > m.limits.MaxDepth {
		return 0, fmt.Errorf("interp: call depth exceeded in %q", f.Name)
	}

	// The frame sits below the caller's stack pointer; add slack so
	// spill slots appended by register assignment always fit.
	frameSP := sp - uint32(f.FrameSize) - 64
	fr := frame{regs: make([]int32, int(f.NextPseudo)+1)}
	for i, a := range args {
		fr.regs[i] = a
	}
	fr.regs[rtl.RegSP] = int32(frameSP)

	idx := make(map[int]int, len(f.Blocks))
	for i, b := range f.Blocks {
		idx[b.ID] = i
	}

	get := func(o rtl.Operand) int32 {
		if o.Kind == rtl.OperImm {
			return o.Imm
		}
		return fr.regs[o.Reg]
	}

	profiled := f.Name == m.profName

	bpos := 0
	for {
		if bpos >= len(f.Blocks) {
			return 0, fmt.Errorf("interp: %q fell off the end of the function", f.Name)
		}
		if profiled && bpos < len(m.profCounts) {
			m.profCounts[bpos]++
		}
		b := f.Blocks[bpos]
		transferred := false
		for i := range b.Instrs {
			in := &b.Instrs[i]
			m.steps++
			if m.steps > m.limits.MaxSteps {
				return 0, fmt.Errorf("interp: step limit exceeded in %q", f.Name)
			}
			switch in.Op {
			case rtl.OpNop:
			case rtl.OpMov:
				fr.regs[in.Dst] = get(in.A)
			case rtl.OpMovHi:
				a, ok := m.gaddr[f.SymName(in.Sym)]
				if !ok {
					return 0, fmt.Errorf("interp: %q references unknown global %q", f.Name, f.SymName(in.Sym))
				}
				fr.regs[in.Dst] = int32(a &^ 0xFFFF)
			case rtl.OpAddLo:
				a, ok := m.gaddr[f.SymName(in.Sym)]
				if !ok {
					return 0, fmt.Errorf("interp: %q references unknown global %q", f.Name, f.SymName(in.Sym))
				}
				fr.regs[in.Dst] = get(in.A) + int32(a&0xFFFF)
			case rtl.OpAdd:
				fr.regs[in.Dst] = get(in.A) + get(in.B)
			case rtl.OpSub:
				fr.regs[in.Dst] = get(in.A) - get(in.B)
			case rtl.OpRsb:
				fr.regs[in.Dst] = get(in.B) - get(in.A)
			case rtl.OpMul:
				fr.regs[in.Dst] = get(in.A) * get(in.B)
			case rtl.OpDiv:
				d := get(in.B)
				if d == 0 {
					return 0, fmt.Errorf("interp: division by zero in %q", f.Name)
				}
				fr.regs[in.Dst] = get(in.A) / d
			case rtl.OpRem:
				d := get(in.B)
				if d == 0 {
					return 0, fmt.Errorf("interp: division by zero in %q", f.Name)
				}
				fr.regs[in.Dst] = get(in.A) % d
			case rtl.OpAnd:
				fr.regs[in.Dst] = get(in.A) & get(in.B)
			case rtl.OpOr:
				fr.regs[in.Dst] = get(in.A) | get(in.B)
			case rtl.OpXor:
				fr.regs[in.Dst] = get(in.A) ^ get(in.B)
			case rtl.OpShl:
				fr.regs[in.Dst] = get(in.A) << (uint32(get(in.B)) & 31)
			case rtl.OpShr:
				fr.regs[in.Dst] = int32(uint32(get(in.A)) >> (uint32(get(in.B)) & 31))
			case rtl.OpSar:
				fr.regs[in.Dst] = get(in.A) >> (uint32(get(in.B)) & 31)
			case rtl.OpNeg:
				fr.regs[in.Dst] = -get(in.A)
			case rtl.OpNot:
				fr.regs[in.Dst] = ^get(in.A)
			case rtl.OpLoad:
				fr.regs[in.Dst] = m.mem[uint32(get(in.A)+in.Disp)>>2]
			case rtl.OpStore:
				m.mem[uint32(get(in.B)+in.Disp)>>2] = get(in.A)
			case rtl.OpCmp:
				fr.icA, fr.icB = get(in.A), get(in.B)
			case rtl.OpBranch:
				if in.Rel.Eval(fr.icA, fr.icB) {
					bpos = idx[int(in.Target)]
					transferred = true
				}
			case rtl.OpJmp:
				bpos = idx[int(in.Target)]
				transferred = true
			case rtl.OpRet:
				return fr.regs[rtl.RegR0], nil
			case rtl.OpCall:
				ret, err := m.dispatch(f, in, fr.regs, frameSP)
				if err != nil {
					return 0, err
				}
				// Clobber caller-save state, then deliver the result.
				for _, r := range rtl.CallerSave {
					fr.regs[r] = poison
				}
				fr.icA, fr.icB = poison, poison
				fr.regs[rtl.RegR0] = ret
			default:
				return 0, fmt.Errorf("interp: %q: unhandled op %v", f.Name, in.Op)
			}
			if transferred {
				break
			}
		}
		if !transferred {
			bpos++
		}
	}
}

// dispatch routes a call to a program function or a builtin.
func (m *Machine) dispatch(caller *rtl.Func, in *rtl.Instr, regs []int32, sp uint32) (int32, error) {
	args := make([]int32, in.NArgs)
	for i := range args {
		args[i] = regs[i]
	}
	name := caller.SymName(in.Sym)
	if callee := m.prog.Func(name); callee != nil {
		return m.call(callee, args, sp)
	}
	switch name {
	case "__trace":
		if len(args) > 0 {
			m.trace = append(m.trace, args[0])
		}
		return 0, nil
	}
	return 0, fmt.Errorf("interp: %q calls unknown function %q", caller.Name, name)
}

// Run is a convenience wrapper: build a fresh machine, execute the
// named function once and return the result.
func Run(prog *rtl.Program, name string, args ...int32) (Result, error) {
	return New(prog, Limits{}).Run(name, args...)
}
