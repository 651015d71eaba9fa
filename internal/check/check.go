// Package check is the semantic RTL verifier: a dataflow-driven static
// analysis layer that goes beyond the structural rtl.Validate tier and
// catches miscompiles at the phase where they happen. The whole result
// of the reproduced study rests on every candidate phase being
// semantics-preserving — one silently miscompiling phase corrupts the
// enumerated DAG and every statistic mined from it — so the verifier is
// wired in as a post-phase hook (opt.PostCheck), as a per-node recorder
// in the exhaustive search (search.Options.Check) and as a standalone
// lint tool (cmd/rtllint).
//
// Two tiers of findings:
//
//   - errors (SevError) are invariant violations no phase may produce:
//     a register read before any path assigns it, a conditional branch
//     with stale or clobbered condition codes, an instruction the
//     machine cannot encode, misuse of the reserved registers, a frame
//     access outside the allocated slots, a clobbered callee-save
//     register after the entry/exit fixup;
//
//   - warnings (SevWarn) are hygiene lints: unreachable blocks, empty
//     blocks, jumps to the fall-through successor, blocks that loop on
//     themselves with no exit, dead stores and redundant moves. These
//     states are legal — entire candidate phases exist to clean them
//     up — so they never fail the hooks, but cmd/rtllint surfaces them.
//
// The flow-sensitive rules (must-assigned registers, condition-code
// validity, liveness, available copies) are clients of the one dataflow
// kernel in internal/rtl rather than hand-rolled fixpoints (flow.go),
// and every diagnostic on a reachable block carries a path witness: a
// concrete block trace through the CFG demonstrating the finding (the
// path along which the register arrives unassigned, the condition codes
// arrive invalid, or the stored value dies). cmd/rtllint renders
// witnesses in both its human and -json output.
package check

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/machine"
	"repro/internal/rtl"
	"repro/internal/telemetry"
)

// Severity grades a diagnostic.
type Severity uint8

const (
	// SevError marks a semantic invariant violation: the function is
	// miscompiled or unencodable.
	SevError Severity = iota
	// SevWarn marks a hygiene finding that a cleanup phase could
	// remove but that does not threaten correctness.
	SevWarn
)

// String renders the severity for reports.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its report string, so the
// rtllint -json stream says "error"/"warning" rather than 0/1.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the severity strings MarshalJSON emits.
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"error"`:
		*s = SevError
	case `"warning"`:
		*s = SevWarn
	default:
		return fmt.Errorf("check: unknown severity %s", b)
	}
	return nil
}

// Rule identifiers, one per verifier rule, so tooling can aggregate
// findings and tests can assert that the intended rule fired.
const (
	// RuleStructure wraps an rtl.Validate failure; when it fires the
	// deeper analyses are skipped (they assume a well-formed CFG).
	RuleStructure = "structure"
	// RuleUseBeforeDef fires when some path from the entry reaches a
	// read of a pseudo or hardware register that no instruction on the
	// path has assigned. The entry seeds the argument registers
	// r0..r3 (as many as the function takes) and the stack pointer.
	RuleUseBeforeDef = "use-before-def"
	// RuleCondCode fires when a conditional branch executes without a
	// reaching compare on every path: the condition codes are either
	// never set or clobbered by an intervening call.
	RuleCondCode = "cond-code"
	// RuleImmRange fires when the target machine cannot encode an
	// instruction (immediate range, operand form).
	RuleImmRange = "imm-range"
	// RuleReservedReg fires on misuse of the reserved registers:
	// writing the stack pointer (r13), link register (r14) or program
	// counter (r15) as an ordinary destination, reading r15 or r14 as
	// an operand, or touching the condition codes outside a compare.
	RuleReservedReg = "reserved-reg"
	// RuleFrameBounds fires when a stack-pointer-relative load or
	// store falls outside every allocated frame slot.
	RuleFrameBounds = "frame-bounds"
	// RuleCalleeSave fires, after the compulsory entry/exit fixup,
	// when a modified callee-save register is not saved on entry and
	// restored before every return.
	RuleCalleeSave = "callee-save"
	// RuleUnreachable flags blocks unreachable from the entry (the
	// remove-unreachable phase 'd' deletes them).
	RuleUnreachable = "cfg-unreachable"
	// RuleEmptyBlock flags blocks with no instructions (the implicit
	// cleanup pass normally removes them).
	RuleEmptyBlock = "cfg-empty-block"
	// RuleJumpNext flags jumps to the fall-through successor (the
	// useless-jump-removal phase 'u' deletes them).
	RuleJumpNext = "cfg-jump-next"
	// RuleSelfLoop flags blocks whose only successor is themselves —
	// an inescapable loop.
	RuleSelfLoop = "cfg-self-loop"
	// RuleDeadStore flags assignments whose value is never read: the
	// destination is dead immediately after the instruction (the dead
	// assignment elimination phase 'h' removes them).
	RuleDeadStore = "dead-store"
	// RuleRedundantMove flags register moves that re-establish a copy
	// already available on every path (or copy a register to itself);
	// common subexpression elimination 'c' removes them.
	RuleRedundantMove = "redundant-move"
)

// Diagnostic is one verifier finding, structured so tooling can
// aggregate findings rather than fail on the first error. The JSON
// field names are the rtllint -json wire format.
type Diagnostic struct {
	// Fn is the function name.
	Fn string `json:"fn"`
	// Block is the block ID (the L-label), or -1 for function-level
	// findings.
	Block int `json:"block"`
	// Instr is the instruction index within the block, or -1 for
	// block-level findings.
	Instr int `json:"instr"`
	// Rule is the Rule* identifier that fired.
	Rule string `json:"rule"`
	// Severity grades the finding.
	Severity Severity `json:"severity"`
	// Msg is the human-readable explanation.
	Msg string `json:"msg"`
	// Witness is the finding's CFG path witness as a sequence of block
	// IDs: a concrete control-flow path demonstrating the diagnosis
	// (entry to the fault for path-sensitive rules, the store to an
	// exit for dead stores). Empty when no path applies — unreachable
	// code has no witness by definition.
	Witness []int `json:"witness,omitempty"`
}

// String renders the diagnostic as "fn: L2[3]: rule: msg (severity)".
func (d Diagnostic) String() string {
	loc := d.Fn
	if d.Block >= 0 {
		loc += fmt.Sprintf(": L%d", d.Block)
		if d.Instr >= 0 {
			loc += fmt.Sprintf("[%d]", d.Instr)
		}
	}
	return fmt.Sprintf("%s: %s: %s (%s)", loc, d.Rule, d.Msg, d.Severity)
}

// Metrics, when non-nil, tags every verification: a check.verify.calls
// counter, a check.verify.duration_ns histogram, and one
// check.finding.<rule> counter per diagnostic rule that fires. Install
// before concurrent use (the search calls Run from its worker pool).
var Metrics *VerifyMetrics

// VerifyMetrics is the verifier's instrument bundle.
type VerifyMetrics struct {
	reg   *telemetry.Registry
	calls *telemetry.Counter
	dur   *telemetry.Histogram
}

// NewVerifyMetrics registers the verifier instruments on reg.
func NewVerifyMetrics(reg *telemetry.Registry) *VerifyMetrics {
	return &VerifyMetrics{
		reg:   reg,
		calls: reg.Counter("check.verify.calls"),
		dur:   reg.Histogram("check.verify.duration_ns"),
	}
}

// observe records one verification and its findings. Rule counters go
// through the registry (a mutexed map lookup) because the rule set is
// open-ended; findings are rare enough that this never shows up next
// to the dataflow analyses themselves.
func (m *VerifyMetrics) observe(began time.Time, diags []Diagnostic) {
	m.calls.Inc()
	m.dur.ObserveSince(began)
	for _, d := range diags {
		m.reg.Counter("check.finding." + d.Rule).Inc()
	}
}

// Options configure a verification run.
type Options struct {
	// Machine is the target description used for encoding legality
	// (default: machine.StrongARM()).
	Machine *machine.Desc
	// Lints additionally emits the SevWarn CFG hygiene findings.
	Lints bool
}

// Run verifies a single function and returns every finding, ordered by
// block layout position and instruction index. A structurally invalid
// function yields the single RuleStructure diagnostic.
func Run(f *rtl.Func, opts Options) []Diagnostic {
	m := Metrics
	if m == nil {
		return run(f, opts)
	}
	began := time.Now()
	diags := run(f, opts)
	m.observe(began, diags)
	return diags
}

func run(f *rtl.Func, opts Options) []Diagnostic {
	if opts.Machine == nil {
		opts.Machine = machine.StrongARM()
	}
	if err := rtl.Validate(f); err != nil {
		return []Diagnostic{{
			Fn: f.Name, Block: -1, Instr: -1,
			Rule: RuleStructure, Severity: SevError, Msg: err.Error(),
		}}
	}
	c := &checker{f: f, opts: opts, g: rtl.ComputeCFG(f)}
	c.reach = c.g.Reachable()
	c.checkDefBeforeUse()
	c.checkCondCodes()
	c.checkMachine()
	c.checkCalleeSave()
	if opts.Lints {
		c.lintCFG()
		c.lintDataflow()
	}
	c.sort()
	return c.diags
}

// Program verifies every function of a program, concatenating the
// findings in function order.
func Program(p *rtl.Program, opts Options) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Funcs {
		out = append(out, Run(f, opts)...)
	}
	return out
}

// Errors filters the findings down to the SevError tier.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// Err runs the verifier without lints and folds the error-tier findings
// into a single error, or returns nil when the function is clean. Its
// signature matches opt.PostCheck, so installing the verifier as the
// post-phase hook is just "opt.PostCheck = check.Err".
func Err(f *rtl.Func, d *machine.Desc) error {
	diags := Errors(Run(f, Options{Machine: d}))
	if len(diags) == 0 {
		return nil
	}
	msgs := make([]string, 0, 3)
	for i, dg := range diags {
		if i == 3 {
			msgs = append(msgs, fmt.Sprintf("... and %d more", len(diags)-3))
			break
		}
		msgs = append(msgs, dg.String())
	}
	return fmt.Errorf("%d violation(s): %s", len(diags), strings.Join(msgs, "; "))
}

// checker carries the per-run analysis state.
type checker struct {
	f     *rtl.Func
	opts  Options
	g     *rtl.CFG
	reach []bool
	diags []Diagnostic
}

func (c *checker) report(bpos, instr int, rule string, sev Severity, format string, args ...any) {
	c.reportW(bpos, instr, rule, sev, nil, format, args...)
}

// reportW is report with an explicit path witness (block IDs).
func (c *checker) reportW(bpos, instr int, rule string, sev Severity, witness []int, format string, args ...any) {
	blockID := -1
	if bpos >= 0 {
		blockID = c.f.Blocks[bpos].ID
	}
	c.diags = append(c.diags, Diagnostic{
		Fn: c.f.Name, Block: blockID, Instr: instr,
		Rule: rule, Severity: sev, Msg: fmt.Sprintf(format, args...),
		Witness: witness,
	})
}

// witnessTo returns a shortest entry-to-block path witness as block
// IDs, or nil when the block is unreachable (no path exists).
func (c *checker) witnessTo(bpos int) []int {
	if bpos < 0 || !c.reach[bpos] {
		return nil
	}
	path := pathTo(c.g, bpos, nil)
	if path == nil {
		return nil
	}
	return blockIDs(c.f, path)
}

func (c *checker) sort() {
	pos := make(map[int]int, len(c.f.Blocks))
	for i, b := range c.f.Blocks {
		pos[b.ID] = i
	}
	sort.SliceStable(c.diags, func(i, j int) bool {
		a, b := c.diags[i], c.diags[j]
		if pa, pb := pos[a.Block], pos[b.Block]; pa != pb {
			return pa < pb
		}
		if a.Instr != b.Instr {
			return a.Instr < b.Instr
		}
		return a.Rule < b.Rule
	})
}

// entrySeed adds to s the registers holding defined values when the
// function is entered (s is the entry block's boundary state): the
// stack pointer and the argument registers r0..r3, as many as the
// function declares (the call convention caps arguments at four). Once
// the entry/exit fixup has run, the callee-save registers also count as
// live-in — the save code reads the caller's values to preserve them.
// During optimization they are ordinary storage whose incoming value is
// garbage, so reading one before writing it is a miscompile.
func (c *checker) entrySeed(_ int, s []uint64) {
	setReg(s, rtl.RegSP)
	for i := 0; i < min(c.f.NArgs, 4); i++ {
		setReg(s, rtl.Reg(i))
	}
	if c.f.EntryExitFixed {
		for r := rtl.RegR4; r <= rtl.RegR11; r++ {
			setReg(s, r)
		}
	}
}

// checkDefBeforeUse runs the forward must-be-assigned dataflow
// (mustAssigned): a block's in-set is the intersection of its
// predecessors' out-sets, entry seeded by entrySeed, each
// instruction's reads must be covered, and its writes extend the set.
// Call instructions count as defining the caller-save registers,
// matching Instr.Defs. The condition-code register is excluded here —
// checkCondCodes models it with call-clobber precision — and the
// program counter is the reserved-register rule's business. Each
// finding carries as witness a shortest entry path that reaches the
// read without ever assigning the register.
func (c *checker) checkDefBeforeUse() {
	f := c.f
	facts := mustAssigned(c.g, c.entrySeed, int(f.NextPseudo))
	var buf [8]rtl.Reg
	var cur rtl.RegSet
	for bpos, b := range f.Blocks {
		if !c.reach[bpos] {
			continue
		}
		cur.CopyFrom(rtl.SetOver[rtl.Reg](facts.At(bpos)))
		for j := range b.Instrs {
			ins := &b.Instrs[j]
			for _, r := range ins.Uses(buf[:0]) {
				if r == rtl.RegIC || r == rtl.RegPC {
					continue
				}
				if !cur.Has(r) {
					c.reportW(bpos, j, RuleUseBeforeDef, SevError, c.unassignedWitness(bpos, r),
						"%s read by %q but not assigned on every path from entry", r, c.f.InstrString(ins))
				}
			}
			for _, r := range ins.Defs(buf[:0]) {
				cur.Add(r)
			}
		}
	}
}

// unassignedWitness finds a shortest path from entry to the block
// holding an uncovered read of r that passes through no block
// assigning r — the concrete path along which the read sees garbage.
// Such a path exists whenever the must-assigned analysis reports the
// read (the in-set is the intersection over paths); the unrestricted
// fallback is defensive only.
func (c *checker) unassignedWitness(bpos int, r rtl.Reg) []int {
	var buf [8]rtl.Reg
	defines := func(p int) bool {
		for j := range c.f.Blocks[p].Instrs {
			for _, d := range c.f.Blocks[p].Instrs[j].Defs(buf[:0]) {
				if d == r {
					return true
				}
			}
		}
		return false
	}
	path := pathTo(c.g, bpos, defines)
	if path == nil {
		path = pathTo(c.g, bpos, nil)
	}
	return blockIDs(c.f, path)
}

// checkCondCodes enforces the condition-code discipline: every
// conditional branch must be dominated by a reaching compare with no
// clobber in between. A compare validates IC, a call clobbers it
// (calls save no flags), and the meet over paths is conjunction — the
// codes must be valid on every way to reach the branch. The problem is
// a one-bit state of the dataflow kernel (condCodesValid); each finding
// carries as witness a path along which the codes arrive invalid.
func (c *checker) checkCondCodes() {
	f := c.f
	facts := condCodesValid(c.g)
	for bpos, b := range f.Blocks {
		if !c.reach[bpos] {
			continue
		}
		ic := facts.At(bpos)[0] != 0
		for j := range b.Instrs {
			ins := &b.Instrs[j]
			if ins.Op == rtl.OpBranch && !ic {
				c.reportW(bpos, j, RuleCondCode, SevError, c.condCodeWitness(bpos, j),
					"branch %q not reached by a compare on every path (condition codes unset or call-clobbered)",
					c.f.InstrString(ins))
			}
			ic = transferOne(ins, ic)
		}
	}
}

// condCodeWitness finds a shortest path from entry to the block of a
// flagged branch along which the condition codes are invalid at the
// branch. If the block's own prefix (the instructions before index j)
// invalidates the codes regardless of how they arrive, any entry path
// is a witness; otherwise the prefix preserves validity, so the path
// must deliver the codes invalid — a breadth-first search over
// (block, codes-valid-on-entry) states finds the shortest such path.
func (c *checker) condCodeWitness(bpos, j int) []int {
	f, g := c.f, c.g
	ic := true
	for k := 0; k < j; k++ {
		ic = transferOne(&f.Blocks[bpos].Instrs[k], ic)
	}
	if !ic {
		return c.witnessTo(bpos)
	}
	n := len(g.Succs)
	// State s = 2*block + validBit, where validBit is the codes'
	// validity on block entry. parent holds the predecessor state for
	// path reconstruction (-1 start, -2 unvisited).
	parent := make([]int, 2*n)
	for i := range parent {
		parent[i] = -2
	}
	start, goal := 0, 2*bpos // entry arrives invalid; reach bpos invalid
	parent[start] = -1
	queue := []int{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if s == goal {
			var rev []int
			for cur := s; cur != -1; cur = parent[cur] {
				rev = append(rev, cur/2)
			}
			path := make([]int, len(rev))
			for i, p := range rev {
				path[len(rev)-1-i] = p
			}
			return blockIDs(f, path)
		}
		b, valid := s/2, s%2 == 1
		for k := range f.Blocks[b].Instrs {
			valid = transferOne(&f.Blocks[b].Instrs[k], valid)
		}
		for _, sb := range g.Succs[b] {
			ns := 2 * sb
			if valid {
				ns++
			}
			if parent[ns] == -2 {
				parent[ns] = s
				queue = append(queue, ns)
			}
		}
	}
	return nil
}

// transferOne is the single-instruction condition-code transfer
// function shared by the fixed-point and reporting passes: a compare
// validates the codes, a call clobbers them, everything else preserves
// them. (A stray non-compare write of IC counts as setting them — the
// reserved-register rule reports that misuse separately.)
func transferOne(ins *rtl.Instr, ic bool) bool {
	switch ins.Op {
	case rtl.OpCmp:
		return true
	case rtl.OpCall:
		return false
	}
	if hasDst(ins.Op) && ins.Dst == rtl.RegIC {
		return true
	}
	return ic
}

// checkMachine walks every instruction (reachable or not — an
// assembler would choke on dead code too) checking target
// encodability, reserved-register discipline and frame-slot bounds.
func (c *checker) checkMachine() {
	f := c.f
	d := c.opts.Machine
	hasFrame := f.FrameSize > 0 || len(f.Slots) > 0
	for bpos, b := range f.Blocks {
		for j := range b.Instrs {
			ins := &b.Instrs[j]
			if err := d.Check(ins); err != nil {
				c.reportW(bpos, j, RuleImmRange, SevError, c.witnessTo(bpos), "%v in %q", err, c.f.InstrString(ins))
			}
			c.checkReserved(bpos, j, ins)
			// Frame bounds: direct stack-pointer addressing must hit an
			// allocated slot. (Computed addresses use an ordinary base
			// register and are outside the static model.) Functions
			// parsed from textual RTL carry no frame metadata, so the
			// rule only applies when slots exist.
			if !hasFrame {
				continue
			}
			var base rtl.Operand
			switch ins.Op {
			case rtl.OpLoad:
				base = ins.A
			case rtl.OpStore:
				base = ins.B
			default:
				continue
			}
			if base.IsReg(rtl.RegSP) && f.SlotAt(ins.Disp) == nil {
				c.reportW(bpos, j, RuleFrameBounds, SevError, c.witnessTo(bpos),
					"%q addresses offset %d outside every frame slot (frame size %d)",
					c.f.InstrString(ins), ins.Disp, f.FrameSize)
			}
		}
	}
}

// hasDst reports whether the opcode's Dst field is meaningful (Instr's
// zero value leaves Dst = r0 on instructions without a destination).
func hasDst(op rtl.Op) bool {
	switch op {
	case rtl.OpStore, rtl.OpBranch, rtl.OpJmp, rtl.OpCall, rtl.OpRet, rtl.OpNop:
		return false
	}
	return true
}

func (c *checker) checkReserved(bpos, j int, ins *rtl.Instr) {
	if hasDst(ins.Op) {
		switch ins.Dst {
		case rtl.RegSP, rtl.RegLR, rtl.RegPC:
			c.reportW(bpos, j, RuleReservedReg, SevError, c.witnessTo(bpos),
				"%q writes reserved register %s", c.f.InstrString(ins), ins.Dst)
		case rtl.RegIC:
			if ins.Op != rtl.OpCmp {
				c.reportW(bpos, j, RuleReservedReg, SevError, c.witnessTo(bpos),
					"%q sets the condition codes outside a compare", c.f.InstrString(ins))
			}
		}
		if ins.Op == rtl.OpCmp && ins.Dst != rtl.RegIC {
			c.reportW(bpos, j, RuleReservedReg, SevError, c.witnessTo(bpos),
				"compare %q must target the condition codes, not %s", c.f.InstrString(ins), ins.Dst)
		}
	}
	for _, o := range [2]rtl.Operand{ins.A, ins.B} {
		if o.Kind != rtl.OperReg {
			continue
		}
		if o.Reg == rtl.RegPC || o.Reg == rtl.RegLR {
			c.reportW(bpos, j, RuleReservedReg, SevError, c.witnessTo(bpos),
				"%q reads reserved register %s", c.f.InstrString(ins), o.Reg)
		}
	}
}

// checkCalleeSave verifies, once the compulsory entry/exit fixup has
// run, that every callee-save register the function modifies is saved
// to a frame slot in the entry block before its first write and
// restored from the same slot before every return.
func (c *checker) checkCalleeSave() {
	f := c.f
	if !f.EntryExitFixed || !f.RegAssigned {
		return
	}
	for r := rtl.RegR4; r <= rtl.RegR11; r++ {
		modified := false
		for _, b := range f.Blocks {
			for j := range b.Instrs {
				ins := &b.Instrs[j]
				if hasDst(ins.Op) && ins.Dst == r {
					modified = true
				}
			}
		}
		if !modified {
			continue
		}
		// Entry: a store of r to a stack slot before any write of r.
		saveOff, saved := int32(0), false
		entry := f.Entry()
		for j := range entry.Instrs {
			ins := &entry.Instrs[j]
			if ins.Op == rtl.OpStore && ins.A.IsReg(r) && ins.B.IsReg(rtl.RegSP) {
				saveOff, saved = ins.Disp, true
				break
			}
			if hasDst(ins.Op) && ins.Dst == r {
				break
			}
		}
		if !saved {
			c.reportW(0, -1, RuleCalleeSave, SevError, c.witnessTo(0),
				"callee-save %s is modified but never saved on entry", r)
			continue
		}
		// Every return: the last write of r in the returning block must
		// be a reload from the save slot.
		for bpos, b := range f.Blocks {
			last := b.Last()
			if last == nil || last.Op != rtl.OpRet || !c.reach[bpos] {
				continue
			}
			restored := false
			for j := len(b.Instrs) - 1; j >= 0; j-- {
				ins := &b.Instrs[j]
				if !hasDst(ins.Op) || ins.Dst != r {
					continue
				}
				restored = ins.Op == rtl.OpLoad && ins.A.IsReg(rtl.RegSP) && ins.Disp == saveOff
				break
			}
			if !restored {
				c.reportW(bpos, len(b.Instrs)-1, RuleCalleeSave, SevError, c.witnessTo(bpos),
					"callee-save %s not restored from its save slot (offset %d) before return", r, saveOff)
			}
		}
	}
}

// lintCFG emits the warning-tier CFG hygiene findings. Findings on
// reachable blocks carry a shortest entry path; RuleUnreachable has no
// witness by definition.
func (c *checker) lintCFG() {
	f := c.f
	for bpos, b := range f.Blocks {
		if !c.reach[bpos] {
			c.report(bpos, -1, RuleUnreachable, SevWarn, "block unreachable from entry")
		}
		if len(b.Instrs) == 0 {
			c.reportW(bpos, -1, RuleEmptyBlock, SevWarn, c.witnessTo(bpos), "empty block")
			continue
		}
		last := b.Last()
		if last.Op == rtl.OpJmp && bpos+1 < len(f.Blocks) && f.Blocks[bpos+1].ID == int(last.Target) {
			c.reportW(bpos, len(b.Instrs)-1, RuleJumpNext, SevWarn, c.witnessTo(bpos),
				"jump to the fall-through successor L%d", last.Target)
		}
		if succs := c.g.Succs[bpos]; len(succs) == 1 && succs[0] == bpos {
			c.reportW(bpos, len(b.Instrs)-1, RuleSelfLoop, SevWarn, c.witnessTo(bpos),
				"block's only successor is itself: inescapable loop")
		}
	}
}

// lintDataflow emits the warning-tier flow-sensitive findings: dead
// stores (phase 'h' deletes them) and redundant moves (phase 'c'
// does). Both use CFG-wide analyses — the graph's liveness and
// available copies — so a store that dies across a block boundary
// or a copy made redundant by a different block is found, not just the
// straight-line cases.
func (c *checker) lintDataflow() {
	f := c.f
	lv := c.g.Liveness()
	copies := availableCopies(c.g)
	avail := make([]uint64, copies.fl.Words)
	var buf [8]rtl.Reg
	var live rtl.RegSet
	for bpos, b := range f.Blocks {
		if !c.reach[bpos] {
			continue
		}
		// Dead stores: walk the block backwards carrying the live set,
		// exactly the traversal phase 'h' deletes with. Instructions
		// with side effects (stores, calls, control transfers) are
		// exempt; a compare whose condition codes are dead is not.
		live.CopyFrom(lv.Out[bpos])
		for j := len(b.Instrs) - 1; j >= 0; j-- {
			ins := &b.Instrs[j]
			if !ins.HasSideEffects() && ins.Op != rtl.OpNop &&
				ins.Dst != rtl.RegNone && !live.Has(ins.Dst) {
				c.reportW(bpos, j, RuleDeadStore, SevWarn, c.deadStoreWitness(bpos, ins.Dst),
					"%s assigned by %q but never read on any path", ins.Dst, c.f.InstrString(ins))
			}
			for _, d := range ins.Defs(buf[:0]) {
				live.Remove(d)
			}
			for _, u := range ins.Uses(buf[:0]) {
				live.Add(u)
			}
		}
		// Redundant moves: a register-to-register mov whose pair is
		// already available on every path, or a copy of a register to
		// itself. Any entry path witnesses a must-availability fact.
		copy(avail, copies.fl.At(bpos))
		for j := range b.Instrs {
			ins := &b.Instrs[j]
			if ins.Op == rtl.OpMov && ins.A.Kind == rtl.OperReg {
				if ins.Dst == ins.A.Reg {
					c.reportW(bpos, j, RuleRedundantMove, SevWarn, c.witnessTo(bpos),
						"%q copies %s to itself", c.f.InstrString(ins), ins.Dst)
				} else if copies.has(avail, ins.Dst, ins.A.Reg) {
					c.reportW(bpos, j, RuleRedundantMove, SevWarn, c.witnessTo(bpos),
						"%q re-establishes a copy of %s and %s already available on every path",
						c.f.InstrString(ins), ins.Dst, ins.A.Reg)
				}
			}
			copies.step(avail, ins)
		}
	}
}

// deadStoreWitness finds a path from the dead store's block to a
// function exit along which the stored register is never read — the
// concrete evidence the value dies. Blocks with an upward-exposed use
// of r are avoided; when every exit path redefines r first and later
// reads the new value, the strict path does not exist and any exit
// path serves (the store is still dead — the re-reader sees the new
// definition). Functions with no reachable exit yield no witness.
func (c *checker) deadStoreWitness(bpos int, r rtl.Reg) []int {
	var buf [8]rtl.Reg
	exposedUse := func(p int) bool {
		for j := range c.f.Blocks[p].Instrs {
			ins := &c.f.Blocks[p].Instrs[j]
			for _, u := range ins.Uses(buf[:0]) {
				if u == r {
					return true
				}
			}
			for _, d := range ins.Defs(buf[:0]) {
				if d == r {
					return false
				}
			}
		}
		return false
	}
	path := pathToExit(c.g, bpos, exposedUse)
	if path == nil {
		path = pathToExit(c.g, bpos, nil)
	}
	return blockIDs(c.f, path)
}
