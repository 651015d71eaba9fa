package rtl_test

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rtl"
)

// diamond builds:
//
//	L0: cmp; branch L2
//	L1: mov; jmp L3
//	L2: mov
//	L3: ret
func diamond() *rtl.Func {
	f := rtl.NewFunc("diamond", 1, true)
	b0 := f.Entry()
	b1 := f.AddBlock()
	b2 := f.AddBlock()
	b3 := f.AddBlock()
	b0.Instrs = append(b0.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelLT, b2.ID))
	b1.Instrs = append(b1.Instrs,
		rtl.NewMov(rtl.RegR0, rtl.Imm(1)),
		rtl.NewJmp(b3.ID))
	b2.Instrs = append(b2.Instrs,
		rtl.NewMov(rtl.RegR0, rtl.Imm(2)))
	b3.Instrs = append(b3.Instrs,
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	return f
}

func TestCFGDiamond(t *testing.T) {
	f := diamond()
	g := rtl.ComputeCFG(f)
	wantSuccs := [][]int{{2, 1}, {3}, {3}, nil}
	for i, want := range wantSuccs {
		got := g.Succs[i]
		if len(got) != len(want) {
			t.Fatalf("succs[%d] = %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("succs[%d] = %v, want %v", i, got, want)
			}
		}
	}
	if len(g.Preds[3]) != 2 {
		t.Fatalf("preds[3] = %v", g.Preds[3])
	}
	if p, ok := g.Pos(f.Blocks[2].ID); !ok || p != 2 {
		t.Fatalf("Pos lookup failed")
	}
	if _, ok := g.Pos(999); ok {
		t.Fatal("Pos found a nonexistent block")
	}
}

func TestDominatorsDiamond(t *testing.T) {
	g := rtl.ComputeCFG(diamond())
	idom := g.Dominators()
	// Entry dominates everything; the join's idom is the entry.
	if idom[3] != 0 {
		t.Fatalf("idom of join = %d, want 0", idom[3])
	}
	if !g.Dominates(0, 3) {
		t.Fatal("entry must dominate the join")
	}
	if g.Dominates(1, 3) || g.Dominates(2, 3) {
		t.Fatal("neither branch arm dominates the join")
	}
	if !g.Dominates(2, 2) {
		t.Fatal("a block dominates itself")
	}
}

// loopFunc builds a simple counted loop.
func loopFunc() *rtl.Func {
	f := rtl.NewFunc("loop", 1, true)
	b0 := f.Entry()
	head := f.AddBlock()
	body := f.AddBlock()
	exit := f.AddBlock()
	b0.Instrs = append(b0.Instrs, rtl.NewMov(rtl.RegR1, rtl.Imm(0)))
	head.Instrs = append(head.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR1), rtl.R(rtl.RegR0)),
		rtl.NewBranch(rtl.RelGE, exit.ID))
	body.Instrs = append(body.Instrs,
		rtl.NewALU(rtl.OpAdd, rtl.RegR1, rtl.R(rtl.RegR1), rtl.Imm(1)),
		rtl.NewJmp(head.ID))
	exit.Instrs = append(exit.Instrs,
		rtl.NewMov(rtl.RegR0, rtl.R(rtl.RegR1)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	return f
}

func TestFindLoops(t *testing.T) {
	g := rtl.ComputeCFG(loopFunc())
	loops := g.FindLoops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != 1 {
		t.Fatalf("header %d, want 1", l.Header)
	}
	if !l.Contains(2) || l.Contains(3) || l.Contains(0) {
		t.Fatalf("loop membership wrong: %v", l.Blocks)
	}
	if exits := l.Exits(g); len(exits) != 1 || exits[0] != 1 {
		t.Fatalf("exits = %v", exits)
	}
	if l.Depth != 1 {
		t.Fatalf("depth = %d", l.Depth)
	}
}

func TestLivenessLoop(t *testing.T) {
	f := loopFunc()
	g := rtl.ComputeCFG(f)
	lv := rtl.ComputeLiveness(g)
	// r0 (the bound) is live into the loop head; r1 (the counter) too.
	if !lv.In[1].Has(rtl.RegR0) || !lv.In[1].Has(rtl.RegR1) {
		t.Fatalf("loop head live-in misses the counter or bound")
	}
	// Nothing but SP is live out of the exit block.
	if lv.Out[3].Has(rtl.RegR1) {
		t.Fatal("r1 live after return")
	}
}

func TestCleanupMergesAndDeletes(t *testing.T) {
	f := rtl.NewFunc("c", 0, false)
	a := f.Entry()
	empty := f.AddBlock()
	c := f.AddBlock()
	a.Instrs = append(a.Instrs, rtl.NewMov(rtl.RegR0, rtl.Imm(1)))
	// empty block falls to c
	c.Instrs = append(c.Instrs, rtl.Instr{Op: rtl.OpRet})
	_ = empty
	rtl.Cleanup(f)
	if len(f.Blocks) != 1 {
		t.Fatalf("cleanup left %d blocks, want 1:\n%s", len(f.Blocks), f)
	}
	if n := f.NumInstrs(); n != 2 {
		t.Fatalf("cleanup changed the instructions: %d", n)
	}
}

func TestCleanupKeepsBranchTargets(t *testing.T) {
	f := rtl.NewFunc("c2", 1, false)
	a := f.Entry()
	empty := f.AddBlock()
	c := f.AddBlock()
	a.Instrs = append(a.Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelEQ, empty.ID))
	c.Instrs = append(c.Instrs, rtl.Instr{Op: rtl.OpRet})
	rtl.Cleanup(f)
	if err := rtl.Validate(f); err != nil {
		t.Fatalf("invalid after cleanup: %v\n%s", err, f)
	}
	// The branch must now target the block that followed the empty
	// one.
	last := f.Blocks[0].Last()
	if last.Op != rtl.OpBranch {
		t.Fatalf("lost the branch:\n%s", f)
	}
	if idx := f.BlockIndex(last.Target); idx == -1 {
		t.Fatalf("branch target dangles:\n%s", f)
	}
}

func TestValidateCatchesBrokenFunctions(t *testing.T) {
	// Control transfer in the middle of a block.
	f := rtl.NewFunc("bad", 0, false)
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewJmp(0),
		rtl.NewMov(rtl.RegR0, rtl.Imm(1)),
		rtl.Instr{Op: rtl.OpRet})
	if err := rtl.Validate(f); err == nil {
		t.Fatal("mid-block jump not caught")
	}

	// Dangling branch target.
	g := rtl.NewFunc("bad2", 0, false)
	g.Entry().Instrs = append(g.Entry().Instrs, rtl.NewJmp(42))
	if err := rtl.Validate(g); err == nil {
		t.Fatal("dangling target not caught")
	}

	// Falling off the end.
	h := rtl.NewFunc("bad3", 0, false)
	h.Entry().Instrs = append(h.Entry().Instrs, rtl.NewMov(rtl.RegR0, rtl.Imm(1)))
	if err := rtl.Validate(h); err == nil {
		t.Fatal("fall-off-the-end not caught")
	}
}

// TestValidateSymbolLength: the instance keys spell a symbol's length in
// one byte, so a symbol the keys could not tell from another is invalid
// on every instruction that carries one, and no other instruction's Sym
// is looked at.
func TestValidateSymbolLength(t *testing.T) {
	long, longest := strings.Repeat("s", rtl.MaxSymLen+1), strings.Repeat("s", rtl.MaxSymLen)
	cases := []struct {
		name  string
		in    rtl.Instr
		valid bool
	}{
		{"movhi, longest", rtl.Instr{Op: rtl.OpMovHi, Dst: rtl.RegR12, Sym: longest}, true},
		{"movhi, too long", rtl.Instr{Op: rtl.OpMovHi, Dst: rtl.RegR12, Sym: long}, false},
		{"addlo, longest", rtl.Instr{Op: rtl.OpAddLo, Dst: rtl.RegR12, A: rtl.R(rtl.RegR12), Sym: longest}, true},
		{"addlo, too long", rtl.Instr{Op: rtl.OpAddLo, Dst: rtl.RegR12, A: rtl.R(rtl.RegR12), Sym: long}, false},
		{"call, longest", rtl.Instr{Op: rtl.OpCall, Sym: longest}, true},
		{"call, too long", rtl.Instr{Op: rtl.OpCall, Sym: long}, false},
		{"mov, unused sym", rtl.Instr{Op: rtl.OpMov, Dst: rtl.RegR0, A: rtl.Imm(1), Sym: long}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := rtl.NewFunc("f", 0, false)
			f.Entry().Instrs = append(f.Entry().Instrs, tc.in, rtl.Instr{Op: rtl.OpRet})
			err := rtl.Validate(f)
			if tc.valid && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.valid && (err == nil || !strings.Contains(err.Error(), "symbol of 256 bytes")) {
				t.Fatalf("error %v, want the symbol's length named", err)
			}
		})
	}
}

// TestValidateUncheckedFunction: Validate is the test a decoded function
// passes before anything walks it, so block IDs no graph could index
// are violations, not panics, and a NextBlockID far beyond the blocks
// is no table size (a graph's ID index would be 8 TiB here).
func TestValidateUncheckedFunction(t *testing.T) {
	f := rtl.NewFunc("f", 0, false)
	f.Entry().Instrs = append(f.Entry().Instrs, rtl.Instr{Op: rtl.OpRet})
	f.NextBlockID = 1 << 40
	if err := rtl.Validate(f); err != nil {
		t.Fatalf("a vast NextBlockID is no violation: %v", err)
	}
	f.Blocks[0].ID = -1
	if err := rtl.Validate(f); err == nil || !strings.Contains(err.Error(), "outside [0, NextBlockID") {
		t.Fatalf("negative block id: error %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := loopFunc()
	g := f.Clone()
	g.Blocks[0].Instrs[0].A = rtl.Imm(99)
	g.Blocks[2].Instrs = append(g.Blocks[2].Instrs[:0:0], g.Blocks[2].Instrs...)
	if f.Blocks[0].Instrs[0].A.Imm == 99 {
		t.Fatal("clone shares instruction storage")
	}
	g2 := f.Clone()
	g2.Blocks[1].Instrs = append(g2.Blocks[1].Instrs, rtl.Instr{Op: rtl.OpNop})
	if len(f.Blocks[1].Instrs) == len(g2.Blocks[1].Instrs) {
		t.Fatal("clone shares block storage")
	}
}

func TestInstrStringsMatchPaperNotation(t *testing.T) {
	cases := map[string]rtl.Instr{
		"r[3]=r[4]+1;":    rtl.NewALU(rtl.OpAdd, rtl.Reg(3), rtl.R(rtl.Reg(4)), rtl.Imm(1)),
		"r[2]=1;":         rtl.NewMov(rtl.Reg(2), rtl.Imm(1)),
		"r[8]=M[r[1]];":   rtl.NewLoad(rtl.Reg(8), rtl.Reg(1), 0),
		"M[r[1]+4]=r[8];": rtl.NewStore(rtl.Reg(8), rtl.Reg(1), 4),
		"IC=r[1]?r[9];":   rtl.NewCmp(rtl.R(rtl.Reg(1)), rtl.R(rtl.Reg(9))),
		"PC=IC<0,L3;":     rtl.NewBranch(rtl.RelLT, 3),
		"PC=L7;":          rtl.NewJmp(7),
		"r[12]=HI[a];":    {Op: rtl.OpMovHi, Dst: rtl.Reg(12), Sym: "a"},
		"r[12]=r[12]+LO[a];": {
			Op: rtl.OpAddLo, Dst: rtl.Reg(12), A: rtl.R(rtl.Reg(12)), Sym: "a"},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestReplaceUsesRespectsOperandRoles(t *testing.T) {
	// A load base may be replaced by a register but never by an
	// immediate.
	ld := rtl.NewLoad(rtl.Reg(40), rtl.Reg(41), 8)
	if ld.ReplaceUses(rtl.Reg(41), rtl.Imm(5)) {
		t.Fatal("folded an immediate into a load base")
	}
	if !ld.ReplaceUses(rtl.Reg(41), rtl.R(rtl.Reg(42))) {
		t.Fatal("register substitution into load base failed")
	}
	// A return's r0 is pinned by the calling convention.
	ret := rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)}
	if ret.ReplaceUses(rtl.RegR0, rtl.R(rtl.Reg(40))) {
		t.Fatal("substituted the return register")
	}
}

func TestRelProperties(t *testing.T) {
	// Negate is an involution and flips Eval; Swap mirrors operand
	// exchange.
	rels := []rtl.Rel{rtl.RelEQ, rtl.RelNE, rtl.RelLT, rtl.RelLE, rtl.RelGT,
		rtl.RelGE, rtl.RelULT, rtl.RelULE, rtl.RelUGT, rtl.RelUGE}
	prop := func(a, b int32) bool {
		for _, r := range rels {
			if r.Negate().Negate() != r {
				return false
			}
			if r.Eval(a, b) == r.Negate().Eval(a, b) {
				return false
			}
			if r.Eval(a, b) != r.Swap().Eval(b, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegSetProperties(t *testing.T) {
	prop := func(xs []uint16, ys []uint16) bool {
		a := rtl.NewRegSet(64)
		b := rtl.NewRegSet(64)
		seen := map[rtl.Reg]bool{}
		for _, x := range xs {
			r := rtl.Reg(x % 2048)
			a.Add(r)
			seen[r] = true
		}
		for r := range seen {
			if !a.Has(r) {
				return false
			}
		}
		if a.Len() != len(seen) {
			return false
		}
		for _, y := range ys {
			b.Add(rtl.Reg(y % 2048))
		}
		u := a.Copy()
		u.UnionWith(b)
		ok := true
		b.ForEach(func(r rtl.Reg) {
			if !u.Has(r) {
				ok = false
			}
		})
		a.ForEach(func(r rtl.Reg) {
			if !u.Has(r) {
				ok = false
			}
		})
		// Removing everything from a empties it.
		for r := range seen {
			a.Remove(r)
		}
		return ok && a.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFuncStringContainsLabels(t *testing.T) {
	s := loopFunc().String()
	for _, frag := range []string{"L0:", "L1:", "PC=IC>=0,L3;", "RET r[0];"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("missing %q in:\n%s", frag, s)
		}
	}
}

func TestRetargetBranches(t *testing.T) {
	f := loopFunc()
	n := rtl.RetargetBranches(f, 1, 3)
	if n != 1 {
		t.Fatalf("retargeted %d instructions, want 1", n)
	}
	if f.Blocks[2].Last().Target != 3 {
		t.Fatal("jump not retargeted")
	}
}

// TestCFGOfBorrowsOnce pins the ownership rules of the analysis
// snapshot: only a clone of a sharing instance borrows, the borrow is
// a view bound to the clone over the owner's graph, it is consumed by
// the first request, and neither a clone of a clone nor a clone made
// after the owner dropped the snapshot has anything to borrow.
func TestCFGOfBorrowsOnce(t *testing.T) {
	var built, borrowed int
	rtl.Trace = func(ev rtl.Event, _ *rtl.CFG) {
		switch ev {
		case rtl.BuiltCFG:
			built++
		case rtl.Borrowed:
			borrowed++
		}
	}
	defer func() { rtl.Trace = nil }()
	events := func() (int, int) {
		b, w := built, borrowed
		built, borrowed = 0, 0
		return b, w
	}

	f := diamond()
	if g := rtl.CFGOf(f); g.F != f {
		t.Fatal("a function with nothing to borrow got someone else's graph")
	}
	if b, w := events(); b != 1 || w != 0 {
		t.Fatalf("unshared CFGOf: %d built, %d borrowed; want 1, 0", b, w)
	}

	f.ShareAnalyses()
	c1, c2 := f.Clone(), f.Clone()
	g1, g2 := rtl.CFGOf(c1), rtl.CFGOf(c2)
	if b, w := events(); b != 1 || w != 2 {
		t.Fatalf("two borrowers: %d built, %d borrowed; want the owner's graph built once, borrowed twice", b, w)
	}
	if g1.F != c1 || g2.F != c2 {
		t.Fatal("a borrowed view is not bound to its clone")
	}
	if &g1.Succs[0] != &g2.Succs[0] || g1.Liveness() != g2.Liveness() || &g1.Dominators()[0] != &g2.Dominators()[0] {
		t.Fatal("two views of one snapshot do not share edges and analyses")
	}
	// The view reads its own function: instruction rewrites made after
	// the look are seen through g.F, never through the owner.
	c1.Blocks[2].Instrs[0] = rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)}
	if g1.FallsThrough(2) || !g2.FallsThrough(2) {
		t.Fatal("FallsThrough did not read the clone the view is bound to")
	}

	rtl.CFGOf(c1)
	if b, w := events(); b != 1 || w != 0 {
		t.Fatalf("second request on a borrower: %d built, %d borrowed; want a fresh graph", b, w)
	}
	c3 := f.Clone()
	c3.DropAnalyses()
	rtl.CFGOf(c3)
	rtl.CFGOf(c2.Clone())
	if b, w := events(); b != 2 || w != 0 {
		t.Fatalf("dropped borrow and clone of a clone: %d built, %d borrowed; want 2, 0", b, w)
	}
	f.DropAnalyses()
	rtl.CFGOf(f.Clone())
	if b, w := events(); b != 1 || w != 0 {
		t.Fatalf("clone of a released owner: %d built, %d borrowed; want 1, 0", b, w)
	}
}

// TestSnapshotSharedByConcurrentBorrowers has many goroutines clone one
// sharing instance and ask for every analysis at once, the way a
// level's workers attempt one frontier node. Each analysis must come
// out the same object for all of them (computed once), and the race
// detector must stay quiet.
func TestSnapshotSharedByConcurrentBorrowers(t *testing.T) {
	f := loopFunc()
	f.ShareAnalyses()
	const borrowers = 16
	type seen struct {
		lv    *rtl.Liveness
		idom  *int
		loops *rtl.Loop
		reach *bool
		rpo   *int
	}
	got := make([]seen, borrowers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := f.Clone()
			g := rtl.CFGOf(c)
			got[i] = seen{g.Liveness(), &g.Dominators()[0], g.FindLoops()[0], &g.Reachable()[0], &g.RPO()[0]}
			// A borrower owns its clone: writing to it is no one else's
			// business.
			c.Blocks[0].Instrs[0] = rtl.NewMov(rtl.RegR1, rtl.Imm(int32(i)))
		}(i)
	}
	wg.Wait()
	for i := 1; i < borrowers; i++ {
		if got[i] != got[0] {
			t.Fatalf("borrower %d derived its own analyses: %+v vs %+v", i, got[i], got[0])
		}
	}
}
