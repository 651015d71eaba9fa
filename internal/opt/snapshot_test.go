package opt_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/telemetry"
)

// traceEvents counts what rtl.Trace reports until the test ends; take
// returns the counts since the last take. The tests using it are
// serial.
type traceEvents struct{ cfgs, liveness, borrows int }

func countAnalyses(t *testing.T) *traceEvents {
	ev := &traceEvents{}
	rtl.Trace = func(e rtl.Event, _ *rtl.CFG) {
		switch e {
		case rtl.BuiltCFG:
			ev.cfgs++
		case rtl.BuiltLiveness:
			ev.liveness++
		case rtl.Borrowed:
			ev.borrows++
		}
	}
	t.Cleanup(func() { rtl.Trace = nil })
	return ev
}

func (ev *traceEvents) take() traceEvents {
	got := *ev
	*ev = traceEvents{}
	return got
}

// TestBorrowingAttemptEqualsPlain walks random active sequences over
// the differential corpus and, at every instance on the way, attempts
// every phase twice: on a plain clone, and on a clone that borrows the
// instance's analysis snapshot the way the enumeration's clones do.
// The two must agree on active/dormant and on the code — the snapshot
// is a cache, never a second evaluation — and along the way the
// ownership rules must hold: at most one borrow per attempt, none left
// on the clone afterwards, the owner untouched. An active c must also
// be dormant when repeated at once, at any depth of the walk (the
// sub-pass fixpoint stops at the first proof, not after a full round).
func TestBorrowingAttemptEqualsPlain(t *testing.T) {
	d := machine.StrongARM()
	ev := countAnalyses(t)
	for _, tc := range diffCorpus {
		cur := mustCompile(t, tc.src).Func(tc.fn).Clone()
		rtl.Cleanup(cur)
		var st opt.State
		rng := rand.New(rand.NewSource(18))
		for depth := 0; depth < 24; depth++ {
			before := cur.String()
			cur.ShareAnalyses()
			type child struct {
				f  *rtl.Func
				st opt.State
			}
			var active []child
			for _, p := range opt.All() {
				if !opt.Enabled(p, st) {
					continue // the enumeration never attempts these
				}
				borrower := cur.Clone()
				plain := cur.Clone()
				plain.DropAnalyses()
				stPlain, stBorrower := st, st
				wantActive := opt.Attempt(plain, &stPlain, p, d)
				ev.take()
				gotActive := opt.Attempt(borrower, &stBorrower, p, d)
				if n := ev.take().borrows; n > 1 {
					t.Fatalf("%s: %c borrowed %d times in one attempt", tc.name, p.ID(), n)
				}
				if gotActive != wantActive || stBorrower != stPlain || borrower.String() != plain.String() {
					t.Fatalf("%s: %c on a borrowing clone: active=%v\n%s\non a plain clone: active=%v\n%s\nfrom:\n%s",
						tc.name, p.ID(), gotActive, borrower, wantActive, plain, before)
				}
				rtl.CFGOf(borrower)
				if ev.take().borrows != 0 {
					t.Fatalf("%s: a borrow survived the attempt of %c", tc.name, p.ID())
				}
				if !gotActive {
					continue
				}
				active = append(active, child{borrower, stBorrower})
				if p.ID() == 'c' {
					again := borrower.Clone()
					if stAgain := stBorrower; opt.Attempt(again, &stAgain, p, d) || again.String() != borrower.String() {
						t.Fatalf("%s: c active twice in a row:\n%s\nthen:\n%s", tc.name, borrower, again)
					}
				}
			}
			cur.DropAnalyses()
			if cur.String() != before {
				t.Fatalf("%s: attempts on clones changed the shared instance:\n%s\nwas:\n%s", tc.name, cur, before)
			}
			if len(active) == 0 {
				break
			}
			next := active[rng.Intn(len(active))]
			cur, st = next.f, next.st
		}
	}
}

// TestBorrowDroppedBeforeEarlyMutation covers the two places that
// modify a clone before its first request for a graph — the implicit
// register assignment, and b retargeting a jump chain ahead of its
// unreachable-code sweep: neither may look at the parent's analyses
// afterwards. s, which used to be the third, now looks first: it
// borrows the graph for its edges (no combination changes one) and,
// having deleted an identity move, solves liveness again rather than
// read the parent's.
func TestBorrowDroppedBeforeEarlyMutation(t *testing.T) {
	d := machine.StrongARM()
	ev := countAnalyses(t)
	attempt := func(f *rtl.Func, id byte) traceEvents {
		f.ShareAnalyses()
		defer f.DropAnalyses()
		c := f.Clone()
		st := opt.State{RegAssigned: f.RegAssigned}
		ev.take()
		if !opt.Attempt(c, &st, opt.ByID(id), d) {
			t.Fatalf("%c dormant on\n%s", id, f)
		}
		return ev.take()
	}

	unassigned := rtl.NewFunc("pseudo", 1, true)
	p, q := unassigned.NewReg(), unassigned.NewReg()
	unassigned.Entry().Instrs = append(unassigned.Entry().Instrs,
		rtl.NewMov(p, rtl.R(rtl.RegR0)),
		rtl.NewMov(q, rtl.Imm(7)), // dead
		rtl.NewMov(rtl.RegR0, rtl.R(p)),
		rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
	if n := attempt(unassigned, 'h').borrows; n != 0 {
		t.Errorf("h borrowed %d graphs of the code as it stood before register assignment", n)
	}

	identity := newAssigned("identity")
	identity.Entry().Instrs = append(identity.Entry().Instrs,
		rtl.NewMov(rtl.RegR1, rtl.Imm(5)),
		rtl.NewMov(rtl.RegR1, rtl.R(rtl.RegR1)),
		rtl.NewMov(rtl.RegR0, rtl.R(rtl.RegR1)),
		ret())
	if got := attempt(identity, 's'); got.borrows != 1 || got.liveness != 1 {
		t.Errorf("s derived %+v around deleting an identity move, want one borrowed graph and one liveness solution of the clone", got)
	}

	chain := rtl.NewFunc("chain", 1, false)
	chain.RegAssigned = true
	j1, j2, end := chain.AddBlock(), chain.AddBlock(), chain.AddBlock()
	chain.Entry().Instrs = append(chain.Entry().Instrs,
		rtl.NewCmp(rtl.R(rtl.RegR0), rtl.Imm(0)),
		rtl.NewBranch(rtl.RelEQ, j1.ID))
	j1.Instrs = append(j1.Instrs, rtl.NewJmp(j2.ID))
	j2.Instrs = append(j2.Instrs, rtl.NewJmp(end.ID))
	end.Instrs = append(end.Instrs, ret())
	if n := attempt(chain, 'b').borrows; n != 0 {
		t.Errorf("b borrowed %d graphs after retargeting", n)
	}
}

// TestStrengthReductionLooksBeforeItAnalyses: q's first test is "is
// there a multiply"; without one it derives nothing at all.
func TestStrengthReductionLooksBeforeItAnalyses(t *testing.T) {
	f := newAssigned("nomul")
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR0), rtl.Imm(3)),
		ret())
	ev := countAnalyses(t)
	if (opt.StrengthReduction{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("q active without a multiply:\n%s", f)
	}
	if got := ev.take(); got != (traceEvents{}) {
		t.Fatalf("q derived %+v on a function without a multiply", got)
	}
}

// TestStrengthReductionKeepsItsGraph: q changes no edge, so one graph
// serves all its rewrites; it changes liveness, so each search after a
// rewrite solves it again. Here the first rewrite — a multiply by zero
// in the second block — ends r1's use there, and only a fresh solution
// lets the second search take r1 as the scratch the first block's
// multiply by 6 needs.
func TestStrengthReductionKeepsItsGraph(t *testing.T) {
	f := newAssigned("twomul")
	next := f.AddBlock()
	f.Entry().Instrs = append(f.Entry().Instrs,
		rtl.NewMov(rtl.RegR1, rtl.Imm(6)),
		rtl.NewALU(rtl.OpMul, rtl.RegR2, rtl.R(rtl.RegR0), rtl.R(rtl.RegR1)))
	next.Instrs = append(next.Instrs,
		rtl.NewMov(rtl.RegR4, rtl.Imm(0)),
		rtl.NewALU(rtl.OpMul, rtl.RegR3, rtl.R(rtl.RegR1), rtl.R(rtl.RegR4)),
		rtl.NewALU(rtl.OpAdd, rtl.RegR0, rtl.R(rtl.RegR2), rtl.R(rtl.RegR3)),
		ret())
	ev := countAnalyses(t)
	if !(opt.StrengthReduction{}).Apply(f, machine.StrongARM()) {
		t.Fatalf("q dormant on\n%s", f)
	}
	if strings.Contains(f.String(), "*") {
		t.Fatalf("a multiply is left:\n%s", f)
	}
	if got, want := ev.take(), (traceEvents{cfgs: 1, liveness: 2}); got != want {
		t.Fatalf("q derived %+v over two rewrites, want %+v", got, want)
	}
}

// TestPhaseMetricsSplitDormantCost: every attempt lands in the phase's
// duration histogram, the dormant ones in the dormant histogram too,
// so the active side is the difference — the split phasestats prints.
func TestPhaseMetricsSplitDormantCost(t *testing.T) {
	reg := telemetry.NewRegistry()
	opt.Metrics = opt.NewPhaseMetrics(reg)
	defer func() { opt.Metrics = nil }()

	d := machine.StrongARM()
	f := mustCompile(t, diffCorpus[0].src).Func(diffCorpus[0].fn)
	var st opt.State
	active, dormant := 0, 0
	for _, id := range "shshuu" {
		if opt.Attempt(f, &st, opt.ByID(byte(id)), d) {
			active++
		} else {
			dormant++
		}
	}
	if active == 0 || dormant == 0 {
		t.Fatalf("the sequence gave %d active and %d dormant attempts, need both", active, dormant)
	}
	snap := reg.Snapshot()
	var all, idle int64
	for _, id := range "shu" {
		h := snap.Histograms["opt.phase."+string(id)+".duration_ns"]
		hd := snap.Histograms["opt.phase."+string(id)+".dormant.duration_ns"]
		if want := snap.Counters["opt.attempt."+string(id)+".dormant"]; hd.Count != want {
			t.Errorf("%c: %d dormant durations for %d dormant attempts", id, hd.Count, want)
		}
		if hd.Count > h.Count || hd.Sum > h.Sum {
			t.Errorf("%c: dormant side (%d, %dns) exceeds the whole (%d, %dns)", id, hd.Count, hd.Sum, h.Count, h.Sum)
		}
		all, idle = all+h.Count, idle+hd.Count
	}
	if all != int64(active+dormant) || idle != int64(dormant) {
		t.Errorf("histograms hold %d attempts, %d dormant; ran %d, %d dormant", all, idle, active+dormant, dormant)
	}
}
