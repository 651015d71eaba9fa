package search

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mibench"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// borrowProbe is a phase that requires register assignment, wrapped to
// report whether the clone it is applied to still borrows the analyses
// of the instance it was cloned from: a clone of the node's
// register-assigned form does; a clone that was register-assigned in
// its own attempt dropped the borrow first.
type borrowProbe struct {
	opt.Phase
	saw func(f *rtl.Func, borrowed bool)
}

func (p borrowProbe) Apply(f *rtl.Func, d *machine.Desc) bool {
	borrowed := false
	rtl.Trace = func(ev rtl.Event, g *rtl.CFG) { borrowed = borrowed || ev == rtl.Borrowed && g.F == f }
	rtl.CFGOf(f)
	rtl.Trace = nil
	p.saw(f, borrowed)
	return p.Phase.Apply(f, d)
}

// TestRegAssignOncePerLevel: at a frontier node not yet register
// assigned, the attempts whose phase requires the assignment clone one
// register-assigned form of the node, built once for the level, instead
// of each assigning a clone of its own — and the space is the one
// without the probe.
func TestRegAssignOncePerLevel(t *testing.T) {
	prog, err := mibench.ByName("stringsearch")
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := prog.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tf := compiled.Func("tolower_c")
	want := factsOf(t, Run(tf, Options{Workers: 1}))

	probes, unborrowed := 0, 0
	var phases []opt.Phase
	for _, p := range opt.All() {
		if p.RequiresRegAssign() {
			p = borrowProbe{p, func(f *rtl.Func, borrowed bool) {
				probes++
				if !borrowed {
					unborrowed++
				}
			}}
		}
		phases = append(phases, p)
	}
	e := newRun(tf, Options{Workers: 1, Phases: phases})
	unassigned, built := 0, 0
	e.levelDone = func() {
		for _, n := range e.frontier {
			if n.fn.RegAssigned {
				if n.ra != nil {
					t.Fatalf("node %q is register-assigned and has an assigned form", n.Seq)
				}
				continue
			}
			unassigned++
			if n.ra != nil && n.ra.fn != nil {
				built++
				if !n.ra.fn.RegAssigned {
					t.Fatalf("node %q: its assigned form is not register-assigned", n.Seq)
				}
			}
		}
	}
	if got := factsOf(t, e.run()); got != want {
		t.Fatalf("probed run %+v, want %+v", got, want)
	}
	if unassigned == 0 || built != unassigned {
		t.Fatalf("%d unassigned frontier nodes, %d assigned forms built; want one each", unassigned, built)
	}
	if probes < 2*unassigned || unborrowed != 0 {
		t.Fatalf("%d of %d attempts requiring register assignment assigned their own clone", unborrowed, probes)
	}
	t.Logf("%d unassigned frontier nodes, %d attempts requiring the assignment", unassigned, probes)
}
