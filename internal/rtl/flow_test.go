package rtl_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/mibench"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/rtl"
)

// checkLiveness requires the kernel's liveness of f — the solution
// ComputeLiveness allocates and the one a pooled LiveSolver returns —
// to equal the reference's, In and Out of every block, unreachable
// ones included. It returns the width of the sets in words.
func checkLiveness(t *testing.T, what string, f *rtl.Func) {
	t.Helper()
	g := rtl.ComputeCFG(f)
	want := rtl.ReferenceLiveness(g)
	ls := rtl.NewLiveSolver()
	defer ls.Release()
	for how, got := range map[string]*rtl.Liveness{"ComputeLiveness": rtl.ComputeLiveness(g), "LiveSolver.Solve": ls.Solve(g)} {
		if len(got.In) != len(f.Blocks) || len(got.Out) != len(f.Blocks) {
			t.Fatalf("%s: %s: %d in-sets and %d out-sets for %d blocks", what, how, len(got.In), len(got.Out), len(f.Blocks))
		}
		for b := range f.Blocks {
			if !got.In[b].Equal(want.In[b]) || !got.Out[b].Equal(want.Out[b]) {
				t.Fatalf("%s: %s: block %d (L%d): in %s out %s, the reference has in %s out %s\n%s", what, how, b, f.Blocks[b].ID,
					regs(got.In[b]), regs(got.Out[b]), regs(want.In[b]), regs(want.Out[b]), f)
			}
		}
	}
}

func regs(s rtl.RegSet) string {
	var out []rtl.Reg
	s.ForEach(func(r rtl.Reg) { out = append(out, r) })
	return fmt.Sprint(out)
}

// walkInstances walks a random sequence of active phases from f and
// shows visit every instance on the way, and the register-assigned form
// of those still over pseudo registers (the form the enumeration's
// dataflow phases see).
func walkInstances(t *testing.T, name string, f *rtl.Func, seed int64, depth int, visit func(what string, f *rtl.Func)) {
	t.Helper()
	d := machine.StrongARM()
	cur := f.Clone()
	rtl.Cleanup(cur)
	var st opt.State
	rng := rand.New(rand.NewSource(seed))
	seq := ""
	for step := 0; step <= depth; step++ {
		what := fmt.Sprintf("%s after %q", name, seq)
		visit(what, cur)
		if !cur.RegAssigned {
			assigned := cur.Clone()
			opt.RegAssign(assigned)
			visit(what+" (registers assigned)", assigned)
		}
		phases := opt.All()
		rng.Shuffle(len(phases), func(i, j int) { phases[i], phases[j] = phases[j], phases[i] })
		moved := false
		for _, p := range phases {
			next, nst := cur.Clone(), st
			if opt.Attempt(next, &nst, p, d) {
				cur, st, seq, moved = next, nst, seq+string(p.ID()), true
				break
			}
		}
		if !moved {
			return // a leaf of the space
		}
	}
}

func mustParse(t *testing.T, src string) *rtl.Func {
	t.Helper()
	f, err := rtl.ParseFunc(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLivenessMatchesReference holds liveness through the kernel to
// the hand-rolled analysis it replaced (live_ref_test.go), bit for bit:
// over the corpus (the benchmark's manifest functions among it) and
// generated programs under random phase walks, and on the shapes the
// conventions are about.
func TestLivenessMatchesReference(t *testing.T) {
	walks, depth, programs := 2, 14, 24
	if testing.Short() {
		walks, depth, programs = 1, 10, 8
	}
	t.Run("corpus", func(t *testing.T) {
		fns, err := mibench.AllFunctions()
		if err != nil {
			t.Fatal(err)
		}
		if len(fns) < 29 {
			t.Fatalf("the corpus has %d functions, the manifest 29", len(fns))
		}
		widest := rtl.Reg(0)
		for _, tf := range fns {
			widest = max(widest, tf.Func.NextPseudo)
			for w := 0; w < walks; w++ {
				walkInstances(t, tf.Bench+"/"+tf.Func.Name, tf.Func, int64(w), depth, func(what string, f *rtl.Func) { checkLiveness(t, what, f) })
			}
		}
		if widest < 128 {
			t.Errorf("the widest corpus function has %d registers: no three-word sets were compared", widest)
		}
	})
	t.Run("generated", func(t *testing.T) {
		for seed := int64(0); seed < int64(programs); seed++ {
			p := randprog.New(seed, randprog.Config{})
			prog, err := mc.Compile(p.Source)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for w := 0; w < walks; w++ {
				walkInstances(t, fmt.Sprintf("randprog seed %d", seed), prog.Func(p.Entry), seed+int64(w)<<32, depth,
					func(what string, f *rtl.Func) { checkLiveness(t, what, f) })
			}
		}
	})
	t.Run("wide", func(t *testing.T) {
		// A counted loop over n pseudo registers, each defined from its
		// neighbour before the loop and summed inside it: sets of two
		// and of three words, live across a back edge.
		for _, n := range []int{70, 140} {
			f := rtl.NewFunc("wide", 1, true)
			head, body, exit := f.Entry(), f.AddBlock(), f.AddBlock()
			first := f.NewReg()
			head.Instrs = append(head.Instrs, rtl.NewMov(first, rtl.R(rtl.RegR0)))
			prev := first
			for i := 1; i < n; i++ {
				r := f.NewReg()
				head.Instrs = append(head.Instrs, rtl.NewALU(rtl.OpAdd, r, rtl.R(prev), rtl.Imm(int32(i))))
				prev = r
			}
			for r := first + 1; r < f.NextPseudo; r += 3 {
				body.Instrs = append(body.Instrs, rtl.NewALU(rtl.OpAdd, first, rtl.R(first), rtl.R(r)))
			}
			body.Instrs = append(body.Instrs, rtl.NewCmp(rtl.R(first), rtl.Imm(1000)), rtl.NewBranch(rtl.RelLT, body.ID))
			exit.Instrs = append(exit.Instrs, rtl.NewMov(rtl.RegR0, rtl.R(prev)), rtl.Instr{Op: rtl.OpRet, A: rtl.R(rtl.RegR0)})
			if int(f.NextPseudo) < 32+n {
				t.Fatalf("%d registers, want %d", f.NextPseudo, 32+n)
			}
			checkLiveness(t, fmt.Sprintf("%d pseudo registers", n), f)
		}
	})
	t.Run("shapes", func(t *testing.T) {
		for name, src := range map[string]string{
			// No block returns: nothing seeds the boundary, the uses alone
			// make r[32] and r[0] live round the loop.
			"ret-less loop": "spin(1):\nL0:\n\tr[32]=r[0];\nL1:\n\tr[32]=r[32]+r[0];\n\tPC=L1;\n",
			// L1 and the L3/L4 cycle are unreachable; L1 jumps into live code.
			"unreachable": "dead(1):\nL0:\n\tr[32]=r[0];\n\tPC=L2;\nL1:\n\tr[33]=r[32]+1;\n\tPC=L2;\nL2:\n\tr[0]=r[32];\n\tRET r[0];\nL3:\n\tr[34]=r[34]+r[1];\nL4:\n\tIC=r[34]?0;\n\tPC=IC<0,L3;\n\tPC=L3;\n",
			"self-loop":   "self(1):\nL0:\n\tr[32]=0;\nL1:\n\tr[32]=r[32]+1;\n\tIC=r[32]?r[0];\n\tPC=IC<0,L1;\nL2:\n\tRET;\n",
			"single":      "one(0):\nL0:\n\tr[32]=1;\n\tRET;\n",
			"falls off":   "off(1):\nL0:\n\tr[32]=r[0];\n",
		} {
			checkLiveness(t, name, mustParse(t, src))
		}
	})
	t.Run("boundary", func(t *testing.T) {
		// At a return the stack pointer is live and nothing else: not the
		// callee-save register the function has just written (the
		// entry/exit fix-up that preserves it runs after the last phase),
		// so h may delete that write.
		f := mustParse(t, "cs(0):\nL0:\n\tr[4]=7;\n\tRET;\n")
		checkLiveness(t, "callee-save write", f)
		lv := rtl.ComputeLiveness(rtl.ComputeCFG(f))
		if got := regs(lv.Out[0]); got != fmt.Sprint([]rtl.Reg{rtl.RegSP}) {
			t.Fatalf("live out of the returning block: %s, want the stack pointer alone", got)
		}
		if !(opt.DeadAssignElim{}).Apply(f, machine.StrongARM()) || len(f.Entry().Instrs) != 1 {
			t.Fatalf("h kept a callee-save write nothing reads:\n%s", f)
		}
	})
}

// flowGraph builds a function of n blocks whose terminators are drawn
// at random — fall-through, jump, branch or return, to any block, itself
// included — so that its graph has unreachable blocks, self-loops and
// loops with several entries.
func flowGraph(rng *rand.Rand, n int) *rtl.Func {
	f := rtl.NewFunc("flow", 0, false)
	for len(f.Blocks) < n {
		f.AddBlock()
	}
	for i, b := range f.Blocks {
		b.Instrs = append(b.Instrs, rtl.Instr{Op: rtl.OpNop})
		switch k := rng.Intn(5); {
		case i == n-1 && k < 3, k == 0:
			b.Instrs = append(b.Instrs, rtl.Instr{Op: rtl.OpRet})
		case k == 1:
			b.Instrs = append(b.Instrs, rtl.NewJmp(rng.Intn(n)))
		case k == 2:
			b.Instrs = append(b.Instrs, rtl.NewBranch(rtl.RelLT, rng.Intn(n)))
		}
	}
	return f
}

// roundRobin solves the gen/kill problem the slow way: every sweep
// visits every block, in layout order, until a sweep changes nothing.
// The conventions are the kernel's — a neighbour without a state yet is
// left out of the meet, a block waits for one unless the meet is union,
// boundary blocks start from the boundary state, blocks outside only
// are never entered — and the states are laid out as the kernel's.
func roundRobin(g *rtl.CFG, backward, must bool, w int, gen, kill, boundary []uint64, only []bool) []uint64 {
	n := len(g.Succs)
	state := make([]uint64, (2*n+1)*w)
	at := func(i int) []uint64 { return state[i*w : (i+1)*w] }
	from, inAt, outAt := g.Preds, 0, n
	if backward {
		from, inAt, outAt = g.Succs, n, 0
	}
	done := make([]bool, n)
	for changed := true; changed; {
		changed = false
		for b := 0; b < n; b++ {
			if only != nil && !only[b] {
				continue
			}
			in := make([]uint64, w)
			if len(from[b]) == 0 || b == 0 && !backward {
				copy(in, boundary)
			} else {
				have := false
				for _, p := range from[b] {
					if !done[p] {
						continue
					}
					for i, m := range at(outAt + p) {
						switch {
						case !have:
							in[i] = m
						case must:
							in[i] &= m
						default:
							in[i] |= m
						}
					}
					have = true
				}
				if !have && must {
					continue
				}
			}
			copy(at(inAt+b), in)
			for i := range in {
				in[i] = gen[b*w+i] | in[i]&^kill[b*w+i]
			}
			if !done[b] || !slices.Equal(in, at(outAt+b)) {
				copy(at(outAt+b), in)
				done[b], changed = true, true
			}
		}
	}
	return state[:2*n*w]
}

// TestFlowKernelMatchesRoundRobin runs forward-intersection and
// backward-union gen/kill problems through the kernel on generated
// graphs — unreachable blocks, irreducible loops, self-loops, a single
// block — and requires every state of every block to be what a naive
// visit-every-block solver computes: the order of visits and the
// moved-blocks-only sweep change nothing.
func TestFlowKernelMatchesRoundRobin(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := map[string]int{}
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(12)
		if trial < 8 {
			n = 1
		}
		f := flowGraph(rng, n)
		g := rtl.ComputeCFG(f)
		reach := g.Reachable()
		if slices.Contains(reach, false) {
			shapes["unreachable"]++
		}
		for b, succs := range g.Succs {
			if slices.Contains(succs, b) {
				shapes["self-loop"]++
			}
			// A back edge into a block that does not dominate its source:
			// a loop with a second way in.
			for _, s := range succs {
				if reach[b] && slices.Index(g.RPO(), s) <= slices.Index(g.RPO(), b) && !g.Dominates(s, b) {
					shapes["irreducible"]++
				}
			}
		}
		w := 1 + rng.Intn(3)
		gen, kill, boundary := make([]uint64, n*w), make([]uint64, n*w), make([]uint64, w)
		for i := range gen {
			gen[i], kill[i] = rng.Uint64()&rng.Uint64(), rng.Uint64()&rng.Uint64()
		}
		for i := range boundary {
			boundary[i] = rng.Uint64()
		}
		for _, backward := range []bool{false, true} {
			for _, must := range []bool{false, true} {
				for _, only := range [][]bool{nil, reach} {
					fl := rtl.Flow{
						Backward: backward,
						Words:    w,
						State:    make([]uint64, (2*n+1)*w),
						Marks:    make([]bool, 2*n),
						Only:     only,
						Boundary: func(_ int, s []uint64) { copy(s, boundary) },
						Transfer: func(b int, s []uint64) { rtl.GenKill(s, gen[b*w:(b+1)*w], kill[b*w:(b+1)*w]) },
					}
					if must {
						fl.Meet = rtl.Intersect
					}
					g.Solve(&fl)
					want := roundRobin(g, backward, must, w, gen, kill, boundary, only)
					if got := fl.State[:2*n*w]; !slices.Equal(got, want) {
						t.Fatalf("trial %d (backward=%v must=%v only=%v, %d words): states\n%x\nround-robin\n%x\n%s", trial, backward, must, only != nil, w, got, want, f)
					}
				}
			}
		}
	}
	for _, shape := range []string{"unreachable", "self-loop", "irreducible"} {
		if shapes[shape] == 0 {
			t.Errorf("no generated graph had the shape %q", shape)
		}
	}
}

// TestUsedRegsMatchesScan: the register set UsedRegs returns holds
// exactly the registers a scan of the instructions meets.
func TestUsedRegsMatchesScan(t *testing.T) {
	fns, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range fns {
		walkInstances(t, tf.Bench+"/"+tf.Func.Name, tf.Func, 3, 4, func(what string, f *rtl.Func) {
			want := map[rtl.Reg]bool{}
			var buf [8]rtl.Reg
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					for _, r := range b.Instrs[i].Defs(buf[:0]) {
						want[r] = true
					}
					for _, r := range b.Instrs[i].Uses(buf[:0]) {
						want[r] = true
					}
				}
			}
			got := f.UsedRegs()
			if got.Len() != len(want) {
				t.Fatalf("%s: UsedRegs holds %s, a scan finds %d registers", what, regs(got), len(want))
			}
			for r := range want {
				if !got.Has(r) {
					t.Fatalf("%s: UsedRegs lacks %s", what, r)
				}
			}
		})
	}
}

// TestLoopMembershipMatchesMaps rebuilds every natural loop of the
// corpus under walks with map-based sets, the way FindLoops did before
// Loop.Blocks became a bit set, and requires the same loops in the same
// order with the same members, tails, depths and exits.
func TestLoopMembershipMatchesMaps(t *testing.T) {
	fns, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	loops := 0
	for _, tf := range fns {
		walkInstances(t, tf.Bench+"/"+tf.Func.Name, tf.Func, 5, 8, func(what string, f *rtl.Func) {
			g := rtl.ComputeCFG(f)
			reach := g.Reachable()
			members := map[int]map[int]bool{} // header -> body
			tails := map[int][]int{}
			for tail := range g.Succs {
				if !reach[tail] {
					continue
				}
				for _, h := range g.Succs[tail] {
					if !g.Dominates(h, tail) {
						continue
					}
					if members[h] == nil {
						members[h] = map[int]bool{h: true}
					}
					tails[h] = append(tails[h], tail)
					for stack := []int{tail}; len(stack) > 0; {
						b := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						if members[h][b] {
							continue
						}
						members[h][b] = true
						for _, p := range g.Preds[b] {
							if reach[p] {
								stack = append(stack, p)
							}
						}
					}
				}
			}
			got := g.FindLoops()
			if len(got) != len(members) {
				t.Fatalf("%s: %d loops, the map-based search finds %d", what, len(got), len(members))
			}
			for i, l := range got {
				loops++
				body := members[l.Header]
				if body == nil {
					t.Fatalf("%s: loop at header %d is not one", what, l.Header)
				}
				depth := 1
				for h, other := range members {
					if h == l.Header || len(other) <= len(body) {
						continue
					}
					inside := true
					for b := range body {
						inside = inside && other[b]
					}
					if inside {
						depth++
					}
				}
				var exits []int
				for b := range f.Blocks {
					if l.Contains(b) != body[b] {
						t.Fatalf("%s: loop %d: Contains(%d) = %v, the map says %v", what, l.Header, b, l.Contains(b), body[b])
					}
					if body[b] && slices.ContainsFunc(g.Succs[b], func(s int) bool { return !body[s] }) {
						exits = append(exits, b)
					}
				}
				if l.Blocks.Len() != len(body) || l.Depth != depth || !slices.Equal(l.Tails, tails[l.Header]) || !slices.Equal(l.Exits(g), exits) {
					t.Fatalf("%s: loop %d: %d members depth %d tails %v exits %v, want %d, %d, %v, %v", what, l.Header,
						l.Blocks.Len(), l.Depth, l.Tails, l.Exits(g), len(body), depth, tails[l.Header], exits)
				}
				if i > 0 && (got[i-1].Depth < l.Depth || got[i-1].Depth == l.Depth && got[i-1].Header >= l.Header) {
					t.Fatalf("%s: loops out of order: (depth %d, header %d) before (%d, %d)", what, got[i-1].Depth, got[i-1].Header, l.Depth, l.Header)
				}
			}
		})
	}
	if loops == 0 {
		t.Fatal("no loop was compared")
	}
}
