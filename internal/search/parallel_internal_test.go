package search

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/rtl"
)

// TestOutcomeRingClearsSlots is the regression test for the outcome
// retention bug: the old level loop reused an outcomes slice across
// chunks and only cleared the prefix, so a quarantined-chunk abort
// could pin dead *rtl.Func clones (and their fingerprint buffers) for
// the rest of the level. The ring's contract is that consuming a slot
// clears it: after take, no pointer to the clone, buffer, equivalence
// encoding or pending entry may remain reachable from the ring. The
// attempt numbers are run-wide, as the engine's are: this one sits in
// some later level, three laps and a bit into the run.
func TestOutcomeRingClearsSlots(t *testing.T) {
	r := newOutcomeRing()
	fn := &rtl.Func{Name: "retained"}
	buf := fingerprint.GetBuffer()
	defer fingerprint.PutBuffer(buf)
	pend := &pendingNode{key: "k", id: -1}

	const i = int64(3*ringSize + 5)
	r.put(i, outcome{active: true, fn: fn, buf: buf, equiv: []byte{1}, pend: pend})
	if !r.ready(i) {
		t.Fatal("published outcome not ready")
	}
	o := r.take(i)
	if o.fn != fn || o.buf != buf || o.pend != pend {
		t.Fatal("take returned a different outcome than was published")
	}
	s := &r.slots[i&(ringSize-1)]
	if s.o.fn != nil || s.o.buf != nil || s.o.equiv != nil || s.o.pend != nil || s.o.active {
		t.Fatal("ring slot retains outcome pointers after take")
	}

	// Slot reuse one lap later: the stale seq from the lap before must
	// not make the next occupant look published before its put.
	if r.ready(i + ringSize) {
		t.Fatal("slot reads ready for the next lap before publication")
	}
	r.put(i+ringSize, outcome{active: true, fn: fn})
	if !r.ready(i + ringSize) {
		t.Fatal("next-lap outcome not ready after put")
	}
	if got := r.take(i + ringSize); got.fn != fn {
		t.Fatal("next-lap take returned the wrong outcome")
	}
}

// levelSizes are the work sizes the ring's edges sit at: one attempt, a
// wake-up batch give or take one, a full window give or take one, and
// two laps and a bit.
var levelSizes = []int{1, wakeBatch - 1, wakeBatch, wakeBatch + 1, ringSize - 1, ringSize + 1, 2*ringSize + 1}

// TestOutcomeRingMarksNeverRepeatAcrossLevels is the reason slots are
// addressed by run-wide attempt numbers now that one ring serves every
// level: a level of n attempts leaves its publication marks behind, and
// none of them may read as a publication of the level of m attempts
// that follows. (Numbered per level, attempt 0 of the second level would
// find attempt 0 of the first one's mark and commit a zeroed slot.)
func TestOutcomeRingMarksNeverRepeatAcrossLevels(t *testing.T) {
	for _, n := range levelSizes {
		for _, m := range levelSizes {
			r := newOutcomeRing()
			base := int64(0)
			for _, size := range []int{n, m} {
				for i := int64(0); i < int64(size); i++ {
					if r.ready(base + i) {
						t.Fatalf("levels of %d then %d attempts: attempt %d of the level of %d reads published before its put", n, m, i, size)
					}
					r.put(base+i, outcome{active: true})
					if !r.ready(base+i) || !r.take(base+i).active {
						t.Fatalf("levels of %d then %d attempts: attempt %d of the level of %d lost", n, m, i, size)
					}
				}
				base += int64(size)
			}
		}
	}
}

// ringPhase is a synthetic phase for driving runLevel with work lists
// of exact sizes: it sleeps, calls its hook, and is active (it prepends
// a no-op, the same one every time, so all its children are one
// instance) or dormant as told. Its ID gates nothing.
type ringPhase struct {
	sleep  time.Duration
	hook   func()
	active bool
}

func (ringPhase) ID() byte                { return 'z' }
func (ringPhase) Name() string            { return "ring test phase" }
func (ringPhase) RequiresRegAssign() bool { return false }
func (p ringPhase) Apply(f *rtl.Func, _ *machine.Desc) bool {
	time.Sleep(p.sleep)
	if p.hook != nil {
		p.hook()
	}
	if p.active {
		f.Entry().Insert(0, rtl.Instr{Op: rtl.OpNop})
	}
	return p.active
}

// ringEngine seeds an engine on a one-instruction function and returns
// it with its root, the node every synthetic attempt is made at.
func ringEngine(workers int, ctx context.Context) (*engine, *Node) {
	f := rtl.NewFunc("ring", 0, false)
	f.Entry().Instrs = append(f.Entry().Instrs, rtl.Instr{Op: rtl.OpRet})
	e := newRun(f, Options{Workers: workers, Ctx: ctx}, nil)
	e.done = ctx.Done()
	return e, e.frontier[0]
}

// runLevelOrStall runs one level of work through the live evaluator and
// fails the test if the committer never finishes.
func runLevelOrStall(t *testing.T, e *engine, work []attempt, what string) {
	t.Helper()
	finished := make(chan error, 1)
	go func() { finished <- e.runLevel(work) }()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s: the level never finished — a published outcome the committer was not told of, or a worker stranded at the window", what)
	}
}

// TestCommitterLivenessUnderBatching: workers tell the committer of
// their outcomes once per wakeBatch, before they block on the window
// and as they leave the level, and that has to be enough for every
// outcome to be committed at every worker count and work size —
// including when one attempt, the first or the last, is slow, so that
// everyone else has published and left (or is parked at the window)
// long before it. Each engine runs two such levels through its one
// ring.
func TestCommitterLivenessUnderBatching(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		for _, n := range levelSizes {
			for _, slow := range []int{0, n - 1} {
				what := fmt.Sprintf("workers=%d, %d attempts, attempt %d slow", workers, n, slow)
				e, root := ringEngine(workers, context.Background())
				wantEdges := 0
				for level := 0; level < 2; level++ {
					work := make([]attempt, n)
					for i := range work {
						p := ringPhase{active: i%3 == 0}
						if i == slow {
							p.sleep = 5 * time.Millisecond
						}
						if p.active {
							wantEdges++
						}
						work[i] = attempt{root, p}
					}
					ring := e.ring
					runLevelOrStall(t, e, work, what)
					if e.res.Aborted {
						t.Fatalf("%s: aborted: %s", what, e.res.AbortReason)
					}
					if len(root.Edges) != wantEdges {
						t.Fatalf("%s: %d active outcomes committed after level %d, want %d", what, len(root.Edges), level, wantEdges)
					}
					if level == 1 && e.ring != ring {
						t.Fatalf("%s: the second level got a ring of its own", what)
					}
				}
				if e.ringBase != int64(2*n) {
					t.Fatalf("%s: ringBase %d after two levels of %d", what, e.ringBase, n)
				}
			}
		}
	}
}

// TestCanceledLevelDrainsTheRing cancels a level half way through: the
// level must still return (workers that leave early announce what they
// had published), the result must be aborted, and every outcome that
// was published but never committed must have been drained — its clone
// and fingerprint buffer handed back to their pools — which shows as a
// ring with no outcome left in any slot.
func TestCanceledLevelDrainsTheRing(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		for _, n := range levelSizes[1:] {
			what := fmt.Sprintf("workers=%d, %d attempts", workers, n)
			ctx, cancel := context.WithCancel(context.Background())
			e, root := ringEngine(workers, ctx)
			work := make([]attempt, n)
			for i := range work {
				work[i] = attempt{root, ringPhase{active: true}}
			}
			// The first attempt holds the committer back while the
			// others publish; the one in the middle pulls the plug.
			work[0].phase = ringPhase{active: true, sleep: 5 * time.Millisecond}
			work[n/2].phase = ringPhase{active: true, hook: cancel}
			runLevelOrStall(t, e, work, what)
			cancel()
			if !e.res.Aborted {
				t.Fatalf("%s: a level canceled half way was not aborted", what)
			}
			for i := range e.ring.slots {
				if o := &e.ring.slots[i].o; o.fn != nil || o.buf != nil || o.pend != nil || o.active {
					t.Fatalf("%s: slot %d still holds an outcome after the aborted level", what, i)
				}
			}
		}
	}
}

// TestStripedIndexForcedCollisionConcurrent drives the striped index
// the way a level's worker pool does, with manufactured fingerprint
// collisions so every key lands in one stripe's one bucket — the
// worst case for both the second-tier byte compare and the stripe
// lock. Several goroutines concurrently resolve a mix of committed
// keys (must return the committed ID) and fresh keys (all resolvers
// of one key must converge on a single pending entry); the serial
// commit + promote then files the survivors, including one entry
// committed as an equivalence alias, and the committed tiers must
// resolve every spelling afterwards.
func TestStripedIndexForcedCollisionConcurrent(t *testing.T) {
	ks := newKeyStore()
	d := newDedupIndex(ks)
	const flags = byte(0x05)
	fp := fingerprint.FP{Count: 7, ByteSum: 4242, CRC: 0xFEEDBEEF}

	committedKeys := [][]byte{
		[]byte("committed-instance-0"),
		[]byte("committed-instance-1"),
	}
	for i, k := range committedKeys {
		ks.put(i, string(flags)+string(k))
		d.insert(flags, fp, i)
	}
	freshKeys := make([][]byte, 8)
	for j := range freshKeys {
		freshKeys[j] = []byte(fmt.Sprintf("fresh-instance-%d", j))
	}

	const workers = 8
	pends := make([][]*pendingNode, len(freshKeys))
	for j := range pends {
		pends[j] = make([]*pendingNode, workers)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, k := range committedKeys {
				dup, pend := d.resolve(flags, fp, k)
				if pend != nil || dup != int32(i) {
					t.Errorf("worker %d: resolve(committed %d) = (%d, %v); want (%d, nil)", w, i, dup, pend, i)
				}
			}
			// Walk the fresh keys in a per-worker order so entry
			// creations and re-probes of the same key interleave.
			for off := 0; off < len(freshKeys); off++ {
				j := (off + w) % len(freshKeys)
				dup, pend := d.resolve(flags, fp, freshKeys[j])
				if pend == nil {
					t.Errorf("worker %d: resolve(fresh %d) returned committed id %d", w, j, dup)
					continue
				}
				pends[j][w] = pend
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every resolver of one key must have been handed the same pending
	// entry — two entries for one key would split a node in two.
	for j := range pends {
		for w := 1; w < workers; w++ {
			if pends[j][w] != pends[j][0] {
				t.Fatalf("fresh key %d: workers 0 and %d hold distinct pending entries", j, w)
			}
		}
	}

	// Serial commit in "attempt order": the first fresh key folds into
	// committed node 0 as an equivalence alias, the rest become nodes.
	nextID := int32(len(committedKeys))
	aliased := pends[0][0]
	aliased.id, aliased.alias = 0, true
	for j := 1; j < len(freshKeys); j++ {
		p := pends[j][0]
		ks.put(int(nextID), p.key)
		p.id = nextID
		nextID++
	}
	d.promote()

	if id, ok := d.lookup(flags, fp, freshKeys[0]); !ok || id != 0 {
		t.Fatalf("aliased spelling resolves to (%d, %v); want the class node (0, true)", id, ok)
	}
	for j := 1; j < len(freshKeys); j++ {
		want := len(committedKeys) + j - 1
		if id, ok := d.lookup(flags, fp, freshKeys[j]); !ok || id != want {
			t.Fatalf("promoted key %d resolves to (%d, %v); want (%d, true)", j, id, ok, want)
		}
	}
	for i, k := range committedKeys {
		if id, ok := d.lookup(flags, fp, k); !ok || id != i {
			t.Fatalf("committed key %d resolves to (%d, %v) after promote", i, id, ok)
		}
	}

	// Counter sanity: every probe hit the same stripe, the forced
	// collisions showed up, and no second pending generation remains.
	c := d.counters()
	wantProbes := int64(workers*(len(committedKeys)+len(freshKeys)) + /* post-promote lookups */ len(freshKeys) + len(committedKeys))
	if c.probes != wantProbes {
		t.Errorf("probes = %d; want %d", c.probes, wantProbes)
	}
	if c.fpCollisions == 0 {
		t.Error("forced collisions produced no fpCollisions count")
	}
	s := &d.stripes[stripeFor(fp)]
	s.mu.Lock()
	pendingLeft := len(s.pending)
	s.mu.Unlock()
	if pendingLeft != 0 {
		t.Errorf("%d pending map entries survive promote", pendingLeft)
	}
}
