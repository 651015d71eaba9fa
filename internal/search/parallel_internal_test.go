package search

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faultinject"
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
// encoding or dedup slot may remain reachable from the ring. The
// attempt numbers are run-wide, as the engine's are: this one sits in
// some later level, three laps and a bit into the run.
func TestOutcomeRingClearsSlots(t *testing.T) {
	if sz := unsafe.Sizeof(outcomeSlot{}); sz > 128 {
		t.Errorf("a ring slot is %d bytes; the ring's sizes (8 KiB at least, 512 KiB at most) are stated for 128", sz)
	}
	r := newOutcomeRing(ringSize)
	fn := &rtl.Func{Name: "retained"}
	buf := fingerprint.GetBuffer()
	defer fingerprint.PutBuffer(buf)
	parked := &slot{key: "k", id: -1}

	const i = int64(3*ringSize + 5)
	r.put(i, outcome{active: true, fn: fn, buf: buf, equiv: []byte{1}, slot: parked})
	if !r.ready(i) {
		t.Fatal("published outcome not ready")
	}
	o := r.take(i)
	if o.fn != fn || o.buf != buf || o.slot != parked {
		t.Fatal("take returned a different outcome than was published")
	}
	s := r.at(i)
	if s.o.fn != nil || s.o.buf != nil || s.o.equiv != nil || s.o.slot != nil || s.o.active {
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
// wake-up batch give or take one, the smallest ring give or take one, a
// full window give or take one, and two laps and a bit.
var levelSizes = []int{1, wakeBatch - 1, wakeBatch, wakeBatch + 1, minRingSize - 1, minRingSize + 1, ringSize - 1, ringSize + 1, 2*ringSize + 1}

// levelSeqs are runs of levels through one ring: every size twice (the
// second level finds the first one's marks), every size after every
// other, and a space that keeps outgrowing its ring until the ring is
// as large as it gets.
func levelSeqs() [][]int {
	seqs := [][]int{{minRingSize - 1, minRingSize + 1, ringSize + 1, 2*ringSize + 1, 1}}
	for _, n := range levelSizes {
		for _, m := range levelSizes {
			seqs = append(seqs, []int{n, m})
		}
	}
	return seqs
}

// TestOutcomeRingMarksNeverRepeatAcrossLevels is the reason slots are
// addressed by run-wide attempt numbers now that one ring serves a run's
// levels: a level of n attempts leaves its publication marks behind, and
// none of them may read as a publication of the level of m attempts
// that follows. (Numbered per level, attempt 0 of the second level would
// find attempt 0 of the first one's mark and commit a zeroed slot.) A
// level that outgrows the ring gets a larger, fresh one, whose zero
// marks must not read as published either.
func TestOutcomeRingMarksNeverRepeatAcrossLevels(t *testing.T) {
	for _, seq := range levelSeqs() {
		var r *outcomeRing
		base := int64(0)
		for _, size := range seq {
			if !r.fits(size) {
				if r != nil && len(r.slots) >= size {
					t.Fatalf("levels of %v attempts: a ring of %d slots replaced for a level of %d", seq, len(r.slots), size)
				}
				r = newOutcomeRing(size)
			}
			if n := len(r.slots); n&(n-1) != 0 || n < minRingSize || n > ringSize || (n < size && n < ringSize) {
				t.Fatalf("levels of %v attempts: a ring of %d slots carries the level of %d", seq, n, size)
			}
			for i := int64(0); i < int64(size); i++ {
				if r.ready(base + i) {
					t.Fatalf("levels of %v attempts: attempt %d of the level of %d reads published before its put", seq, i, size)
				}
				r.put(base+i, outcome{active: true})
				if !r.ready(base+i) || !r.take(base+i).active {
					t.Fatalf("levels of %v attempts: attempt %d of the level of %d lost", seq, i, size)
				}
			}
			base += int64(size)
		}
	}
}

// ringPhase is a synthetic phase for driving runLevel with work lists
// of exact sizes: it sleeps, calls its hook, and is active (it prepends
// a no-op, the same one every time, so all its children are one
// instance) or dormant as told. Its ID ('z' unless set) gates nothing.
type ringPhase struct {
	id     byte
	sleep  time.Duration
	hook   func()
	active bool
}

func (p ringPhase) ID() byte {
	if p.id != 0 {
		return p.id
	}
	return 'z'
}
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
func ringEngine(opts Options) (*engine, *Node) {
	f := rtl.NewFunc("ring", 0, false)
	f.Entry().Instrs = append(f.Entry().Instrs, rtl.Instr{Op: rtl.OpRet})
	e := newRun(f, opts, nil)
	if opts.Ctx != nil {
		e.done = opts.Ctx.Done()
	}
	return e, e.frontier[0]
}

// goid is the running goroutine's ID, read off its stack header
// ("goroutine 17 [running]:").
func goid() uint64 {
	var buf [64]byte
	s := buf[len("goroutine "):runtime.Stack(buf[:], false)]
	id, _ := strconv.ParseUint(string(s[:bytes.IndexByte(s, ' ')]), 10, 64)
	return id
}

// levelCaller is the goroutine runLevelOrStall last called runLevel on
// — worker one and the committer of that level; a phase hook asks
// onCaller whether it is the one evaluating.
var levelCaller atomic.Uint64

func onCaller() bool { return goid() == levelCaller.Load() }

// runLevelOrStall runs one level of work through the live evaluator and
// fails the test if it never finishes.
func runLevelOrStall(t *testing.T, e *engine, work []attempt, what string) {
	t.Helper()
	finished := make(chan error, 1)
	go func() {
		levelCaller.Store(goid())
		finished <- e.runLevel(work)
	}()
	select {
	case err := <-finished:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s: the level never finished — a published outcome the caller was not told of, or a worker stranded at the window", what)
	}
}

// ringDrained fails the test if any slot of e's ring still holds an
// outcome: what an aborted level leaves published must have been taken
// and its clone and fingerprint buffer handed back to their pools.
func ringDrained(t *testing.T, e *engine, what string) {
	t.Helper()
	for i := range e.ring.slots {
		if o := &e.ring.slots[i].o; o.fn != nil || o.buf != nil || o.slot != nil || o.active {
			t.Fatalf("%s: slot %d still holds an outcome after the aborted level", what, i)
		}
	}
}

// TestOneWorkerRunsOnTheCallingGoroutine: at Workers 1 the enumeration
// is the calling goroutine's and nobody else's — every instance is
// evaluated (the Verifier hook runs where the attempt does) on the
// goroutine that called Run, and no goroutine is started for it.
func TestOneWorkerRunsOnTheCallingGoroutine(t *testing.T) {
	f := corpusFunc(t, "stringsearch", "tolower_c")
	me, before := goid(), runtime.NumGoroutine()
	instances := 0
	res := Run(f, Options{Workers: 1, Verifier: func(*rtl.Func) error {
		instances++ // unsynchronized on purpose: -race would report a second goroutine
		if id := goid(); id != me {
			t.Errorf("an instance was evaluated on goroutine %d, Run was called on %d", id, me)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines during Run, %d before it", n, before)
		}
		return nil
	}})
	if res.Aborted || len(res.Nodes) < 2 || instances < len(res.Nodes)-1 {
		t.Fatalf("aborted=%v (%s), %d nodes, %d instances verified", res.Aborted, res.AbortReason, len(res.Nodes), instances)
	}
}

// TestCommitterLivenessUnderBatching: workers tell the caller of their
// outcomes once per wakeBatch, before they block on the window and as
// they leave the level, and the caller commits between its own
// evaluations; that has to be enough for every outcome to be committed
// at every worker count and work size — including when one attempt, the
// first or the last, is slow, so that everyone else has published and
// left (or is parked at the window) long before it. Each engine runs
// several such levels through its ring, which is replaced only for a
// level that outgrows it.
func TestCommitterLivenessUnderBatching(t *testing.T) {
	seqs := [][]int{{minRingSize - 1, minRingSize + 1, ringSize + 1}}
	for _, n := range levelSizes {
		seqs = append(seqs, []int{n, n})
	}
	for _, workers := range []int{1, 2, 8, 64} {
		for _, seq := range seqs {
			for _, slowLast := range []bool{false, true} {
				what := fmt.Sprintf("workers=%d, levels of %v attempts, last attempt slow: %v", workers, seq, slowLast)
				e, root := ringEngine(Options{Workers: workers})
				wantEdges, wantBase := 0, 0
				for level, n := range seq {
					work := make([]attempt, n)
					for i := range work {
						p := ringPhase{active: i%3 == 0}
						if (i == 0 && !slowLast) || (i == n-1 && slowLast) {
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
					if ring.fits(n) != (e.ring == ring) {
						t.Fatalf("%s: level %d: a ring of %d slots followed one of %d", what, level, len(e.ring.slots), len(ring.slots))
					}
					wantBase += n
				}
				if e.ringBase != int64(wantBase) {
					t.Fatalf("%s: ringBase %d after levels of %v", what, e.ringBase, seq)
				}
			}
		}
	}
	// Who ends up with the slow attempt above is the scheduler's choice;
	// these two cells make it the caller's, then a worker's.
	t.Run("caller holds the slow attempt", callerStalledWhileWorkersRunAhead)
	t.Run("caller out of claims", callerParkedOnTheLastAttempt)
}

// callerStalledWhileWorkersRunAhead puts the slow attempt in the
// caller's hands — it is a worker like the others, and while it
// evaluates nobody commits. On a level larger than the ring the other
// workers then run a full window ahead and must park on space, to be
// released when the caller returns and commits what they published: the
// caller's first evaluation ends only once the others have evaluated
// every attempt the window admits (all but the caller's own below
// committed + window).
func callerStalledWhileWorkersRunAhead(t *testing.T) {
	for _, workers := range []int{2, 8, 64} {
		for _, n := range []int{2*ringSize + 1, 3 * ringSize} {
			what := fmt.Sprintf("workers=%d, %d attempts", workers, n)
			e, root := ringEngine(Options{Workers: workers})
			var byOthers atomic.Int64
			var stalled atomic.Bool
			hook := func() {
				if !onCaller() {
					byOthers.Add(1)
					return
				}
				if stalled.Swap(true) {
					return
				}
				// Only this goroutine commits, so the count stands still
				// while it is in here.
				committed := int64(e.ins.stats.Active + e.ins.stats.Dormant)
				want := min(committed+int64(len(e.ring.slots)), int64(n)) - 1
				for deadline := time.Now().Add(time.Minute); byOthers.Load() < want; time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Errorf("%s: the other workers evaluated %d attempts while the caller held one back, the window admits %d", what, byOthers.Load(), want)
						return
					}
				}
				if got := byOthers.Load(); got != want {
					t.Errorf("%s: the other workers evaluated %d attempts, past the %d the window admits", what, got, want)
				}
			}
			work := make([]attempt, n)
			for i := range work {
				work[i] = attempt{root, ringPhase{active: i%3 == 0, hook: hook}}
			}
			runLevelOrStall(t, e, work, what)
			if !stalled.Load() {
				t.Fatalf("%s: the caller evaluated nothing", what)
			}
			if e.res.Aborted || len(root.Edges) != (n+2)/3 {
				t.Fatalf("%s: aborted=%v, %d active outcomes committed, want %d", what, e.res.Aborted, len(root.Edges), (n+2)/3)
			}
		}
	}
}

// callerParkedOnTheLastAttempt is the other end: the caller is out
// of claims while a worker still holds the level's last attempt, a slow
// one. The caller's first evaluation (if it gets one) waits until a
// worker has started on the last attempt, so by the time the caller
// looks for work there is none: it commits what is published, parks,
// and the worker's exit — rule (c), it has published fewer than a batch
// — is the only wake-up it will get.
func callerParkedOnTheLastAttempt(t *testing.T) {
	for _, workers := range []int{2, 8, 64} {
		for _, n := range levelSizes[1:7] { // 2 … ringSize-1 attempts: within one window
			what := fmt.Sprintf("workers=%d, %d attempts", workers, n)
			e, root := ringEngine(Options{Workers: workers})
			lastStarted := make(chan struct{})
			var held atomic.Bool
			work := make([]attempt, n)
			for i := range work {
				work[i] = attempt{root, ringPhase{active: true, hook: func() {
					if onCaller() && !held.Swap(true) {
						select {
						case <-lastStarted:
						case <-time.After(time.Minute):
							t.Errorf("%s: no worker reached the last attempt while the caller held one", what)
						}
					}
				}}}
			}
			work[n-1].phase = ringPhase{active: true, hook: func() {
				if !onCaller() {
					close(lastStarted)
					time.Sleep(5 * time.Millisecond)
				}
			}}
			runLevelOrStall(t, e, work, what)
			if e.res.Aborted || len(root.Edges) != n {
				t.Fatalf("%s: aborted=%v, %d outcomes committed, want %d", what, e.res.Aborted, len(root.Edges), n)
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
			e, root := ringEngine(Options{Workers: workers, Ctx: ctx})
			work := make([]attempt, n)
			for i := range work {
				work[i] = attempt{root, ringPhase{active: true}}
			}
			// The first attempt holds the commits back while the others
			// publish; the one in the middle pulls the plug.
			work[0].phase = ringPhase{active: true, sleep: 5 * time.Millisecond}
			work[n/2].phase = ringPhase{active: true, hook: cancel}
			runLevelOrStall(t, e, work, what)
			cancel()
			if !e.res.Aborted {
				t.Fatalf("%s: a level canceled half way was not aborted", what)
			}
			ringDrained(t, e, what)
		}
	}
}

// TestTimeoutWhileCallerEvaluates: the wall-time budget runs out while
// the caller, the only goroutine that can abort the level, is inside an
// attempt. Every worker's first attempt hangs (an injected 300 ms hang
// on the level's first Workers attempts: each worker claims one of them
// before any finishes, the caller included), the budget is 50 ms, so the
// caller finds it spent as soon as its attempt returns: the level ends
// there, aborted with the timeout reason, with most of its attempts
// never evaluated and the ring drained.
func TestTimeoutWhileCallerEvaluates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		what := fmt.Sprintf("workers=%d", workers)
		e, root := ringEngine(Options{
			Workers: workers,
			Timeout: 50 * time.Millisecond,
			Faults:  faultinject.MustParse("hang=y:300ms"),
		})
		var evaluated, hungOnCaller atomic.Int64
		work := make([]attempt, 200)
		for i := range work {
			p := ringPhase{active: true, sleep: 10 * time.Millisecond, hook: func() { evaluated.Add(1) }}
			if i < workers {
				p = ringPhase{id: 'y', active: true, hook: func() {
					evaluated.Add(1)
					if onCaller() {
						hungOnCaller.Add(1)
					}
				}}
			}
			work[i] = attempt{root, p}
		}
		runLevelOrStall(t, e, work, what)
		if !e.res.Aborted || e.res.AbortReason != abortTimeout {
			t.Fatalf("%s: aborted=%v, reason %q; want the timeout", what, e.res.Aborted, e.res.AbortReason)
		}
		if n := hungOnCaller.Load(); n != 1 {
			t.Fatalf("%s: the caller evaluated %d of the hanging attempts, want 1", what, n)
		}
		// The caller looks at the clock when its hang ends, and stops the
		// others: whoever came out of a hang before that fits in a few
		// 10 ms attempts, not the 200 of the level.
		if n := evaluated.Load(); n > int64(len(work)/2) {
			t.Errorf("%s: %d of %d attempts evaluated; the level should have ended with the caller's first", what, n, len(work))
		}
		ringDrained(t, e, what)
	}
}

// TestStripedIndexForcedCollisionConcurrent drives the striped index
// the way a level's worker pool does, with manufactured fingerprint
// collisions so every key lands in one stripe's one bucket — the
// worst case for both the second-tier byte compare and the stripe
// lock. Several goroutines concurrently resolve a mix of committed
// keys (must return the committed slot) and fresh keys (all resolvers
// of one key must converge on a single slot); the serial commit then
// gives the survivors their IDs, one of them its equivalence class's,
// and with no further step every spelling resolves to its committed
// slot, while a slot nobody committed — its level was canceled — still
// resolves to itself and has no ID.
func TestStripedIndexForcedCollisionConcurrent(t *testing.T) {
	d := newDedupIndex()
	const flags = byte(0x05)
	fp := fingerprint.FP{Count: 7, ByteSum: 4242, CRC: 0xFEEDBEEF}

	committedKeys := [][]byte{
		[]byte("committed-instance-0"),
		[]byte("committed-instance-1"),
	}
	for i, k := range committedKeys {
		d.insert(string(flags)+string(k), fp, i)
	}
	freshKeys := make([][]byte, 8)
	for j := range freshKeys {
		freshKeys[j] = []byte(fmt.Sprintf("fresh-instance-%d", j))
	}

	const workers = 8
	// level has every worker probe every key, the way a level's attempts
	// do, and hands back the slots each was answered with. Workers never
	// read id: the answers are checked after the level, on the serial
	// side.
	level := func() (committed, fresh [][]*slot) {
		committed, fresh = make([][]*slot, workers), make([][]*slot, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			committed[w], fresh[w] = make([]*slot, len(committedKeys)), make([]*slot, len(freshKeys))
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i, k := range committedKeys {
					committed[w][i] = d.resolve(flags, fp, k)
				}
				// Walk the fresh keys in a per-worker order so slot
				// creations and re-probes of the same key interleave.
				for off := 0; off < len(freshKeys); off++ {
					j := (off + w) % len(freshKeys)
					fresh[w][j] = d.resolve(flags, fp, freshKeys[j])
				}
			}(w)
		}
		wg.Wait()
		return committed, fresh
	}

	committed, fresh := level()
	for w := 0; w < workers; w++ {
		for i, p := range committed[w] {
			if p.id != int32(i) {
				t.Fatalf("worker %d: resolve(committed %d) = %+v; want node %d's slot", w, i, p, i)
			}
		}
		// Every resolver of one key must have been handed the same slot
		// — two slots for one key would split a node in two.
		for j, p := range fresh[w] {
			if p != fresh[0][j] || p.id != -1 {
				t.Fatalf("fresh key %d: worker %d holds slot %+v, worker 0 %+v", j, w, p, fresh[0][j])
			}
		}
	}

	// Serial commit in "attempt order": the first fresh key folds into
	// committed node 0's equivalence class, the last is never committed
	// (the level was canceled before its turn), the rest become nodes.
	nextID := int32(len(committedKeys))
	want := make([]int32, len(freshKeys))
	for j, p := range fresh[0] {
		switch j {
		case 0:
			want[j] = 0
		case len(freshKeys) - 1:
			want[j] = -1
		default:
			want[j] = nextID
			nextID++
		}
		p.id = want[j]
	}

	// The next level's probes, concurrent again, with nothing done to
	// the index in between.
	committed, again := level()
	for w := 0; w < workers; w++ {
		for i, p := range committed[w] {
			if p.id != int32(i) {
				t.Fatalf("worker %d: committed key %d resolves to %+v after the commit", w, i, p)
			}
		}
		for j, p := range again[w] {
			if p != fresh[0][j] || p.id != want[j] {
				t.Fatalf("worker %d: fresh key %d resolves to %+v after the commit; want the slot parked for it, with ID %d", w, j, p, want[j])
			}
		}
	}

	// Counter sanity: every probe hit the same stripe, the forced
	// collisions showed up, and each key has exactly one slot.
	c := d.counters()
	if wantProbes := int64(2 * workers * (len(committedKeys) + len(freshKeys))); c.probes != wantProbes {
		t.Errorf("probes = %d; want %d", c.probes, wantProbes)
	}
	if c.fpCollisions == 0 {
		t.Error("forced collisions produced no fpCollisions count")
	}
	if n := len(d.stripes[stripeFor(fp)].slots[indexKey{flags, fp}]); n != len(committedKeys)+len(freshKeys) {
		t.Errorf("the bucket holds %d slots for %d keys", n, len(committedKeys)+len(freshKeys))
	}
}
