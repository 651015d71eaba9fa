package search

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/mibench"
	"repro/internal/rtl"
)

// lookup probes the index the way a worker's resolve does, without
// parking anything on a miss.
func (d *dedupIndex) lookup(flags byte, fp fingerprint.FP, enc []byte) *slot {
	s := &d.stripes[stripeFor(fp)]
	s.lock()
	defer s.mu.Unlock()
	s.probes++
	return s.find(indexKey{flags, fp}, enc)
}

// TestDedupIndexForcedFPCollision drives the two-tier index with
// manufactured fingerprint collisions: distinct canonical keys filed
// under one (flags, fingerprint) bucket. The enumerated spaces never
// produce such a collision (TestFingerprintTripleCollisionRate), so
// the second-tier byte compare is exercised here directly — it must
// keep the instances distinct and account for every collision in the
// counters.
func TestDedupIndexForcedFPCollision(t *testing.T) {
	d := newDedupIndex()

	const flags = byte(0x05)
	fp := fingerprint.FP{Count: 7, ByteSum: 1234, CRC: 0xDEADBEEF}
	keyA := []byte("instance-A: add r1,r2")
	keyB := []byte("instance-B: sub r3,r4")

	d.insert(string(flags)+string(keyA), fp, 0)
	d.insert(string(flags)+string(keyB), fp, 1)

	if p := d.lookup(flags, fp, keyA); p == nil || p.id != 0 {
		t.Fatalf("lookup(keyA) = %+v; want the slot of node 0", p)
	}
	if p := d.lookup(flags, fp, keyB); p == nil || p.id != 1 {
		t.Fatalf("lookup(keyB) = %+v; want the slot of node 1", p)
	}
	// keyB shares keyA's bucket, so resolving it first byte-compared
	// against keyA — one real fingerprint collision.
	if c := d.counters(); c.fpCollisions != 1 {
		t.Errorf("fpCollisions = %d after resolving both members; want 1", c.fpCollisions)
	}

	// A third instance with the same fingerprint but different bytes
	// must not match either bucket member.
	if p := d.lookup(flags, fp, []byte("instance-C: distinct")); p != nil {
		t.Fatalf("lookup(keyC) matched node %d; distinct bytes must not merge", p.id)
	}
	if c := d.counters(); c.fpCollisions != 3 {
		t.Errorf("fpCollisions = %d after a two-member miss; want 3", c.fpCollisions)
	}

	// Different gating flags are a different first-tier key even with
	// an identical fingerprint: no bucket, no byte compares. (Flags do
	// not select the stripe, so this probe still lands on the same
	// stripe — the miss is the empty bucket, not a different shard.)
	before := d.counters().byteCompares
	if d.lookup(flags^1, fp, keyA) != nil {
		t.Fatal("lookup with different flags must miss")
	}
	if c := d.counters(); c.byteCompares != before {
		t.Errorf("byteCompares grew by %d on an empty bucket; want 0", c.byteCompares-before)
	}
	if c := d.counters(); c.probes != 4 {
		t.Errorf("probes = %d; want 4", c.probes)
	}
	if got, want := d.retainedBytes(), 2+len(keyA)+len(keyB)+2*slotBytes; got != want {
		t.Errorf("retainedBytes = %d; want %d (two keys and two slots)", got, want)
	}
}

// padPhase is a synthetic phase that rewrites the function to n no-ops
// and a return: one distinct instance per n, the same one whoever
// applies it.
type padPhase int

func (padPhase) ID() byte                { return 'z' }
func (padPhase) Name() string            { return "pad test phase" }
func (padPhase) RequiresRegAssign() bool { return false }
func (p padPhase) Apply(f *rtl.Func, _ *machine.Desc) bool {
	b := f.Entry()
	b.Instrs = b.Instrs[:0]
	for i := 0; i < int(p); i++ {
		b.Instrs = append(b.Instrs, rtl.Instr{Op: rtl.OpNop})
	}
	b.Instrs = append(b.Instrs, rtl.Instr{Op: rtl.OpRet})
	return true
}

// TestDedupIndexCollisionAcrossLevels: a key stays where its first probe
// parked it for the whole run, so an instance discovered at level 1 and
// re-derived many levels later merges into its node with no step in
// between that could lose it, while a key that only shares its
// fingerprint gets a slot of its own.
func TestDedupIndexCollisionAcrossLevels(t *testing.T) {
	e, node := ringEngine(Options{Workers: 1})
	const depth = 7
	for level := 1; level <= depth; level++ {
		e.next = nil
		runLevelOrStall(t, e, []attempt{{node, padPhase(level)}}, fmt.Sprintf("level %d", level))
		if len(e.next) != 1 || e.next[0].ID != level {
			t.Fatalf("level %d discovered %v; want node %d", level, e.next, level)
		}
		node = e.next[0]
	}
	first := e.res.Nodes[1]
	e.next = nil
	runLevelOrStall(t, e, []attempt{{node, padPhase(1)}}, "the level re-deriving the level-1 instance")
	if len(e.next) != 0 || len(e.res.Nodes) != depth+1 {
		t.Fatalf("re-deriving the level-1 instance at level %d created a node (%d nodes)", depth+1, len(e.res.Nodes))
	}
	if got := node.Edges[len(node.Edges)-1].To; got != first.ID {
		t.Fatalf("the re-derived instance merged into node %d; want %d", got, first.ID)
	}

	flags, enc := first.key[0], []byte(first.key[1:])
	own := e.index.resolve(flags, first.FP, enc)
	if own.id != int32(first.ID) || unsafe.StringData(own.key) != unsafe.StringData(first.key) {
		t.Fatalf("node %d's key resolves to slot %+v; want its own", first.ID, own)
	}
	enc[len(enc)-1] ^= 0xFF
	other := e.index.resolve(flags, first.FP, enc)
	if other == own || other.id != -1 {
		t.Fatalf("a key sharing only node %d's fingerprint resolved to %+v; want a fresh slot", first.ID, other)
	}
	if c := e.index.counters(); c.fpCollisions != 1 {
		t.Errorf("fpCollisions = %d; want 1 (the forced one)", c.fpCollisions)
	}
}

func corpusFunc(t testing.TB, bench, name string) *rtl.Func {
	t.Helper()
	p, err := mibench.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func(name)
	if f == nil {
		t.Fatalf("%s: no function %q", bench, name)
	}
	return f
}

// TestIndexHoldsEachKeyOnce: after a run the index has one slot per
// distinct spelling, every node's key resolves to the slot that carries
// its ID and shares that slot's bytes — the key is stored once, not once
// in the index and once beside the node — and what the index says it
// retains is those bytes plus a small constant per slot. Under Equiv the
// folded spellings' slots, which point at their class's node, are the
// only keys no node shares.
func TestIndexHoldsEachKeyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates two mid-sized spaces eight times")
	}
	for _, fn := range []*rtl.Func{corpusFunc(t, "stringsearch", "bmh_search"), corpusFunc(t, "jpeg", "get_code")} {
		for _, workers := range []int{1, 4} {
			for _, equiv := range []bool{false, true} {
				what := fmt.Sprintf("%s workers=%d equiv=%v", fn.Name, workers, equiv)
				e := newRun(fn, Options{Workers: workers, Equiv: equiv})
				res := e.run()
				if res.Aborted {
					t.Fatalf("%s: aborted: %s", what, res.AbortReason)
				}
				for _, n := range res.Nodes {
					p := e.index.lookup(stateBits(n.State), n.FP, []byte(n.key[1:]))
					if p == nil || p.id != int32(n.ID) {
						t.Fatalf("%s: node %d's key resolves to slot %+v", what, n.ID, p)
					}
					if unsafe.StringData(p.key) != unsafe.StringData(n.key) {
						t.Fatalf("%s: node %d keeps a copy of its slot's key", what, n.ID)
					}
				}
				slots, keyBytes, folded := 0, 0, 0
				for i := range e.index.stripes {
					for _, bucket := range e.index.stripes[i].slots {
						for _, p := range bucket {
							slots++
							keyBytes += len(p.key)
							if p.id < 0 {
								t.Fatalf("%s: a complete run left a slot uncommitted", what)
							}
							if unsafe.StringData(p.key) != unsafe.StringData(res.Nodes[p.id].key) {
								folded++
							}
						}
					}
				}
				wantFolded := 0
				if equiv {
					wantFolded = res.Equiv.Merged
				}
				if slots != len(res.Nodes)+wantFolded || folded != wantFolded {
					t.Errorf("%s: %d slots, %d of them shared by no node; want %d and %d", what, slots, folded, len(res.Nodes)+wantFolded, wantFolded)
				}
				if got := e.index.retainedBytes(); got < keyBytes || got > keyBytes+64*slots {
					t.Errorf("%s: retainedBytes = %d; want the %d key bytes plus at most 64 B for each of %d slots", what, got, keyBytes, slots)
				}
			}
		}
	}
}
