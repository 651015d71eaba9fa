package search

import (
	"bytes"
	"hash/crc32"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/mibench"
	"repro/internal/opt"
)

// instanceNode fabricates a node whose key passes the oracle's intake
// validation: flags byte matching State, CRC matching FP.
func instanceNode(id int, seq, enc string) (*Node, string) {
	return &Node{ID: id, Level: len(seq), Seq: seq, NumInstrs: 3,
		FP: fingerprint.FP{Count: 3, CRC: crc32.ChecksumIEEE([]byte(enc))}}, "\x00" + enc
}

// TestHarvestQuarantineSeqTemplate checks the quarantine-message
// normalization the cross-shard oracle depends on: a node two shards
// both discover can carry different shard-relative sequences, so the
// harvested record replaces the parent's quoted Seq with seqToken
// (making the shards' records compare equal) and the replay
// re-substitutes the serial sequence.
func TestHarvestQuarantineSeqTemplate(t *testing.T) {
	res := &Result{FuncName: "f", keys: newKeyStore()}
	parent, pkey := instanceNode(0, "kc", "parent-encoding")
	msg := "watchdog: phase s at " + strconv.Quote("kc") + " still running after 1s"
	parent.Edges = []Edge{{Phase: 's', To: 1}}
	res.Nodes = []*Node{parent, {ID: 1, Level: 3, Seq: "kcs", Quarantine: msg}}
	res.keys.put(0, pkey)
	res.keys.put(1, "Qkcs")

	o := &attemptOracle{}
	ids, err := o.harvest(res, func(int) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if ids[1] != -1 {
		t.Fatalf("quarantined node interned as instance %d", ids[1])
	}
	a := attempt{&Node{Seq: "xy", Level: 2}, opt.ByID('s')}
	e, err := o.attemptAt(ids[0], a)
	if err != nil || e == nil {
		t.Fatalf("no oracle edge harvested for the parent's phase s: %v", err)
	}
	if !strings.Contains(e.quarantine, seqToken) || strings.Contains(e.quarantine, strconv.Quote("kc")) {
		t.Fatalf("template %q does not replace the shard-relative sequence by the seq token", e.quarantine)
	}
	// The answering side: re-embedding a different (serial) parent
	// sequence reconstructs the message the serial run would have
	// recorded, on the node the shared commit path creates.
	run := &Result{FuncName: "f", keys: newKeyStore(), Nodes: []*Node{a.node}}
	run.opts.fill()
	o.iid = []int32{ids[0]}
	if err := o.level(newEngine(run, o.level, time.Now()), []attempt{a}); err != nil {
		t.Fatal(err)
	}
	got := run.Nodes[len(run.Nodes)-1]
	want := "watchdog: phase s at " + strconv.Quote("xy") + " still running after 1s"
	if got.Quarantine != want || got.Seq != "xys" || got.ID != 1 || run.NodeKey(got) != "Qxys" {
		t.Fatalf("replayed quarantine node %+v, want message %q", got, want)
	}
}

// TestOracleHarvestConsistency checks the oracle's intake: two inputs
// that reach the same instances under different node IDs and sequences
// agree (and intern to the same ids), while a key that does not match
// its node's fingerprint or state, an unknown edge phase, and inputs
// that disagree about an instance's facts or phase outcomes are each
// rejected with an error.
func TestOracleHarvestConsistency(t *testing.T) {
	space := func(pseq, cseq string, mutate func(parent, child *Node, keys []string)) *Result {
		res := &Result{keys: newKeyStore()}
		parent, pkey := instanceNode(0, pseq, "parent")
		child, ckey := instanceNode(1, cseq, "child")
		parent.Edges = []Edge{{Phase: 's', To: 1}}
		keys := []string{pkey, ckey}
		if mutate != nil {
			mutate(parent, child, keys)
		}
		res.Nodes = []*Node{parent, child}
		for i, k := range keys {
			res.keys.put(i, k)
		}
		return res
	}
	all := func(int) bool { return true }
	o := &attemptOracle{}
	first, err := o.harvest(space("k", "ks", nil), all)
	if err != nil {
		t.Fatal(err)
	}
	second, err := o.harvest(space("c", "cs", nil), all)
	if err != nil {
		t.Fatalf("sequence-only difference rejected: %v", err)
	}
	if first[0] != second[0] || first[1] != second[1] || len(o.nodes) != 2 {
		t.Fatalf("same instances interned as %v and %v", first, second)
	}
	if _, err := o.attemptAt(first[1], attempt{&Node{}, opt.ByID('k')}); err != nil {
		t.Fatalf("an expanded leaf must answer dormant, got %v", err)
	}
	for name, mutate := range map[string]func(parent, child *Node, keys []string){
		"conflicting facts":   func(_, child *Node, _ []string) { child.NumInstrs = 4 },
		"conflicting outcome": func(parent, _ *Node, _ []string) { parent.Edges[0].Phase = 'k' },
		"corrupt key":         func(_, _ *Node, keys []string) { keys[1] = "\x00chilD" },
		"wrong state flags":   func(_, _ *Node, keys []string) { keys[1] = "\x01child" },
		"empty key":           func(_, _ *Node, keys []string) { keys[1] = "" },
		"unknown phase":       func(parent, _ *Node, _ []string) { parent.Edges[0].Phase = 1 },
	} {
		if _, err := o.harvest(space("k", "ks", mutate), all); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := o.attemptAt(first[1], attempt{&Node{}, opt.ByID('k')}); err != nil {
		t.Fatal(err)
	}
	// An instance only ever seen as a child was expanded by no input.
	lone := &attemptOracle{}
	ids, err := lone.harvest(space("k", "ks", nil), func(id int) bool { return id == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lone.attemptAt(ids[1], attempt{&Node{Seq: "ks"}, opt.ByID('k')}); err == nil {
		t.Fatal("an unexpanded instance answered as a leaf")
	}
}

// wire round-trips a result through Save and Load, the way every shard
// reaches the coordinator: all of its keys come back retired.
func wire(t *testing.T, r *Result) *Result {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestReassemblyInflatesEachBlobOnce is the exact-count form of the
// linear-time claim: harvesting a fully retired multi-level space
// inflates each of its key blobs once, a merge inflates each input
// blob once and nothing in the space it builds, and a derivation reads
// its source the same way.
func TestReassemblyInflatesEachBlobOnce(t *testing.T) {
	p, err := mibench.ByName("jpeg")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("get_code")
	const k = 2
	base := Run(f, Options{StopAtFrontier: k})
	if base.Aborted || base.Checkpoint == nil {
		t.Fatalf("warmup did not pause (aborted=%v)", base.Aborted)
	}
	docs, ids, err := PartitionCheckpoint(base, k)
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(what string, r *Result, want int) {
		t.Helper()
		if r.keys.inflations > want {
			t.Errorf("%s: %d blob inflations, want at most %d (one per blob)", what, r.keys.inflations, want)
		}
	}
	shards := make([]ShardSpace, k)
	for i, doc := range docs {
		loaded, err := Load(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		done, err := Resume(loaded, Options{})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = ShardSpace{Res: wire(t, done), FrontierIDs: ids[i]}
		if n := len(shards[i].Res.keys.blobs); n < 10 {
			t.Fatalf("shard %d has %d key blobs; the test needs a deep space", i, n)
		}
		pinned("loaded shard", shards[i].Res, 0)
	}
	baseBefore := base.keys.inflations
	merged, err := MergeShards(base, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shards {
		pinned("merged shard", sh.Res, len(sh.Res.keys.blobs))
	}
	pinned("merge base", base, baseBefore+len(base.keys.blobs))
	pinned("merged space", merged, 0)

	full := wire(t, merged)
	derived, err := DeriveEquiv(full, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pinned("derive source", full, len(full.keys.blobs))
	pinned("derived space", derived, 0)
}
