package search

import (
	"hash/crc32"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/opt"
)

// instanceNode fabricates a node whose key passes the oracle's intake
// validation: flags byte matching State, CRC matching FP.
func instanceNode(id int, seq, enc string) *Node {
	return &Node{ID: id, Level: len(seq), Seq: seq, NumInstrs: 3, key: "\x00" + enc,
		FP: fingerprint.FP{Count: 3, CRC: crc32.ChecksumIEEE([]byte(enc))}}
}

// TestHarvestQuarantineSeqTemplate checks the quarantine-message
// normalization the cross-shard oracle depends on: a node two shards
// both discover can carry different shard-relative sequences, so the
// harvested record replaces the parent's quoted Seq with seqToken
// (making the shards' records compare equal) and the replay
// re-substitutes the serial sequence.
func TestHarvestQuarantineSeqTemplate(t *testing.T) {
	res := &Result{FuncName: "f"}
	parent := instanceNode(0, "kc", "parent-encoding")
	msg := "watchdog: phase s at " + strconv.Quote("kc") + " still running after 1s"
	parent.Edges = []Edge{{Phase: 's', To: 1}}
	res.Nodes = []*Node{parent, {ID: 1, Level: 3, Seq: "kcs", Quarantine: msg, key: "Qkcs"}}

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
	run := &Result{FuncName: "f", Nodes: []*Node{a.node}}
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
	space := func(pseq, cseq string, mutate func(parent, child *Node)) *Result {
		parent := instanceNode(0, pseq, "parent")
		child := instanceNode(1, cseq, "child")
		parent.Edges = []Edge{{Phase: 's', To: 1}}
		if mutate != nil {
			mutate(parent, child)
		}
		return &Result{Nodes: []*Node{parent, child}}
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
	for name, mutate := range map[string]func(parent, child *Node){
		"conflicting facts":   func(_, child *Node) { child.NumInstrs = 4 },
		"conflicting outcome": func(parent, _ *Node) { parent.Edges[0].Phase = 'k' },
		"corrupt key":         func(_, child *Node) { child.key = "\x00chilD" },
		"wrong state flags":   func(_, child *Node) { child.key = "\x01child" },
		"empty key":           func(_, child *Node) { child.key = "" },
		"unknown phase":       func(parent, _ *Node) { parent.Edges[0].Phase = 1 },
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
