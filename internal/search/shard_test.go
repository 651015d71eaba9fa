package search_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/search"
)

// pauseAt runs a warmup enumeration that pauses once the frontier
// holds at least k nodes, failing the test if the space completes
// before the frontier ever grows that wide.
func pauseAt(t *testing.T, src, fn string, k int) *search.Result {
	t.Helper()
	_, f := compileFunc(t, src, fn)
	return pauseFunc(t, f, k)
}

func pauseFunc(t *testing.T, f *rtl.Func, k int) *search.Result {
	t.Helper()
	warmup := search.Run(f, search.Options{StopAtFrontier: k})
	if warmup.Aborted {
		t.Fatalf("warmup aborted: %s", warmup.AbortReason)
	}
	if warmup.Checkpoint == nil {
		t.Fatalf("warmup completed before the frontier reached %d nodes; pick a larger test function", k)
	}
	if len(warmup.Checkpoint.Frontier) < k {
		t.Fatalf("paused with %d frontier nodes, want >= %d", len(warmup.Checkpoint.Frontier), k)
	}
	return warmup
}

// wire round-trips a result through Save and Load, as every shard (and
// the derivation's source) reaches the coordinator: an in-memory result
// keeps its last levels' keys live, a loaded one has them all retired.
func wire(t *testing.T, r *search.Result) *search.Result {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := search.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// completeShard loads one partition document and enumerates it to
// completion. With kill set, the run is first interrupted mid-level
// (the in-process analog of SIGKILL on the worker holding the shard),
// then re-dispatched from its last checkpoint — the exact recovery
// path the coordinator drives over the wire.
func completeShard(t *testing.T, doc []byte, kill bool, faults *faultinject.Plan) *search.Result {
	t.Helper()
	loaded, err := search.Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("loading shard document: %v", err)
	}
	if loaded.Checkpoint == nil {
		t.Fatal("shard document has no checkpoint frontier")
	}
	if !kill {
		res, err := search.Resume(loaded, search.Options{Faults: faults})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		return res
	}
	ckpt := filepath.Join(t.TempDir(), "shard.ckpt.space.gz")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted, err := search.Resume(loaded, search.Options{
		Ctx:            ctx,
		Verifier:       cancelAfter(cancel, 20),
		CheckpointPath: ckpt,
		Faults:         faults,
	})
	if err != nil {
		t.Fatalf("interrupted resume: %v", err)
	}
	if !interrupted.Aborted {
		return interrupted // finished before the kill landed
	}
	reloaded, err := search.LoadFile(ckpt)
	if err != nil {
		t.Fatalf("reloading killed shard checkpoint: %v", err)
	}
	res, err := search.Resume(reloaded, search.Options{Faults: faults})
	if err != nil {
		t.Fatalf("re-dispatch resume: %v", err)
	}
	return res
}

// TestShardMergeDeterminismTable is the sharding tentpole's byte-
// identity contract: partition a paused enumeration's frontier into K
// shards, complete each shard independently (optionally SIGKILLing one
// mid-level and re-dispatching it from its checkpoint), merge the
// sub-spaces, and the merged space — and the equivalence space derived
// from it — must serialize canonically to exactly the bytes the
// single-node runs produce. The wire cells round-trip every shard and
// the derivation's source through Save/Load first, which is the path
// the coordinator runs; the corpus-sized cell makes those merges reach
// deep into retired key blobs. Run under -race (the Makefile race
// target covers this package).
func TestShardMergeDeterminismTable(t *testing.T) {
	type cell struct {
		k          int
		kill, wire bool
	}
	var sumCells []cell
	for _, k := range []int{1, 2, 4} {
		for _, kill := range []bool{false, true} {
			sumCells = append(sumCells, cell{k, kill, false}, cell{k, kill, true})
		}
	}
	type funcCells struct {
		f     *rtl.Func
		cells []cell
	}
	_, sum := compileFunc(t, sumSrc, "sum")
	funcs := []funcCells{{sum, sumCells}}
	if !testing.Short() {
		funcs = append(funcs, funcCells{mibenchFunc(t, "jpeg", "get_code"), []cell{{2, false, true}}})
	}
	for _, fc := range funcs {
		f := fc.f
		ref := search.Run(f, search.Options{})
		if ref.Aborted {
			t.Fatalf("%s: reference run aborted: %s", f.Name, ref.AbortReason)
		}
		wantDefault := canonical(t, ref)
		refEquiv := search.Run(f, search.Options{Equiv: true})
		if refEquiv.Aborted {
			t.Fatalf("%s: equiv reference run aborted: %s", f.Name, refEquiv.AbortReason)
		}
		wantEquiv := canonical(t, refEquiv)

		for _, c := range fc.cells {
			t.Run(fmt.Sprintf("%s,k=%d,kill=%v,wire=%v", f.Name, c.k, c.kill, c.wire), func(t *testing.T) {
				warmup := pauseFunc(t, f, c.k)
				docs, ids, err := search.PartitionCheckpoint(warmup, c.k)
				if err != nil {
					t.Fatalf("partition: %v", err)
				}
				if len(docs) != c.k {
					t.Fatalf("got %d shard documents", len(docs))
				}
				shards := make([]search.ShardSpace, len(docs))
				for i, doc := range docs {
					// The kill cell SIGKILLs the last shard holder: with
					// k=1 that is the whole enumeration, with k>1 the
					// other shards complete cleanly alongside it.
					victim := c.kill && i == len(docs)-1
					res := completeShard(t, doc, victim, nil)
					if c.wire {
						res = wire(t, res)
					}
					shards[i] = search.ShardSpace{Res: res, FrontierIDs: ids[i]}
				}
				merged, err := search.MergeShards(warmup, shards)
				if err != nil {
					t.Fatalf("merge: %v", err)
				}
				if merged.Aborted {
					t.Fatalf("merged result aborted: %s", merged.AbortReason)
				}
				if !bytes.Equal(canonical(t, merged), wantDefault) {
					t.Fatalf("merged space differs from the single-node run")
				}
				if c.wire {
					merged = wire(t, merged)
				}
				derived, err := search.DeriveEquiv(merged, search.Options{})
				if err != nil {
					t.Fatalf("derive-equiv: %v", err)
				}
				if !bytes.Equal(canonical(t, derived), wantEquiv) {
					t.Fatalf("derived equiv space differs from the single-node equiv run")
				}
			})
		}
	}
}

// TestPartitionCheckpointShape checks the partitioner's invariants:
// deterministic documents, a disjoint cover of the frontier in
// discovery order, sizes differing by at most one, and every document
// independently loadable with the full node table.
func TestPartitionCheckpointShape(t *testing.T) {
	const k = 3
	warmup := pauseAt(t, sumSrc, "sum", k)
	docs, ids, err := search.PartitionCheckpoint(warmup, k)
	if err != nil {
		t.Fatal(err)
	}
	docs2, _, err := search.PartitionCheckpoint(warmup, k)
	if err != nil {
		t.Fatal(err)
	}
	frontier := warmup.Checkpoint.Frontier
	var seen []int
	min, max := len(frontier), 0
	for i := range docs {
		if !bytes.Equal(docs[i], docs2[i]) {
			t.Fatalf("shard %d document is not deterministic", i)
		}
		if len(ids[i]) == 0 {
			t.Fatalf("shard %d is empty", i)
		}
		if len(ids[i]) < min {
			min = len(ids[i])
		}
		if len(ids[i]) > max {
			max = len(ids[i])
		}
		seen = append(seen, ids[i]...)
		loaded, err := search.Load(bytes.NewReader(docs[i]))
		if err != nil {
			t.Fatalf("shard %d does not load: %v", i, err)
		}
		if len(loaded.Nodes) != len(warmup.Nodes) {
			t.Fatalf("shard %d carries %d nodes, base has %d", i, len(loaded.Nodes), len(warmup.Nodes))
		}
		if loaded.Checkpoint == nil || len(loaded.Checkpoint.Frontier) != len(ids[i]) {
			t.Fatalf("shard %d checkpoint does not match its frontier subset", i)
		}
		for j, n := range loaded.Checkpoint.Frontier {
			if n.ID != ids[i][j] {
				t.Fatalf("shard %d frontier[%d] = node %d, want %d", i, j, n.ID, ids[i][j])
			}
		}
	}
	if max-min > 1 {
		t.Fatalf("shard sizes range from %d to %d, want a difference of at most 1", min, max)
	}
	if len(seen) != len(frontier) {
		t.Fatalf("shards cover %d frontier nodes, base frontier has %d", len(seen), len(frontier))
	}
	for i, n := range frontier {
		if seen[i] != n.ID {
			t.Fatalf("cover[%d] = node %d, want %d (discovery order)", i, seen[i], n.ID)
		}
	}
}

// TestStopAtFrontierResumeInMemory checks the warmup pause composes
// with a direct in-memory Resume: pausing and continuing yields the
// reference space without any serialization round trip.
func TestStopAtFrontierResumeInMemory(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	want := canonical(t, search.Run(f, search.Options{}))
	warmup := pauseAt(t, sumSrc, "sum", 2)
	resumed, err := search.Resume(warmup, search.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Aborted {
		t.Fatalf("resumed run aborted: %s", resumed.AbortReason)
	}
	if !bytes.Equal(canonical(t, resumed), want) {
		t.Fatal("pause + in-memory resume differs from the uninterrupted run")
	}
}

// TestDeriveEquivMatchesDirectRun checks equivalence derivation on its
// own, without sharding: for several functions (and with the semantic
// checker on, so CheckErr records must survive the derivation), the
// space derived from a complete default-tier run — in memory and off
// the wire — is byte-identical to running the equivalence tier
// directly.
func TestDeriveEquivMatchesDirectRun(t *testing.T) {
	cases := []struct {
		src, fn string
		check   bool
	}{
		{smallSrc, "clamp", false},
		{gcdSrc, "gcd", false},
		{sumSrc, "sum", false},
		{sumSrc, "sum", true},
	}
	for _, tc := range cases {
		for _, overWire := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s,check=%v,wire=%v", tc.fn, tc.check, overWire), func(t *testing.T) {
				_, f := compileFunc(t, tc.src, tc.fn)
				full := search.Run(f, search.Options{Check: tc.check})
				if full.Aborted {
					t.Fatalf("default run aborted: %s", full.AbortReason)
				}
				if overWire {
					full = wire(t, full)
				}
				want := search.Run(f, search.Options{Equiv: true, Check: tc.check})
				if want.Aborted {
					t.Fatalf("equiv run aborted: %s", want.AbortReason)
				}
				got, err := search.DeriveEquiv(full, search.Options{Check: tc.check})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(canonical(t, got), canonical(t, want)) {
					t.Fatal("derived equiv space differs from the direct equiv run")
				}
				if got.Equiv.Raw != want.Equiv.Raw || got.Equiv.Merged != want.Equiv.Merged {
					t.Fatalf("equiv stats differ: derived %d/%d raw/merged, direct %d/%d",
						got.Equiv.Raw, got.Equiv.Merged, want.Equiv.Raw, want.Equiv.Merged)
				}
			})
		}
	}
}

// corruptSpace rewrites a saved space's JSON document through mutate
// and loads the result: a well-formed file whose content lies.
func corruptSpace(t *testing.T, r *search.Result, mutate func(nodes []any)) (*search.Result, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	dec := json.NewDecoder(gz)
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	mutate(doc["nodes"].([]any))
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if err := json.NewEncoder(zw).Encode(doc); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return search.Load(&out)
}

// TestDeriveEquivRejectsCorruptSource feeds DeriveEquiv well-formed
// files that lie. An edge relabeled with an unknown phase, or with a
// phase that is dormant on the parent, loads cleanly, and derivation
// reads no edge: it yields the direct equivalence-tier run's space. A
// child whose canonical key was altered is turned away by Load, with an
// error value naming the defect. There is no recover() behind this: a
// panic fails the test.
func TestDeriveEquivRejectsCorruptSource(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	full := search.Run(f, search.Options{})
	root := full.Root()
	var dormant byte
	for _, p := range opt.All() {
		active := false
		for _, e := range root.Edges {
			active = active || e.Phase == p.ID()
		}
		if !active && opt.Enabled(p, root.State) {
			dormant = p.ID()
			break
		}
	}
	if dormant == 0 || len(root.Edges) == 0 {
		t.Fatal("the root needs an active and an enabled-but-dormant phase")
	}
	firstEdge := func(nodes []any) map[string]any {
		return nodes[0].(map[string]any)["edges"].([]any)[0].(map[string]any)
	}
	want := canonical(t, search.Run(f, search.Options{Equiv: true}))
	cases := []struct {
		name, want string // want: the defect Load names; "" loads
		mutate     func(nodes []any)
	}{
		{"unknown phase", "", func(nodes []any) { firstEdge(nodes)["Phase"] = 1 }},
		{"dormant phase", "", func(nodes []any) { firstEdge(nodes)["Phase"] = int(dormant) }},
		{"child key", "canonical key", func(nodes []any) {
			child := nodes[root.Edges[0].To].(map[string]any)
			key, err := base64.StdEncoding.DecodeString(child["key"].(string))
			if err != nil {
				t.Fatal(err)
			}
			key[len(key)-1] ^= 0x40
			child["key"] = base64.StdEncoding.EncodeToString(key)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := corruptSpace(t, full, tc.mutate)
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("loading the corrupt source: %v, want an error naming the %s", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("loading the corrupt source: %v", err)
			}
			got, err := search.DeriveEquiv(src, search.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canonical(t, got), want) {
				t.Fatal("derivation from a lying source differs from the direct equiv run")
			}
		})
	}
}

// TestShardMergeRefusesFaultedShard injects a deterministic phase panic
// at a frontier-node attempt of one shard. The merge runs no fault
// plan, so its serial run expands that node normally, and the shard's
// quarantined edge disagrees with it: the merge must refuse, naming the
// node's sequence, rather than serve either space.
func TestShardMergeRefusesFaultedShard(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	const k = 2
	warmup := pauseAt(t, sumSrc, "sum", k)

	// Pick a phase that is active at the first frontier node: the
	// reference space records its expansion under the same sequence.
	ref := search.Run(f, search.Options{})
	bySeq := make(map[string]*search.Node, len(ref.Nodes))
	for _, n := range ref.Nodes {
		bySeq[n.Seq] = n
	}
	var seq string
	var phase byte
	for _, n := range warmup.Checkpoint.Frontier {
		if rn := bySeq[n.Seq]; rn != nil && len(rn.Edges) > 0 {
			seq, phase = n.Seq, rn.Edges[0].Phase
			break
		}
	}
	if seq == "" {
		t.Fatal("no expandable frontier node in the reference space")
	}
	faults := faultinject.MustParse("panic=" + string(phase) + "@" + seq)

	docs, ids, err := search.PartitionCheckpoint(warmup, k)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]search.ShardSpace, len(docs))
	quarantined := 0
	for i, doc := range docs {
		res := completeShard(t, doc, false, faults)
		quarantined += res.Stats.Quarantined
		shards[i] = search.ShardSpace{Res: res, FrontierIDs: ids[i]}
	}
	if quarantined == 0 {
		t.Fatal("fault plan never fired in the shards")
	}
	merged, err := search.MergeShards(warmup, shards)
	if err == nil {
		t.Fatalf("merged %d nodes from a shard that quarantined what the serial run expands", len(merged.Nodes))
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%q", seq)) {
		t.Fatalf("merge error %q does not name the sequence %q", err, seq)
	}
}

// TestMergeShardsRejectsBadInput checks the merge fails loudly — not
// with a corrupt space — on bad input: an uncovered frontier, an
// incomplete shard, a double-claimed frontier subset, and a well-formed
// shard document whose edge lies about its phase.
func TestMergeShardsRejectsBadInput(t *testing.T) {
	const k = 2
	warmup := pauseAt(t, sumSrc, "sum", k)
	docs, ids, err := search.PartitionCheckpoint(warmup, k)
	if err != nil {
		t.Fatal(err)
	}
	complete := func(i int) *search.Result { return completeShard(t, docs[i], false, nil) }

	if _, err := search.MergeShards(warmup, []search.ShardSpace{
		{Res: complete(0), FrontierIDs: ids[0]},
	}); err == nil {
		t.Fatal("merge accepted an uncovered frontier")
	}
	incomplete, err := search.Load(bytes.NewReader(docs[1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := search.MergeShards(warmup, []search.ShardSpace{
		{Res: complete(0), FrontierIDs: ids[0]},
		{Res: incomplete, FrontierIDs: ids[1]},
	}); err == nil {
		t.Fatal("merge accepted an incomplete shard")
	}
	if _, err := search.MergeShards(warmup, []search.ShardSpace{
		{Res: complete(0), FrontierIDs: ids[0]},
		{Res: complete(1), FrontierIDs: ids[0]},
	}); err == nil {
		t.Fatal("merge accepted a double-claimed frontier subset")
	}

	// Relabel the first edge of the first node the shard expanded with
	// a phase that node has no edge of.
	shard := complete(1)
	var lied *search.Node
	for _, n := range shard.Nodes[len(warmup.Nodes):] {
		if len(n.Edges) > 0 {
			lied = n
			break
		}
	}
	if lied == nil {
		t.Fatal("shard 1 expanded no node with an active phase")
	}
	var relabel byte
	for _, p := range opt.All() {
		if !slices.ContainsFunc(lied.Edges, func(e search.Edge) bool { return e.Phase == p.ID() }) {
			relabel = p.ID()
			break
		}
	}
	liar, err := corruptSpace(t, shard, func(nodes []any) {
		nodes[lied.ID].(map[string]any)["edges"].([]any)[0].(map[string]any)["Phase"] = int(relabel)
	})
	if err != nil {
		t.Fatalf("loading the relabeled shard: %v", err)
	}
	if _, err := search.MergeShards(warmup, []search.ShardSpace{
		{Res: complete(0), FrontierIDs: ids[0]},
		{Res: liar, FrontierIDs: ids[1]},
	}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", lied.Seq)) {
		t.Fatalf("merge of a shard with a relabeled edge at %q: %v, want an error naming it", lied.Seq, err)
	}
}
