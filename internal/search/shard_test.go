package search_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/search"
	"repro/internal/telemetry"
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

// phaseApplications sums the opt.attempt.* counters of a registry: how
// many times opt.Attempt ran since opt.Metrics was pointed at it.
func phaseApplications(reg *telemetry.Registry) int64 {
	var n int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "opt.attempt.") {
			n += v
		}
	}
	return n
}

// TestDeriveEquivPhaseApplications is the exact-count form of the
// derivation's cost claim: a child instance is one phase application
// away from its retained parent (Figure 6(b)), so deriving costs at
// most Equiv.Raw applications — never a replay from the root, and
// fewer than the live tier, which pays one per attempt.
func TestDeriveEquivPhaseApplications(t *testing.T) {
	_, sum := compileFunc(t, sumSrc, "sum")
	_, gcd := compileFunc(t, gcdSrc, "gcd")
	funcs := []*rtl.Func{sum, gcd}
	if !testing.Short() {
		funcs = append(funcs, mibenchFunc(t, "jpeg", "get_code"))
	}
	defer func(prev *opt.PhaseMetrics) { opt.Metrics = prev }(opt.Metrics)
	for _, f := range funcs {
		full := wire(t, search.Run(f, search.Options{}))
		if f.Name == "get_code" && full.Stats.Levels < 10 {
			t.Fatalf("get_code enumerated %d levels; the corpus cell needs a deep space", full.Stats.Levels)
		}
		reg := telemetry.NewRegistry()
		opt.Metrics = opt.NewPhaseMetrics(reg)
		derived, err := search.DeriveEquiv(full, search.Options{})
		opt.Metrics = nil
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		got, raw := phaseApplications(reg), int64(derived.Equiv.Raw)
		if got == 0 || got > raw {
			t.Errorf("%s: derivation applied %d phases for %d raw-distinct instances (%d attempts in the live tier)",
				f.Name, got, raw, derived.AttemptedPhases)
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
// files that lie — an edge relabeled with an unknown phase, an edge
// relabeled with a phase that is dormant on the parent, which load
// cleanly, and a child whose canonical key was altered, which Load
// already turns away — and requires an error value naming the defect.
// There is no recover() behind this: a panic fails the test.
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
	cases := []struct {
		name, want string
		mutate     func(nodes []any)
	}{
		{"unknown phase", "unknown phase", func(nodes []any) { firstEdge(nodes)["Phase"] = 1 }},
		{"dormant phase", "dormant", func(nodes []any) { firstEdge(nodes)["Phase"] = int(dormant) }},
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
			if (err == nil) != (tc.name != "child key") {
				t.Fatalf("loading the corrupt source: %v", err)
			}
			if err == nil {
				var got *search.Result
				if got, err = search.DeriveEquiv(src, search.Options{}); err == nil {
					t.Fatalf("derived %d nodes from a corrupt source", len(got.Nodes))
				}
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the defect (%s)", err, tc.want)
			}
		})
	}
}

// TestShardMergeQuarantineParity injects a deterministic phase panic
// at a frontier-node attempt — frontier sequences are fixed by the
// base table, so the same attempt quarantines in the owning shard and
// in the single-node reference — and checks the quarantine record
// survives partition, shard enumeration and merge byte-identically.
func TestShardMergeQuarantineParity(t *testing.T) {
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
	plan := "panic=" + string(phase) + "@" + seq
	faults := faultinject.MustParse(plan)
	refQ := search.Run(f, search.Options{Faults: faultinject.MustParse(plan)})
	if refQ.Aborted {
		t.Fatalf("faulted reference run aborted: %s", refQ.AbortReason)
	}
	if refQ.Stats.Quarantined == 0 {
		t.Fatal("fault plan never fired in the reference run")
	}

	docs, ids, err := search.PartitionCheckpoint(warmup, k)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]search.ShardSpace, len(docs))
	for i, doc := range docs {
		shards[i] = search.ShardSpace{
			Res:         completeShard(t, doc, false, faults),
			FrontierIDs: ids[i],
		}
	}
	merged, err := search.MergeShards(warmup, shards)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if merged.Stats.Quarantined == 0 {
		t.Fatal("quarantine record lost in the merge")
	}
	if !bytes.Equal(canonical(t, merged), canonical(t, refQ)) {
		t.Fatal("merged quarantined space differs from the single-node faulted run")
	}
}

// TestMergeShardsRejectsBadInput checks the merge fails loudly — not
// with a corrupt space — on the inputs the coordinator can actually
// see: incomplete shards, foreign functions, uncovered or
// double-claimed frontier nodes.
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
}
