package search_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mibench"
	"repro/internal/rtl"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// mibenchFunc compiles one benchmark and returns the named function.
func mibenchFunc(t *testing.T, bench, fn string) *rtl.Func {
	t.Helper()
	p, err := mibench.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func(fn)
	if f == nil {
		t.Fatalf("%s: no function %q", bench, fn)
	}
	return f
}

// TestDefaultSpaceParity pins the enumerated spaces of a spread of
// MiBench functions, by canonical hash, to the values the engine
// produced before the equivalence tier existed. A change to any of
// these hashes means the default (Equiv off) enumeration is no longer
// byte-identical to what it was — which the equivalence tier must
// never cause. The equiv rows pin the collapsed spaces the same way
// (bench/expected_hashes.json holds the same values), rle_block being
// the one that collapses. Every row holds at one worker and at four,
// where workers skip the class keys of slots already committed.
func TestDefaultSpaceParity(t *testing.T) {
	cases := []struct {
		bench, fn string
		equiv     bool
		nodes     int
		hash      string
	}{
		{"dijkstra", "enqueue", false, 7, "5713b396f094d43c313d6b028b7fd1ccb624c81016a9fbd6553b42f46115c5f2"},
		{"sha", "rotl", false, 37, "de70226c5c516348792bcefeccb2bc9665552583cf90abbad4b8a1b19d4c8640"},
		{"stringsearch", "tolower_c", false, 20, "177f61126d4f656e0f363c5aa25c41d5f68e4d868b1952c58d1c85cfa76f452a"},
		{"sha", "sha_transform", false, 3844, "cfa7ea149006491c342c20e0e53678f55d978f9b27e1bbda6d060d6e61b7819b"},
		{"sha", "rotl", true, 37, "dfe9f07311cf3a86a934a2b0f8a76d3a6cfd08b7f680c11af36fc200b7b10fa0"},
		{"stringsearch", "tolower_c", true, 20, "ce2a0dd601419ee57588e9777f9ee6fc5f75a6fdd575491d0003aeffb9a62079"},
		{"jpeg", "get_code", true, 1426, "109c1433be3f83bc9bf41d95faf0ba50ede277ede545f796806cabf33bc8d266"},
		{"jpeg", "rle_block", true, 2443, "d513cf5b3b71496071fc95df8b29b221c8bf66d41dfcbeb11d95c6bea366f21e"},
	}
	for _, tc := range cases {
		if testing.Short() && tc.nodes > 1000 && tc.fn != "rle_block" {
			continue
		}
		f := mibenchFunc(t, tc.bench, tc.fn)
		for _, w := range []int{1, 4} {
			name := fmt.Sprintf("%s/%s equiv=%v workers=%d", tc.bench, tc.fn, tc.equiv, w)
			r := search.Run(f, search.Options{MaxNodes: 6000, Equiv: tc.equiv, Workers: w})
			if r.Aborted {
				t.Fatalf("%s: aborted: %s", name, r.AbortReason)
			}
			if len(r.Nodes) != tc.nodes {
				t.Errorf("%s: %d nodes, want %d", name, len(r.Nodes), tc.nodes)
			}
			h, err := r.CanonicalHash()
			if err != nil {
				t.Fatal(err)
			}
			if h != tc.hash {
				t.Errorf("%s: canonical hash drifted\n got %s\nwant %s", name, h, tc.hash)
			}
			if tc.equiv {
				checkEquivInvariants(t, name, r)
				continue
			}
			if r.Equiv != nil {
				t.Errorf("%s: Equiv stats present on a default run", name)
			}
			for _, n := range r.Nodes {
				if n.EquivRaw != 0 {
					t.Fatalf("%s: node %d has EquivRaw=%d on a default run", name, n.ID, n.EquivRaw)
				}
			}
		}
	}
}

// checkEquivInvariants asserts the structural accounting of an
// equivalence-collapsed space and returns the non-quarantined node
// count.
func checkEquivInvariants(t *testing.T, name string, r *search.Result) int {
	t.Helper()
	if r.Equiv == nil {
		t.Fatalf("%s: equiv run has no Equiv stats", name)
	}
	live, sum := 0, 0
	for _, n := range r.Nodes {
		if n.Quarantine != "" {
			if n.EquivRaw != 0 {
				t.Fatalf("%s: quarantined node %d has EquivRaw=%d", name, n.ID, n.EquivRaw)
			}
			continue
		}
		if n.EquivRaw < 1 {
			t.Fatalf("%s: node %d has EquivRaw=%d, want >= 1", name, n.ID, n.EquivRaw)
		}
		live++
		sum += n.EquivRaw
	}
	if got := r.Equiv.Raw - r.Equiv.Merged; got != live {
		t.Fatalf("%s: Raw-Merged = %d, but %d non-quarantined nodes", name, got, live)
	}
	if sum != r.Equiv.Raw {
		t.Fatalf("%s: sum of EquivRaw = %d, but Raw = %d", name, sum, r.Equiv.Raw)
	}
	byPhase := 0
	for _, c := range r.Equiv.RedundantByPhase {
		byPhase += c
	}
	if byPhase != r.Equiv.Merged {
		t.Fatalf("%s: RedundantByPhase sums to %d, but Merged = %d", name, byPhase, r.Equiv.Merged)
	}
	return live
}

// TestEquivCollapseMiBench enumerates every MiBench function whose
// space fits a small cap twice — identical-only and equivalence-
// collapsed — and checks the acceptance property: the collapsed node
// count never exceeds the identical-only one, and the collapse
// accounting is internally consistent.
func TestEquivCollapseMiBench(t *testing.T) {
	fns, err := mibench.AllFunctions()
	if err != nil {
		t.Fatal(err)
	}
	const cap = 400
	compared := 0
	for _, tf := range fns {
		name := tf.Bench + "/" + tf.Func.Name
		raw := search.Run(tf.Func, search.Options{MaxNodes: cap})
		if raw.Aborted {
			continue // too big for the test cap either way
		}
		eq := search.Run(tf.Func, search.Options{MaxNodes: cap, Equiv: true})
		if eq.Aborted {
			t.Fatalf("%s: equiv run aborted (%s) though the raw run completed", name, eq.AbortReason)
		}
		if len(eq.Nodes) > len(raw.Nodes) {
			t.Errorf("%s: equiv space has %d nodes, raw space %d — collapse grew the space",
				name, len(eq.Nodes), len(raw.Nodes))
		}
		checkEquivInvariants(t, name, eq)
		compared++
		if testing.Short() && compared >= 8 {
			break
		}
	}
	if compared == 0 {
		t.Fatal("no MiBench function fit the test cap")
	}
	t.Logf("compared %d functions", compared)
}

// TestEquivCollapseRleBlock pins the headline collapse: branch
// chaining is active throughout jpeg/rle_block's space and each of its
// applications only reshuffles jump spellings, so the equivalence tier
// folds roughly half the raw-distinct instances away.
func TestEquivCollapseRleBlock(t *testing.T) {
	f := mibenchFunc(t, "jpeg", "rle_block")
	raw := search.Run(f, search.Options{MaxNodes: 6000})
	if raw.Aborted {
		t.Fatalf("raw run aborted: %s", raw.AbortReason)
	}
	eq := search.Run(f, search.Options{MaxNodes: 6000, Equiv: true})
	if eq.Aborted {
		t.Fatalf("equiv run aborted: %s", eq.AbortReason)
	}
	checkEquivInvariants(t, "rle_block", eq)
	if eq.Equiv.Merged == 0 {
		t.Fatal("rle_block space merged no equivalence classes")
	}
	if len(eq.Nodes) >= len(raw.Nodes) {
		t.Fatalf("collapse did not shrink the space: %d vs %d raw nodes", len(eq.Nodes), len(raw.Nodes))
	}
	if r := eq.Equiv.CollapseRatio(); r < 0.25 {
		t.Errorf("collapse ratio %.3f, expected at least 0.25 on rle_block", r)
	}
	if eq.Equiv.RedundantByPhase["b"] == 0 {
		t.Error("expected branch chaining to be attributed redundant instances")
	}
	t.Logf("raw %d nodes; equiv %d nodes; Raw=%d Merged=%d byPhase=%v",
		len(raw.Nodes), len(eq.Nodes), eq.Equiv.Raw, eq.Equiv.Merged, eq.Equiv.RedundantByPhase)
}

// TestEquivDeterministicParallel checks that the collapsed enumeration
// is deterministic regardless of worker parallelism: a -jobs style
// concurrent run must serialize byte-identically to the serial one.
func TestEquivDeterministicParallel(t *testing.T) {
	f := mibenchFunc(t, "jpeg", "rle_block")
	opts := search.Options{MaxNodes: 6000, Equiv: true, Metrics: telemetry.NewRegistry()}
	opts.Workers = 1
	serial := search.Run(f, opts)
	opts.Workers = 8
	opts.Metrics = telemetry.NewRegistry()
	parallel := search.Run(f, opts)
	if serial.Aborted || parallel.Aborted {
		t.Fatalf("aborted: %q / %q", serial.AbortReason, parallel.AbortReason)
	}
	a, err := serial.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("equiv enumeration differs between 1 and 8 workers (%d vs %d nodes)",
			len(serial.Nodes), len(parallel.Nodes))
	}
	checkEquivInvariants(t, "rle_block", serial)
	if serial.Equiv.Merged == 0 {
		t.Error("rle_block space merged no equivalence classes — expected some collapse")
	}
}

// TestEquivSerializeRoundTrip checks that an equivalence-collapsed
// space survives Save/Load with its version, collapse summary and
// per-node counts intact.
func TestEquivSerializeRoundTrip(t *testing.T) {
	f := mibenchFunc(t, "sha", "rotl")
	r := search.Run(f, search.Options{Equiv: true})
	if r.Aborted {
		t.Fatalf("aborted: %s", r.AbortReason)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := search.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Equiv == nil || got.Equiv.Raw != r.Equiv.Raw || got.Equiv.Merged != r.Equiv.Merged {
		t.Fatalf("Equiv stats did not round-trip: %+v vs %+v", got.Equiv, r.Equiv)
	}
	for i, n := range r.Nodes {
		if got.Nodes[i].EquivRaw != n.EquivRaw {
			t.Fatalf("node %d: EquivRaw %d -> %d", i, n.EquivRaw, got.Nodes[i].EquivRaw)
		}
	}
	ra, err := r.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	ga, err := got.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, ga) {
		t.Fatal("canonical bytes changed across a save/load round trip")
	}
}

// TestEquivCheckpointInteraction holds the equivalence tier to the
// default tier's durability contract: a capped equiv run's checkpoint
// resumes, under a raised cap, to the space an uninterrupted run hashes
// to, the final write is that space's canonical bytes, and Resume
// refuses a checkpoint of the other tier, either way round.
func TestEquivCheckpointInteraction(t *testing.T) {
	dir := t.TempDir()
	f := mibenchFunc(t, "jpeg", "rle_block")
	clean := search.Run(f, search.Options{Equiv: true})
	want := canonical(t, clean)

	ckpt := filepath.Join(dir, "rle_block.ckpt.space.gz")
	if r := search.Run(f, search.Options{Equiv: true, MaxNodes: 300, CheckpointPath: ckpt}); !r.Aborted {
		t.Fatal("expected the capped run to abort")
	}
	loaded, err := search.LoadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Checkpoint == nil || loaded.Equiv == nil || loaded.Equiv.Merged == 0 {
		t.Fatalf("the capped run left no equiv checkpoint with folds (equiv %+v)", loaded.Equiv)
	}
	if _, err := search.Resume(loaded, search.Options{}); err == nil || !strings.Contains(err.Error(), "tier") {
		t.Fatalf("Resume of an equiv checkpoint in the default tier: err = %v, want a tier refusal", err)
	}
	resumed, err := search.Resume(loaded, search.Options{Equiv: true, CheckpointPath: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, resumed), want) {
		t.Fatal("resumed equiv space differs from the uninterrupted run")
	}
	checkEquivInvariants(t, "resumed rle_block", resumed)
	h, err := clean.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.SpacePath != ckpt || resumed.SpaceHash != h {
		t.Fatalf("final write: SpacePath %q, SpaceHash %s; want %q, %s", resumed.SpacePath, resumed.SpaceHash, ckpt, h)
	}
	if !bytes.Equal(mustLoadCanonical(t, ckpt), want) {
		t.Fatal("the final checkpoint file is not the uninterrupted space")
	}

	// The other way round: a default-tier checkpoint refuses Equiv.
	if r := search.Run(f, search.Options{MaxNodes: 50, CheckpointPath: ckpt}); !r.Aborted {
		t.Fatal("expected the capped run to abort")
	}
	if loaded, err = search.LoadFile(ckpt); err != nil || loaded.Checkpoint == nil {
		t.Fatalf("no default-tier checkpoint to resume (%v)", err)
	}
	if _, err := search.Resume(loaded, search.Options{Equiv: true}); err == nil || !strings.Contains(err.Error(), "tier") {
		t.Fatalf("Resume of a default-tier checkpoint under Equiv: err = %v, want a tier refusal", err)
	}
}

// TestEquivKillResumeRleBlock interrupts jpeg/rle_block's equiv
// enumeration — half its 4,886 raw-distinct instances fold — mid-level,
// once about half its nodes exist, and resumes it from the checkpoint
// the cancellation wrote. The level the cut lands in has folded
// spellings past the boundary; the checkpoint must hold the boundary's
// folds only, the resumed space must hash like an uninterrupted run's
// at every width, and the resumed run's search.equiv.merged must count
// only the folds it made itself.
func TestEquivKillResumeRleBlock(t *testing.T) {
	f := mibenchFunc(t, "jpeg", "rle_block")
	want := canonical(t, search.Run(f, search.Options{Equiv: true, Workers: 1}))
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "rle_block.ckpt.space.gz")
			ctx, cancel := context.WithCancel(context.Background())
			cut := search.Run(f, search.Options{Equiv: true, Workers: w, Ctx: ctx,
				Verifier: cancelAfter(cancel, 3000), CheckpointPath: ckpt})
			cancel()
			if !cut.Aborted {
				t.Fatal("the run finished before the cut")
			}
			loaded, err := search.LoadFile(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Checkpoint == nil || loaded.Equiv.Merged == 0 || loaded.Equiv.Merged >= cut.Equiv.Merged {
				t.Fatalf("cut at %d nodes (%d folds): checkpoint of %d nodes holds %d folds; want some, and fewer than the cut",
					len(cut.Nodes), cut.Equiv.Merged, len(loaded.Nodes), loaded.Equiv.Merged)
			}
			t.Logf("cut at %d of 2443 nodes, %d folds; checkpoint %d nodes, %d folds",
				len(cut.Nodes), cut.Equiv.Merged, len(loaded.Nodes), loaded.Equiv.Merged)
			reg, folded := telemetry.NewRegistry(), loaded.Equiv.Merged
			resumed, err := search.Resume(loaded, search.Options{Equiv: true, Workers: w, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canonical(t, resumed), want) {
				t.Fatalf("resumed space differs from the uninterrupted run (%d nodes, Raw %d, Merged %d)",
					len(resumed.Nodes), resumed.Equiv.Raw, resumed.Equiv.Merged)
			}
			if got, own := reg.Snapshot().Counters["search.equiv.merged"], resumed.Equiv.Merged-folded; got != int64(own) {
				t.Fatalf("search.equiv.merged = %d after the resume, want the %d folds it made", got, own)
			}
		})
	}
}
