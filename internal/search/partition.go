package search

import (
	"bytes"
	"fmt"
)

// PartitionCheckpoint splits a paused enumeration's frontier into k
// contiguous, disjoint sub-checkpoints and returns them as serialized
// v2 space documents, each one a valid checkpoint Load + Resume accept.
// Every shard document carries the full node table — a shard resuming
// from it rebuilds the complete dedup index, so cross-shard duplicate
// instances merge into the shared base nodes exactly as they would in a
// serial run — and differs only in its checkpoint section, which holds
// shard i's slice of the frontier (sizes differ by at most one; k is
// clamped to the frontier size).
//
// The second return value lists each shard's frontier node IDs, in the
// base frontier's discovery order; MergeShards needs them to tell a
// shard's own expansions apart from foreign frontier nodes it never
// touched. The split is deterministic: partitioning the same result
// with the same k yields byte-identical documents.
func PartitionCheckpoint(r *Result, k int) ([][]byte, [][]int, error) {
	cp := r.Checkpoint
	if cp == nil {
		return nil, nil, fmt.Errorf("search: partition: result has no checkpoint frontier")
	}
	if r.Aborted {
		return nil, nil, fmt.Errorf("search: partition: result is aborted (%s)", r.AbortReason)
	}
	if r.Equiv != nil {
		return nil, nil, fmt.Errorf("search: partition: equivalence-collapsed spaces are not partitionable")
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("search: partition: need k >= 1 shards, got %d", k)
	}
	for i, n := range cp.Frontier {
		if n.fn == nil {
			return nil, nil, fmt.Errorf("search: partition: frontier node %d (id %d) has no retained instance", i, n.ID)
		}
	}
	if k > len(cp.Frontier) {
		k = len(cp.Frontier)
	}
	// Render the whole paused result once — the shared node table is
	// encoded once — and cut its resume section k ways.
	ff := r.document(r.whole())
	all := ff.Checkpoint
	docs := make([][]byte, 0, k)
	ids := make([][]int, 0, k)
	quo, rem := len(cp.Frontier)/k, len(cp.Frontier)%k
	start := 0
	for i := 0; i < k; i++ {
		end := start + quo
		if i < rem {
			end++
		}
		ff.Checkpoint = &fileCheckpoint{Frontier: all.Frontier[start:end:end], Bodies: all.Bodies[start:end:end]}
		var buf bytes.Buffer
		if err := writeFormat(&buf, ff); err != nil {
			return nil, nil, fmt.Errorf("search: partition: shard %d: %w", i, err)
		}
		docs = append(docs, buf.Bytes())
		ids = append(ids, ff.Checkpoint.Frontier)
		start = end
	}
	return docs, ids, nil
}
