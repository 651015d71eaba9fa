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
	if k > len(cp.Frontier) {
		k = len(cp.Frontier)
	}
	// Each shard is the paused result with its resume section cut down
	// to the shard's slice of the frontier: one snapshot per shard. The
	// other shards' frontier nodes render as they stand, and a paused
	// result's frontier nodes have no edges yet, so every shard carries
	// the same node table.
	whole := r.whole()
	docs := make([][]byte, 0, k)
	ids := make([][]int, 0, k)
	quo, rem := len(cp.Frontier)/k, len(cp.Frontier)%k
	start := 0
	for i := 0; i < k; i++ {
		end := start + quo
		if i < rem {
			end++
		}
		v := whole
		v.frontier = cp.Frontier[start:end:end]
		var buf bytes.Buffer
		if err := r.render(&buf, v); err != nil {
			return nil, nil, fmt.Errorf("search: partition: shard %d: %w", i, err)
		}
		shard := make([]int, len(v.frontier))
		for j, n := range v.frontier {
			shard[j] = n.ID
		}
		docs = append(docs, buf.Bytes())
		ids = append(ids, shard)
		start = end
	}
	return docs, ids, nil
}
