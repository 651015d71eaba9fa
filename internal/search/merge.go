package search

import "fmt"

// ShardSpace pairs one completed sub-space with the slice of the base
// frontier it was assigned (PartitionCheckpoint's second return value,
// in base discovery order).
type ShardSpace struct {
	Res *Result
	// FrontierIDs are the base-table node IDs of the frontier subset
	// this shard resumed from. They distinguish the shard's own
	// expansions from foreign frontier nodes, which sit edge-less in
	// its node table and would otherwise read as all-dormant leaves.
	FrontierIDs []int
}

// MergeShards reassembles the space of base's function from completed
// shard sub-spaces, producing the Result a serial run from the base
// checkpoint produces — byte-identical under canonical serialization,
// because it is that run. base must be a paused (or loaded) result whose
// checkpoint frontier the shards' FrontierIDs cover disjointly; every
// shard must be complete (no checkpoint, not aborted) and enumerate the
// same function. The merge Resumes a copy of base under base's phases,
// caps and check setting (base stays usable, its frontier instances
// untouched), then holds every shard to the result: each instance a
// shard expanded must be in the serial space with the same facts and
// the same edges, phase by phase. A shard that disagrees — a corrupt
// document, a worker that ran other phases or faults — fails the merge
// with an error naming the sequence. If a cap binds, the result aborts
// with the serial run's reason and the shards are not held to it: an
// aborted run leaves part of the space unexpanded.
func MergeShards(base *Result, shards []ShardSpace) (*Result, error) {
	cp := base.Checkpoint
	if cp == nil {
		return nil, fmt.Errorf("search: merge: base result has no checkpoint frontier")
	}
	if base.Aborted {
		return nil, fmt.Errorf("search: merge: base result is aborted (%s)", base.AbortReason)
	}
	if base.Equiv != nil {
		return nil, fmt.Errorf("search: merge: equivalence-collapsed bases are not shardable")
	}
	baseN := len(base.Nodes)
	owner := make(map[int]int, len(cp.Frontier)) // frontier node ID → the shard that claims it
	for i, sh := range shards {
		s := sh.Res
		if s == nil {
			return nil, fmt.Errorf("search: merge: shard %d is missing", i)
		}
		if s.Checkpoint != nil {
			return nil, fmt.Errorf("search: merge: shard %d is not complete (checkpoint frontier remains)", i)
		}
		if s.Aborted {
			return nil, fmt.Errorf("search: merge: shard %d aborted: %s", i, s.AbortReason)
		}
		if s.FuncName != base.FuncName {
			return nil, fmt.Errorf("search: merge: shard %d enumerates %q, base is %q", i, s.FuncName, base.FuncName)
		}
		if len(s.Nodes) < baseN {
			return nil, fmt.Errorf("search: merge: shard %d has %d nodes, fewer than the %d-node base table", i, len(s.Nodes), baseN)
		}
		for _, id := range sh.FrontierIDs {
			if id < 0 || id >= baseN {
				return nil, fmt.Errorf("search: merge: shard %d claims frontier node %d, outside the %d-node base table", i, id, baseN)
			}
			if _, dup := owner[id]; dup {
				return nil, fmt.Errorf("search: merge: frontier node %d claimed by two shards", id)
			}
			owner[id] = i
		}
	}
	for _, n := range cp.Frontier {
		if _, ok := owner[n.ID]; !ok {
			return nil, fmt.Errorf("search: merge: frontier node %d not covered by any shard", n.ID)
		}
	}

	// Resume consumes its frontier's instances and appends the frontier
	// nodes' edges, so it gets copies of both.
	res := &Result{
		FuncName:        base.FuncName,
		Nodes:           make([]*Node, baseN),
		AttemptedPhases: base.AttemptedPhases,
		Elapsed:         base.Elapsed,
		Stats:           base.Stats,
		Checkpoint:      &Checkpoint{Frontier: make([]*Node, len(cp.Frontier))},
		root:            base.root,
		opts:            base.opts,
	}
	for i, n := range base.Nodes {
		m := *n
		res.Nodes[i] = &m
	}
	for i, n := range cp.Frontier {
		m := res.Nodes[n.ID]
		m.fn = n.fn.Clone()
		res.Checkpoint.Frontier[i] = m
	}
	o := base.opts
	res, err := Resume(res, Options{Phases: o.Phases, MaxSeqPerLevel: o.MaxSeqPerLevel, MaxNodes: o.MaxNodes, Check: o.Check})
	if err != nil {
		return nil, fmt.Errorf("search: merge: %w", err)
	}
	if res.Aborted {
		return res, nil
	}
	byKey := make(map[string]*Node, len(res.Nodes))
	for _, n := range res.Nodes {
		byKey[n.key] = n
	}
	for i, sh := range shards {
		for _, n := range sh.Res.Nodes {
			if o, ok := owner[n.ID]; n.Quarantine != "" || (n.ID < baseN && (!ok || o != i)) {
				continue // a dead end, or a node this shard never expanded
			}
			if err := sameExpansion(sh.Res, n, res, byKey[n.key]); err != nil {
				return nil, fmt.Errorf("search: merge: shard %d: node %d (seq %q): %w", i, n.ID, n.Seq, err)
			}
		}
	}
	return res, nil
}

// sameExpansion reports how shard node n, of space s, departs from the
// serial run's node m with the same key (nil: not discovered). The
// instances must agree on their facts and edges, phase by phase; a
// quarantined child matches a quarantined child whatever its message
// says, since messages quote the shard-relative sequence.
func sameExpansion(s *Result, n *Node, serial *Result, m *Node) error {
	switch {
	case m == nil:
		return fmt.Errorf("the serial run never discovers this instance")
	case n.FP != m.FP || n.CFKey != m.CFKey || n.CheckErr != m.CheckErr:
		return fmt.Errorf("the serial run records other facts of this instance")
	case len(n.Edges) != len(m.Edges):
		return fmt.Errorf("%d active phases here, the serial run has %d", len(n.Edges), len(m.Edges))
	}
	for j, e := range n.Edges {
		c, sc := s.Nodes[e.To], serial.Nodes[m.Edges[j].To]
		if e.Phase != m.Edges[j].Phase || (c.Quarantine == "") != (sc.Quarantine == "") || (c.Quarantine == "" && c.key != sc.key) {
			return fmt.Errorf("edge %d (phase %q) differs from the serial run's (phase %q)", j, e.Phase, m.Edges[j].Phase)
		}
	}
	return nil
}
