package search

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/opt"
)

// The merge step reassembles one space from completed sub-spaces. The
// shards cannot simply be concatenated: node IDs must land in the
// serial engine's first-discovery order, Seq must be the
// lexicographically first shortest sequence *globally* (a node two
// shards both reach keeps the sequence the serial run would have found
// first), and the stats counters are part of the canonical hash. So
// the merge runs the engine from the base checkpoint — engine.run, the
// one level loop and commit path — with an evaluator that answers every
// "what does phase p do at instance n?" question from an oracle
// harvested out of the shard results instead of evaluating the phase.
// Byte identity with a serial run needs no argument beyond that: the
// answers are the same and everything done with them is the same code.
//
// Cost model: harvesting interns each input node's key (a map probe on
// the node's own string, nothing copied) into dense ids; answering then
// costs one edge probe per attempt, and its dedup slot is the interned
// instance itself. No cloning, no phase application, no key bytes
// touched again.

// oracleNode is what the inputs recorded about one distinct instance:
// its canonical key, the first input node that carried it (the facts
// the run answered from it creates its node with) and, once some input
// expanded it, the outcome of every phase that was active there.
type oracleNode struct {
	// slot is the instance's dedup slot, the same type the striped index
	// parks for a live discovery: key is the flags byte + canonical
	// encoding, id the result node this instance resolved to — as
	// itself, or folded into an equivalence class — and -1 until the run
	// discovers it. An oracle serves one run.
	slot
	src      *Node
	expanded bool
	edges    []oracleEdge // a phase without one was dormant
}

// oracleEdge is one harvested active attempt: the interned child it
// produced, or (to < 0) the quarantine it died with.
type oracleEdge struct {
	phase byte
	to    int32
	// quarantine is the failure message with the parent's shard-relative
	// quoted Seq replaced by seqToken, so records from different shards
	// compare equal and the replay can re-embed the serial sequence.
	quarantine string
}

// seqToken marks where a quarantine message embedded the parent's
// quoted sequence. NUL bytes cannot appear in a %q rendering, so the
// token never collides with message content.
const seqToken = "\x00parent-seq\x00"

// attemptOracle interns every instance its inputs mention by canonical
// key, so an instance is one int32 whichever shard (and node ID) spoke
// of it. The outcome of a phase at an instance is a pure function of
// the two, so inputs must agree; harvest rejects any conflict (a
// corrupt or mismatched shard).
type attemptOracle struct {
	ids   map[string]int32
	nodes []oracleNode
	// iid, indexed by result node ID, is the instance each node of the
	// run being answered stands for (-1: quarantined).
	iid []int32
	// equiv is the class key of the attempt being committed (equivKey),
	// reused attempt after attempt: the commit that reads it copies it
	// only when it founds a class.
	equiv []byte
}

// intern returns the dense id of n's instance, registering it on first
// sight. n arrives from disk or the wire: its key must hold up
// (checkKey), and a re-sighting must repeat the recorded facts.
func (o *attemptOracle) intern(n *Node) (int32, error) {
	if err := checkKey(n, []byte(n.key)); err != nil {
		return 0, err
	}
	id, ok := o.ids[n.key]
	if !ok {
		id = int32(len(o.nodes))
		o.ids[n.key] = id
		o.nodes = append(o.nodes, oracleNode{slot: slot{key: n.key, id: -1}, src: n})
	} else if s := o.nodes[id].src; s.FP != n.FP || s.CFKey != n.CFKey || s.CheckErr != n.CheckErr {
		return 0, fmt.Errorf("search: node %d (seq %q): inputs disagree about its instance", n.ID, n.Seq)
	}
	return id, nil
}

// harvest records every attempt outcome res evaluated and returns the
// interned id of each of its nodes (-1 for quarantined ones, which have
// no instance). For each node the expanded filter admits, its edges
// become the instance's oracle edges; phases with no edge were dormant
// there.
func (o *attemptOracle) harvest(res *Result, expanded func(id int) bool) ([]int32, error) {
	if o.ids == nil {
		o.ids = make(map[string]int32, len(res.Nodes))
	}
	ids := make([]int32, len(res.Nodes))
	for i, n := range res.Nodes {
		ids[i] = -1
		if n.Quarantine == "" {
			var err error
			if ids[i], err = o.intern(n); err != nil {
				return nil, err
			}
		}
	}
	for i, n := range res.Nodes {
		if ids[i] < 0 || !expanded(n.ID) {
			continue
		}
		edges := make([]oracleEdge, len(n.Edges))
		for j, e := range n.Edges {
			if opt.ByID(e.Phase) == nil {
				return nil, fmt.Errorf("search: node %d (seq %q) has an edge of unknown phase %q", n.ID, n.Seq, e.Phase)
			}
			edges[j] = oracleEdge{phase: e.Phase, to: ids[e.To]}
			if c := res.Nodes[e.To]; c.Quarantine != "" {
				edges[j].quarantine = strings.ReplaceAll(c.Quarantine, strconv.Quote(n.Seq), seqToken)
			}
		}
		on := &o.nodes[ids[i]]
		if on.expanded && !slices.Equal(on.edges, edges) {
			return nil, fmt.Errorf("search: inputs disagree on the phase outcomes at node %d (seq %q)", n.ID, n.Seq)
		}
		on.edges, on.expanded = edges, true
	}
	return ids, nil
}

// attemptAt answers one replayed attempt: the recorded edge of phase at
// instance id, or nil when the phase was dormant there. A shard whose
// own Seq for the instance ended in the phase skipped the attempt
// entirely, but that proves the same thing — an active phase is never
// active twice in a row (Section 4.1). An instance no input expanded
// is a broken input, not a leaf.
func (o *attemptOracle) attemptAt(id int32, a attempt) (*oracleEdge, error) {
	on := &o.nodes[id]
	if !on.expanded {
		return nil, fmt.Errorf("no input expanded the instance at sequence %q", a.node.Seq)
	}
	for i := range on.edges {
		if on.edges[i].phase == a.phase.ID() {
			return &on.edges[i], nil
		}
	}
	return nil, nil
}

// level is the oracle evaluator: every attempt is answered from the
// harvest and committed at once, so "first seen" is simply a slot no
// commit has assigned yet.
func (o *attemptOracle) level(e *engine, work []attempt) error {
	for _, a := range work {
		edge, err := o.attemptAt(o.iid[a.node.ID], a)
		if err != nil {
			return err
		}
		var out outcome
		switch {
		case edge == nil: // dormant
		case edge.to < 0:
			out.quarantine = strings.ReplaceAll(edge.quarantine, seqToken, strconv.Quote(a.node.Seq))
		default:
			on := &o.nodes[edge.to]
			s := on.src
			out = outcome{active: true, slot: &on.slot, fp: s.FP, st: s.State, cf: s.CFKey, checkErr: s.CheckErr}
			if e.res.Equiv != nil && on.id < 0 {
				// A first-seen instance needs its equivalence class key,
				// so make it real: clone the parent and apply the edge's
				// phase — literally what the live tier evaluates here.
				out.fn = getClone(a.node.fn)
				if st := a.node.State; !opt.Attempt(out.fn, &st, a.phase, e.opts.Machine) {
					return fmt.Errorf("source space records phase %c active at sequence %q, but it is dormant on that instance", edge.phase, a.node.Seq)
				}
				o.equiv = equivKey(o.equiv, on.slot.key[0], out.fn)
				out.equiv = o.equiv
			}
		}
		e.commitOutcome(a, &out)
		if len(e.res.Nodes) > len(o.iid) {
			o.iid = append(o.iid, edge.to) // the commit created a's child
		}
	}
	return nil
}

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
// checkpoint would have produced — byte-identical under canonical
// serialization. base must be a paused (or loaded) result whose
// checkpoint frontier the shards' FrontierIDs cover disjointly; every
// shard must be complete (no checkpoint, not aborted). The merge
// runs the level loop from the base frontier, the harvested oracle
// standing in for phase evaluation and its interned instances for the
// dedup index; if the base MaxSeqPerLevel/MaxNodes caps bind the merged
// result aborts with exactly the serial run's reason. Inconsistent shards
// (disagreeing outcomes, uncovered frontier nodes) fail with an error
// and leave base untouched.
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
	covered := make(map[int]bool, len(cp.Frontier))
	oracle := &attemptOracle{}
	baseIDs, err := oracle.harvest(base, func(int) bool { return false })
	if err != nil {
		return nil, fmt.Errorf("search: merge: base: %w", err)
	}
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
		own := make(map[int]bool, len(sh.FrontierIDs))
		for _, id := range sh.FrontierIDs {
			if id < 0 || id >= baseN {
				return nil, fmt.Errorf("search: merge: shard %d claims frontier node %d, outside the %d-node base table", i, id, baseN)
			}
			if covered[id] {
				return nil, fmt.Errorf("search: merge: frontier node %d claimed by two shards", id)
			}
			covered[id] = true
			own[id] = true
		}
		// A shard expanded its own frontier subset plus everything it
		// discovered past the base table. Foreign frontier nodes were
		// never expanded there and must not be harvested as leaves.
		_, err := oracle.harvest(s, func(id int) bool {
			return id >= baseN || own[id]
		})
		if err != nil {
			return nil, fmt.Errorf("search: merge: shard %d: %w", i, err)
		}
	}
	for _, n := range cp.Frontier {
		if !covered[n.ID] {
			return nil, fmt.Errorf("search: merge: frontier node %d not covered by any shard", n.ID)
		}
	}
	return replayMerge(base, oracle, baseIDs)
}

// oracleOptions keeps of o what shapes a space; telemetry,
// checkpointing, cancellation and pausing belonged to the runs that
// produced the oracle's inputs and must not fire again.
func oracleOptions(o Options) Options {
	return Options{Phases: o.Phases, Machine: o.Machine, MaxSeqPerLevel: o.MaxSeqPerLevel, MaxNodes: o.MaxNodes, Equiv: o.Equiv}
}

// replayMerge runs the engine from the base checkpoint over the oracle.
// The base node table is copied (base stays reusable for a fallback)
// and the instruments are seeded from the base stats exactly as Resume
// seeds them.
func replayMerge(base *Result, oracle *attemptOracle, baseIDs []int32) (*Result, error) {
	res := &Result{
		FuncName:        base.FuncName,
		AttemptedPhases: base.AttemptedPhases,
		root:            base.root,
		opts:            oracleOptions(base.opts),
	}
	res.Nodes = make([]*Node, 0, len(base.Nodes))
	for i, n := range base.Nodes {
		m := *n
		m.fn = nil
		res.Nodes = append(res.Nodes, &m)
		if baseIDs[i] >= 0 {
			oracle.nodes[baseIDs[i]].id = int32(i)
		}
	}
	oracle.iid = slices.Clone(baseIDs)
	e := newEngine(res, oracle.level, time.Now())
	e.prior = base.Elapsed
	e.ins.seed(base.Stats, len(base.Nodes))
	for _, n := range base.Checkpoint.Frontier {
		e.frontier = append(e.frontier, res.Nodes[n.ID])
	}
	if _, err := e.run(); err != nil {
		return nil, fmt.Errorf("search: merge: %w", err)
	}
	return res, nil
}
