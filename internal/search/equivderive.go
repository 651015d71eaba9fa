package search

import (
	"fmt"
	"time"
)

// DeriveEquiv computes the equivalence-collapsed space of a complete
// default-tier enumeration, byte-identical (under canonical
// serialization) to what Run with Options.Equiv produces directly.
//
// The shard merge replays the default tier only, so a sharded
// enumeration would run its shards in the default tier and derive the
// equiv space afterwards; no server path does (an equiv request is one
// whole-space assignment), and the library keeps it. The derivation is the engine under Options.Equiv — the live tier's
// loop, commit path and fold — with the complete default space as its
// oracle evaluator. That is sound because the default space is a total
// oracle for the equiv BFS: every node the equiv run expands is the
// class representative of some default-tier instance, and every phase
// outcome at that instance is recorded in the default space's edges
// (absence = dormant, by the same Section 4.1 argument the merge uses).
// Class keys come from the instances themselves: derived frontier nodes
// retain theirs exactly as the live engine's frontier does (dropped
// when the level retires), and a first-seen child is a clone of its
// parent plus one application of the edge's phase — literally what the
// live tier evaluates — encoded by the same flow-sensitive encoder.
//
// Cost model: one harvest pass over full's nodes, one edge probe per
// attempt, and at most one phase application per raw-distinct instance
// (Equiv.Raw); dormant attempts and already-seen spellings cost a slot
// read. opts supplies the caps and phase list of the equiv request (the
// machine description always comes from full); if a cap binds, the
// derived result aborts with the serial run's reason. full may come
// from the wire: a space whose edges do not hold up on the materialized
// instances fails with an error naming the sequence and phase.
func DeriveEquiv(full *Result, opts Options) (*Result, error) {
	if full.Checkpoint != nil {
		return nil, fmt.Errorf("search: derive-equiv: source space is not complete (checkpoint frontier remains)")
	}
	if full.Aborted {
		return nil, fmt.Errorf("search: derive-equiv: source space is aborted (%s)", full.AbortReason)
	}
	if full.Equiv != nil {
		return nil, fmt.Errorf("search: derive-equiv: source space is already equivalence-collapsed")
	}
	if len(full.Nodes) == 0 || full.root == nil || full.Nodes[0].Quarantine != "" {
		return nil, fmt.Errorf("search: derive-equiv: source space has no root instance")
	}
	opts.fill()
	opts.Machine = full.opts.Machine
	opts.Equiv = true

	oracle := &attemptOracle{}
	ids, err := oracle.harvest(full, func(int) bool { return true })
	if err != nil {
		return nil, fmt.Errorf("search: derive-equiv: %w", err)
	}
	res := &Result{FuncName: full.FuncName, root: full.root, opts: oracleOptions(opts)}
	e := newEngine(res, oracle.level, time.Now())
	e.prior = full.Elapsed

	// Seed the root as Run does, its facts read off the source's node 0.
	// The oracle's slots double as the alias overlay: a spelling folded
	// into a class resolves to the class node from then on. A node's
	// instance is its class representative's — the one the live equiv
	// run would retain and expand.
	src, slot := full.Nodes[0], &oracle.nodes[ids[0]].slot
	fn := full.root.Clone()
	e.frontier = []*Node{e.newNode(0, "", slot.key, &outcome{fn: fn, fp: src.FP, st: src.State, cf: src.CFKey,
		checkErr: src.CheckErr, equiv: equivKey(nil, slot.key[0], fn)})}
	slot.id = 0
	oracle.iid = []int32{ids[0]}
	if _, err := e.run(); err != nil {
		return nil, fmt.Errorf("search: derive-equiv: %w", err)
	}
	return res, nil
}
