package search

import (
	"fmt"
	"time"

	"repro/internal/dataflow"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// DeriveEquiv computes the equivalence-collapsed space of a complete
// default-tier enumeration, byte-identical (under canonical
// serialization) to what Run with Options.Equiv produces directly.
//
// Equivalence-collapsed runs are not checkpointable — the class and
// alias tables are not persisted — so a sharded enumeration runs its
// shards in the default tier and derives the equiv space afterwards.
// That is sound because the complete default space is a total oracle
// for the equiv BFS: every node the equiv run expands is the class
// representative of some default-tier instance, and every phase outcome
// at that instance is recorded in the default space's edges (absence =
// dormant, by the same Section 4.1 argument the merge replay uses).
// Class keys come from the instances themselves: derived frontier nodes
// retain theirs exactly as the live engine's frontier does (dropped
// when the level retires), and a raw-distinct child is a clone of its
// parent plus one application of the edge's phase — literally what the
// live tier evaluates — encoded by the same flow-sensitive encoder.
//
// Cost model: one harvest pass over full's keys, one edge probe per
// attempt, and at most one phase application per raw-distinct instance
// (Equiv.Raw); dormant attempts and already-seen spellings cost an
// integer compare. opts supplies the caps and phase list of the equiv
// request (the machine description always comes from full); if a cap
// binds, the derived result aborts with the serial run's reason. full
// may come from the wire: a space whose edges do not hold up on the
// materialized instances fails with an error naming the sequence and
// phase.
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
	opts.CheckpointPath = ""
	opts.Logger, opts.Metrics, opts.Tracer = nil, nil, nil

	oracle := &attemptOracle{}
	ids, err := oracle.harvest(full, func(int) bool { return true })
	if err != nil {
		return nil, fmt.Errorf("search: derive-equiv: %w", err)
	}
	res := &Result{
		FuncName: full.FuncName,
		Elapsed:  full.Elapsed,
		root:     full.root,
		opts:     opts,
		keys:     newKeyStore(),
		Equiv:    &EquivStats{Raw: 1, RedundantByPhase: make(map[string]int)},
	}
	ins := newInstruments(&res.opts, full.FuncName, time.Now())

	// Seed the root as Run does: Raw counts it, its canonical key and
	// equivalence class register, and the node counter ticks once.
	src := full.Nodes[0]
	rootNode := &Node{FP: src.FP, State: src.State, NumInstrs: src.NumInstrs,
		CFKey: src.CFKey, CheckErr: src.CheckErr, EquivRaw: 1, fn: full.root.Clone()}
	res.keys.put(0, oracle.nodes[ids[0]].key)
	res.Nodes = []*Node{rootNode}
	oracle.nodes[ids[0]].node = 0
	ins.nodes.Add(1)
	classKey := func(id int32, fn *rtl.Func) string {
		return oracle.nodes[id].key[:1] + string(dataflow.EquivEncode(nil, fn))
	}
	classes := map[string]int32{classKey(ids[0], rootNode.fn): 0}

	// The replay's identical tier (oracleNode.node) doubles as the alias
	// overlay: a spelling folded into a class resolves to the class node
	// from then on. A node's instance is its class representative's — the
	// one the live equiv run would retain and expand.
	admit := func(a attempt, e *oracleEdge, cn *Node) (int32, error) {
		res.Equiv.Raw++
		child, st := getClone(a.node.fn), a.node.State
		if !opt.Attempt(child, &st, a.phase, opts.Machine) {
			return 0, fmt.Errorf("source space records phase %c active at sequence %q, but it is dormant on that instance", e.phase, a.node.Seq)
		}
		ck := classKey(e.to, child)
		if cid, dup := classes[ck]; dup {
			// Raw-distinct instance, known class: fold it in, exactly
			// as engine.add does.
			putClone(child)
			res.Nodes[cid].EquivRaw++
			res.Equiv.Merged++
			res.Equiv.RedundantByPhase[string(e.phase)]++
			ins.observeEquivMerge()
			return cid, nil
		}
		cn.EquivRaw, cn.fn = 1, child
		classes[ck] = int32(cn.ID)
		return -1, nil
	}
	if err := oracle.replay(res, ins, []int32{ids[0]}, []*Node{rootNode}, admit); err != nil {
		return nil, fmt.Errorf("search: derive-equiv: %w", err)
	}
	return res, nil
}
