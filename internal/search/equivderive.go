package search

import "fmt"

// DeriveEquiv computes the equivalence-collapsed space of a complete
// default-tier enumeration, byte-identical (under canonical
// serialization) to what Run with Options.Equiv produces directly —
// because it is that run: it enumerates full's root live under the
// equivalence tier, with full's machine description and the phase list,
// caps and check setting of opts. It reads nothing of full but its
// root, its machine and the four facts it checks (complete, not
// aborted, default tier, a root instance), so no content of full's node
// table or edges can make the result wrong. If a cap binds, the result
// aborts with the serial run's reason.
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
	return Run(full.root, Options{Phases: opts.Phases, Machine: full.opts.Machine,
		MaxSeqPerLevel: opts.MaxSeqPerLevel, MaxNodes: opts.MaxNodes, Check: opts.Check, Equiv: true}), nil
}
