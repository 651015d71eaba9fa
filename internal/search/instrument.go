package search

import (
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// RunStats summarizes where one enumeration spent its effort: the
// quantities behind the paper's feasibility claim (nodes expanded,
// dormant prunes, identical-instance merges) plus the measured cost of
// the two hot operations, attempt evaluation and state-key hashing.
// It is filled on every Run — the counts are plain integer updates on
// the serial merge path — and persisted by the space serializer so
// saved spaces keep their provenance. The *NS timing fields are only
// populated when Options.Metrics is set.
type RunStats struct {
	// NodesExpanded counts frontier nodes whose candidate phases were
	// all evaluated (levels cut short by an abort are not counted).
	NodesExpanded int `json:"nodes_expanded"`
	// Attempts counts phase applications evaluated; Active and Dormant
	// partition them by outcome (Dormant = first pruning technique).
	Attempts int `json:"attempts"`
	Active   int `json:"active"`
	Dormant  int `json:"dormant"`
	// Merged counts active results whose canonical key matched an
	// existing node (second pruning technique: the DAG merge).
	Merged int `json:"merged"`
	// Quarantined counts attempts whose phase panicked or outlived the
	// watchdog; each one produced a quarantined dead-end node and its
	// subtree was skipped. Attempts = Active + Dormant + Quarantined.
	Quarantined int `json:"quarantined,omitempty"`
	// Edges is the number of DAG edges; Levels the explored depth;
	// MaxFrontier the widest level.
	Edges       int `json:"edges"`
	Levels      int `json:"levels"`
	MaxFrontier int `json:"max_frontier"`
	// StateKeyNS and ExpandNS total the time hashing canonical state
	// keys and evaluating attempts (clone + phase + verify) summed
	// over workers; zero unless Options.Metrics was set.
	StateKeyNS int64 `json:"state_key_ns,omitempty"`
	ExpandNS   int64 `json:"expand_ns,omitempty"`
}

// instruments carries Run's live counters. The fields written from
// worker goroutines (expandNS, levelDone) and every field the progress
// reporter goroutine reads are atomics; the rest are updated on the
// serial merge path only.
type instruments struct {
	fnName string
	start  time.Time

	// log receives the structured control-path events Options.Logger
	// promises. Nil when no logger is attached; every call site guards,
	// so the worker hot paths stay log-free either way.
	log *slog.Logger

	nodes, edges, attempts, active, dormant, merged atomic.Int64
	quarantined                                     atomic.Int64
	level, frontier, levelPending, levelDone        atomic.Int64
	levelStartNS                                    atomic.Int64
	stateKeyNS, expandNS                            atomic.Int64
	nodesExpanded, maxFrontier                      int

	// timed gates the time.Now() pairs on the hot paths; set only when
	// a metrics registry is attached.
	timed                      bool
	mNodes, mEdges, mAttempts  *telemetry.Counter
	mActive, mDormant, mMerged *telemetry.Counter
	mEquivMerged               *telemetry.Counter
	mQuarantined               *telemetry.Counter
	mCkptWrites, mCkptFailures *telemetry.Counter
	mStateKey, mExpand         *telemetry.Histogram
	mCkptDur                   *telemetry.Histogram
	gFrontier, gLevel          *telemetry.Gauge
	tracer                     *telemetry.Tracer

	// Striped-index counters. Each stripe counts under its own lock;
	// observeIndex aggregates across stripes and flushes the deltas
	// into the registry at level boundaries. The values depend on
	// probe interleaving (they are telemetry, never serialized into
	// the space format); the stripe.* pair exposes lock contention:
	// acquisitions counts stripe-lock takes, contended the takes that
	// found the lock held.
	mIdxProbes, mIdxByteCmps, mIdxFPColls *telemetry.Counter
	mIdxStripeAcq, mIdxStripeCont         *telemetry.Counter
	gIdxRetained                          *telemetry.Gauge
	idxFlushed                            indexCounters
}

func newInstruments(opts *Options, fnName string, start time.Time) *instruments {
	ins := &instruments{fnName: fnName, start: start, tracer: opts.Tracer, log: opts.Logger}
	if reg := opts.Metrics; reg != nil {
		ins.timed = true
		ins.mNodes = reg.Counter("search.nodes")
		ins.mEdges = reg.Counter("search.edges")
		ins.mAttempts = reg.Counter("search.attempts")
		ins.mActive = reg.Counter("search.active")
		ins.mDormant = reg.Counter("search.dormant")
		ins.mMerged = reg.Counter("search.merged")
		ins.mEquivMerged = reg.Counter("search.equiv.merged")
		ins.mQuarantined = reg.Counter("search.quarantined")
		ins.mCkptWrites = reg.Counter("search.checkpoint.writes")
		ins.mCkptFailures = reg.Counter("search.checkpoint.failures")
		ins.mCkptDur = reg.Histogram("search.checkpoint.duration_ns")
		ins.mStateKey = reg.Histogram("search.statekey.duration_ns")
		ins.mExpand = reg.Histogram("search.expand.duration_ns")
		ins.gFrontier = reg.Gauge("search.frontier")
		ins.gLevel = reg.Gauge("search.level")
		ins.mIdxProbes = reg.Counter("search.index.probes")
		ins.mIdxByteCmps = reg.Counter("search.index.bytecompares")
		ins.mIdxFPColls = reg.Counter("search.index.fpcollisions")
		ins.mIdxStripeAcq = reg.Counter("search.index.stripe.acquisitions")
		ins.mIdxStripeCont = reg.Counter("search.index.stripe.contended")
		ins.gIdxRetained = reg.Gauge("search.index.retained_bytes")
	}
	return ins
}

// observeIndex flushes the striped index's aggregated probe and
// contention counters into the metrics registry and refreshes the
// retained-memory gauge. Called at level boundaries on the serial
// path, with no workers running.
func (ins *instruments) observeIndex(d *dedupIndex) {
	c := d.counters()
	ins.mIdxProbes.Add(c.probes - ins.idxFlushed.probes)
	ins.mIdxByteCmps.Add(c.byteCompares - ins.idxFlushed.byteCompares)
	ins.mIdxFPColls.Add(c.fpCollisions - ins.idxFlushed.fpCollisions)
	ins.mIdxStripeAcq.Add(c.acquisitions - ins.idxFlushed.acquisitions)
	ins.mIdxStripeCont.Add(c.contended - ins.idxFlushed.contended)
	ins.idxFlushed = c
	ins.gIdxRetained.Set(int64(d.retainedBytes()))
}

// beginLevel records the shape of the level about to be evaluated.
func (ins *instruments) beginLevel(level, frontier, pending int) {
	ins.level.Store(int64(level))
	ins.frontier.Store(int64(frontier))
	ins.levelPending.Store(int64(pending))
	ins.levelDone.Store(0)
	ins.levelStartNS.Store(time.Now().UnixNano())
	ins.attempts.Add(int64(pending))
	ins.mAttempts.Add(int64(pending))
	ins.gLevel.Set(int64(level))
	ins.gFrontier.Set(int64(frontier))
	if frontier > ins.maxFrontier {
		ins.maxFrontier = frontier
	}
}

// observeExpand records one evaluated attempt from a worker.
func (ins *instruments) observeExpand(began time.Time) {
	if ins.timed {
		d := int64(time.Since(began))
		ins.expandNS.Add(d)
		ins.mExpand.Observe(d)
	}
	ins.levelDone.Add(1)
}

// observeStateKey records one canonical key computation (serial path).
func (ins *instruments) observeStateKey(began time.Time) {
	d := int64(time.Since(began))
	ins.stateKeyNS.Add(d)
	ins.mStateKey.Observe(d)
}

// observeOutcome tallies one merged attempt on the serial path.
func (ins *instruments) observeOutcome(activeOut, isNew bool) {
	if !activeOut {
		ins.dormant.Add(1)
		ins.mDormant.Inc()
		return
	}
	ins.active.Add(1)
	ins.mActive.Inc()
	ins.edges.Add(1)
	ins.mEdges.Inc()
	if isNew {
		ins.nodes.Add(1)
		ins.mNodes.Inc()
	} else {
		ins.merged.Add(1)
		ins.mMerged.Inc()
	}
}

// observeEquivMerge tallies one equivalence-tier fold (a raw-distinct
// instance merged into an existing class) on the serial path. The fold
// already counted as a merge in observeOutcome; this counter isolates
// the third tier's contribution.
func (ins *instruments) observeEquivMerge() {
	ins.mEquivMerged.Inc()
}

// observeQuarantine tallies one quarantined attempt on the serial
// path: it contributes a node and an edge, but neither an active nor a
// dormant outcome.
func (ins *instruments) observeQuarantine() {
	ins.quarantined.Add(1)
	ins.mQuarantined.Inc()
	ins.edges.Add(1)
	ins.mEdges.Inc()
	ins.nodes.Add(1)
	ins.mNodes.Inc()
}

// seed preloads the counters from a checkpoint's persisted RunStats so
// a resumed run continues the accounting exactly where the interrupted
// one left off — the precondition for resumed spaces serializing
// byte-identically to uninterrupted ones.
func (ins *instruments) seed(st RunStats, nodes int) {
	ins.nodes.Store(int64(nodes))
	ins.edges.Store(int64(st.Edges))
	ins.attempts.Store(int64(st.Attempts))
	ins.active.Store(int64(st.Active))
	ins.dormant.Store(int64(st.Dormant))
	ins.merged.Store(int64(st.Merged))
	ins.quarantined.Store(int64(st.Quarantined))
	ins.level.Store(int64(st.Levels))
	ins.stateKeyNS.Store(st.StateKeyNS)
	ins.expandNS.Store(st.ExpandNS)
	ins.nodesExpanded = st.NodesExpanded
	ins.maxFrontier = st.MaxFrontier
}

// progressLine renders the one-line status tick: nodes, frontier,
// prune rates and an ETA for the current level extrapolated from its
// attempt throughput. It runs on the reporter goroutine and reads
// atomics only.
func (ins *instruments) progressLine() string {
	dormant := ins.dormant.Load()
	activeN := ins.active.Load()
	merged := ins.merged.Load()
	done := ins.levelDone.Load()
	pending := ins.levelPending.Load()

	pct := func(part, whole int64) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	eta := "?"
	if elapsed := time.Since(time.Unix(0, ins.levelStartNS.Load())); done > 0 && elapsed > 0 {
		rate := float64(done) / elapsed.Seconds()
		if rate > 0 {
			eta = (time.Duration(float64(pending-done) / rate * float64(time.Second))).Round(time.Second).String()
		}
	}
	return fmt.Sprintf(
		"search %s: level %d | %d nodes, frontier %d | level %d/%d attempts (eta %s) | dormant %.1f%%, merged %.1f%% | %s",
		ins.fnName, ins.level.Load(), ins.nodes.Load(), ins.frontier.Load(),
		done, pending, eta,
		pct(dormant, dormant+activeN), pct(merged, activeN),
		time.Since(ins.start).Round(time.Second))
}

// runStats folds the live counters into the persisted summary.
func (ins *instruments) runStats() RunStats {
	return RunStats{
		NodesExpanded: ins.nodesExpanded,
		Attempts:      int(ins.attempts.Load()),
		Active:        int(ins.active.Load()),
		Dormant:       int(ins.dormant.Load()),
		Merged:        int(ins.merged.Load()),
		Quarantined:   int(ins.quarantined.Load()),
		Edges:         int(ins.edges.Load()),
		Levels:        int(ins.level.Load()),
		MaxFrontier:   ins.maxFrontier,
		StateKeyNS:    ins.stateKeyNS.Load(),
		ExpandNS:      ins.expandNS.Load(),
	}
}
