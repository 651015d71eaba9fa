package search

import (
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
	// StateKeyNS and ExpandNS total the time keying instances (the
	// fingerprint scan, the dedup probe and any class key) and
	// evaluating attempts (clone + phase + verify + keying) summed
	// over workers; zero unless Options.Metrics was set.
	StateKeyNS int64 `json:"state_key_ns,omitempty"`
	ExpandNS   int64 `json:"expand_ns,omitempty"`
}

// instruments is the one set of books of an enumeration. stats holds
// every count once, written only by the committing goroutine (the one
// that called Run), so level boundaries, checkpoints and the Result read
// it plainly. The registry (Options.Metrics) is a second reader, not a
// second copy: flush feeds it the difference since the previous flush
// at each level boundary and at the end of the run. Workers share
// nothing per attempt except, under Options.Metrics, the two timing
// sums and their histograms.
type instruments struct {
	fnName string

	// log receives the structured control-path events Options.Logger
	// promises. Nil when no logger is attached; every call site guards,
	// so the worker hot paths stay log-free either way.
	log *slog.Logger

	stats RunStats
	// stateKeyNS and expandNS are what the workers of this Run or Resume
	// added to stats.StateKeyNS and stats.ExpandNS (runStats folds them).
	stateKeyNS, expandNS atomic.Int64

	// timed gates the time.Now() pairs on the hot paths; set only when
	// a metrics registry is attached.
	timed                      bool
	mStateKey, mExpand         *telemetry.Histogram
	mCkptDur                   *telemetry.Histogram
	mCkptWrites, mCkptFailures *telemetry.Counter

	// What flush feeds, and what it has fed so far. A seeded run
	// (Resume) starts fed at the checkpoint's counts, so it adds only its
	// own work. search.level is the last level begun, search.frontier the
	// nodes awaiting expansion. The index counters are summed across
	// stripes (each counts under its own lock) and depend on probe
	// interleaving — telemetry, never serialized into the space format;
	// the stripe.* pair exposes lock contention: acquisitions counts
	// stripe-lock takes, contended the takes that found the lock held.
	mNodes, mEdges, mAttempts             *telemetry.Counter
	mActive, mDormant, mMerged            *telemetry.Counter
	mQuarantined, mEquivMerged            *telemetry.Counter
	mIdxProbes, mIdxByteCmps, mIdxFPColls *telemetry.Counter
	mIdxStripeAcq, mIdxStripeCont         *telemetry.Counter
	gFrontier, gLevel, gIdxRetained       *telemetry.Gauge
	fed                                   struct {
		stats              RunStats
		nodes, equivMerged int
		idx                indexCounters
	}
}

func newInstruments(opts *Options, fnName string) *instruments {
	ins := &instruments{fnName: fnName, log: opts.Logger}
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

// flush feeds the registry what the books gained since the last flush.
// Called on the committing goroutine with no workers running: at each
// level boundary and once when the run ends, however it ends.
func (e *engine) flush() {
	ins := e.ins
	if !ins.timed {
		return // no registry to feed
	}
	st, fed := &ins.stats, &ins.fed
	ins.mNodes.Add(int64(len(e.res.Nodes) - fed.nodes))
	ins.mEdges.Add(int64(st.Edges - fed.stats.Edges))
	ins.mAttempts.Add(int64(st.Attempts - fed.stats.Attempts))
	ins.mActive.Add(int64(st.Active - fed.stats.Active))
	ins.mDormant.Add(int64(st.Dormant - fed.stats.Dormant))
	ins.mMerged.Add(int64(st.Merged - fed.stats.Merged))
	ins.mQuarantined.Add(int64(st.Quarantined - fed.stats.Quarantined))
	fed.stats, fed.nodes = *st, len(e.res.Nodes)
	if eq := e.res.Equiv; eq != nil {
		ins.mEquivMerged.Add(int64(eq.Merged - fed.equivMerged))
		fed.equivMerged = eq.Merged
	}
	c := e.index.counters()
	ins.mIdxProbes.Add(c.probes - fed.idx.probes)
	ins.mIdxByteCmps.Add(c.byteCompares - fed.idx.byteCompares)
	ins.mIdxFPColls.Add(c.fpCollisions - fed.idx.fpCollisions)
	ins.mIdxStripeAcq.Add(c.acquisitions - fed.idx.acquisitions)
	ins.mIdxStripeCont.Add(c.contended - fed.idx.contended)
	fed.idx = c
	ins.gIdxRetained.Set(int64(e.index.retainedBytes()))
	ins.gLevel.Set(int64(st.Levels))
	ins.gFrontier.Set(int64(len(e.frontier)))
}

// beginLevel books the level about to be evaluated: its attempts count
// from here, evaluated or not when an abort cuts the level short.
func (ins *instruments) beginLevel(level, frontier, pending int) {
	ins.stats.Levels = level
	ins.stats.Attempts += pending
	ins.stats.MaxFrontier = max(ins.stats.MaxFrontier, frontier)
}

// observeSince adds what a worker timed (Options.Metrics only) — one
// evaluated attempt, one canonical key computation — to its sum and its
// histogram.
func observeSince(sum *atomic.Int64, h *telemetry.Histogram, began time.Time) {
	d := int64(time.Since(began))
	sum.Add(d)
	h.Observe(d)
}

// seed opens the books at a checkpoint's persisted RunStats so a
// resumed run continues the accounting exactly where the interrupted
// one left off — the precondition for resumed spaces serializing
// byte-identically to uninterrupted ones — and marks those counts fed:
// the registry is owed only what this run adds.
func (ins *instruments) seed(st RunStats, nodes int) {
	ins.stats = st
	ins.fed.stats, ins.fed.nodes = st, nodes
}

// runStats is the books as the persisted summary: the counts plus what
// the workers have timed so far.
func (ins *instruments) runStats() RunStats {
	st := ins.stats
	st.StateKeyNS += ins.stateKeyNS.Load()
	st.ExpandNS += ins.expandNS.Load()
	return st
}
