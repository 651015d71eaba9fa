// Package search implements the paper's core contribution: exhaustive
// enumeration of the optimization phase order space (Section 4). The
// space of attempted sequences is astronomically large (15^n), but two
// pruning techniques make the space of distinct *function instances*
// enumerable:
//
//  1. dormant phases produce no new node (Figure 2), and
//  2. identical function instances — detected after canonical
//     register/label renumbering — merge, turning the tree into a DAG
//     (Figure 4).
//
// The search proceeds level by level, exactly like Figure 1: level n
// holds the instances first reachable by an active sequence of length
// n. A configurable cap on the number of sequences evaluated at one
// level aborts oversized functions, mirroring the paper's one-million
// cutoff that marked two of 111 functions "too big".
//
// The engine is durable: with Options.CheckpointPath set, level
// boundaries (paced by what a write costs, see checkpointDue) and every
// abort path (caps, timeout, cancellation) persist a resumable snapshot
// atomically, and Resume continues an interrupted enumeration to the
// byte-identical space an uninterrupted run yields; Enumerate is Run
// that first looks at what the checkpoint file holds and continues it.
// A phase that panics or trips the attempt watchdog is quarantined —
// recorded as a dead-end node with the failure message — instead of
// crashing the whole enumeration.
package search

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/faultinject"
	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/telemetry"
)

// Edge records an active phase application from one node to another.
type Edge struct {
	Phase byte
	To    int
}

// Node is one distinct function instance in the phase order space DAG.
type Node struct {
	ID    int
	Level int
	// Seq is the lexicographically first shortest active phase
	// sequence producing this instance from the unoptimized function.
	Seq string
	// FP is the paper's three-value fingerprint (count/bytesum/CRC),
	// the first tier of identical-instance detection; the exact
	// canonical key is compared only on a fingerprint match (see
	// Result.NodeKey).
	FP fingerprint.FP
	// State holds the gating facts for phase legality at this node.
	State opt.State
	// NumInstrs is the static code size of the instance.
	NumInstrs int
	// CFKey identifies the control-flow shape (Table 3 column CF).
	CFKey fingerprint.Key
	// Edges lists the active phases leaving this node, in phase order.
	Edges []Edge
	// CheckErr, when Options.Check is set, records the semantic
	// verifier's complaint about this instance ("" = verified clean).
	// Seq then reproduces the violation: the last phase of Seq is the
	// offending one, the prefix is the setup.
	CheckErr string
	// Quarantine, when non-empty, records why the phase application
	// that would have produced this instance was quarantined (panic
	// message or watchdog timeout). Mirroring CheckErr, the last phase
	// of Seq is the offender. A quarantined node has no instance, no
	// outgoing edges, and its subtree is skipped; the rest of the space
	// enumerates normally.
	Quarantine string
	// Weight is the number of distinct active sequences at or below
	// this node (leaves weigh 1), per Figure 7. Filled by Analyze.
	Weight float64
	// EquivRaw, under Options.Equiv, counts the raw-distinct instances
	// this node's equivalence class absorbed (1 = the node alone; >1 =
	// the class merged instances the identical tier kept apart). Zero
	// when the search ran without Equiv and on quarantined nodes. Set
	// when the run ends.
	EquivRaw int

	// key is the exact canonical key: the gating-state flags byte plus
	// the canonical encoding, the very string the node's dedup slot
	// holds (shared, not copied). Quarantined nodes carry a synthetic
	// "Q"+Seq (no instance exists to encode) and stay out of the index.
	key string
	fn  *rtl.Func // retained only while unexplored
	// ra is fn register-assigned, made once for the attempts of the
	// node's level that require it; set only while an unassigned node's
	// level runs.
	ra *regAssigned
}

// regAssigned is a frontier instance's register-assigned form, built
// by the first of the level's attempts that needs it (get) and cloned
// by every such attempt instead of assigning a clone of its own; it
// shares its analyses like the instance. fn stays nil when the
// assignment panicked, which leaves those attempts to assign, and
// quarantine, one by one as they always have.
type regAssigned struct {
	once sync.Once
	fn   *rtl.Func
}

// get returns the register-assigned form of parent, building it on
// the first call; nil when the assignment panicked.
func (r *regAssigned) get(parent *rtl.Func) *rtl.Func {
	r.once.Do(func() {
		fn := getClone(parent)
		defer func() {
			if recover() != nil {
				putClone(fn)
			}
		}()
		fn.DropAnalyses() // every register is about to be rewritten
		opt.RegAssign(fn)
		fn.ShareAnalyses()
		r.fn = fn
	})
	return r.fn
}

// IsLeaf reports whether no phase is active at this node. Quarantined
// nodes are dead ends, not leaves: every phase may well be active
// there, the engine just cannot know.
func (n *Node) IsLeaf() bool { return len(n.Edges) == 0 && n.Quarantine == "" }

// Options configure a search.
type Options struct {
	// Phases are the candidate phases (default: opt.All()).
	Phases []opt.Phase
	// Machine is the target description (default: machine.StrongARM()).
	Machine *machine.Desc
	// MaxSeqPerLevel aborts the search when the number of sequences to
	// evaluate at one level exceeds it (paper: 1,000,000).
	MaxSeqPerLevel int
	// MaxNodes aborts the search when the DAG exceeds this many
	// distinct instances (0 = unlimited).
	MaxNodes int
	// StopAtFrontier, when > 0, pauses the enumeration at the first
	// level boundary whose frontier holds at least this many unexpanded
	// nodes: the Result comes back un-aborted with Checkpoint set to the
	// live frontier, exactly as if it had been loaded from a checkpoint
	// file. Callers partition that frontier (PartitionCheckpoint) or
	// hand the Result straight back to Resume. A space that completes
	// before the frontier ever grows that wide returns complete, with no
	// Checkpoint. Ignored under Equiv: PartitionCheckpoint and
	// MergeShards refuse an equivalence-collapsed base, since a shard's
	// class table would not hold its siblings' classes, so an Equiv
	// pause could only be resumed whole. Part of the frontier-split
	// API, which no production path calls any more: the benchmark
	// harness's shard probes and this package's tests do (DESIGN §14).
	StopAtFrontier int
	// Timeout aborts the search after this much wall time
	// (0 = unlimited). On Resume the budget restarts.
	Timeout time.Duration
	// Verifier, when non-nil, is invoked on the instance of every active
	// attempt, before the identical-instance check, so a duplicate is
	// verified again and the root never is; it should return an error
	// when the instance misbehaves. Used for differential testing of the
	// whole space. Unlike a panicking phase, a Verifier failure is never
	// quarantined: it means the space itself is wrong, so the
	// enumeration fails loudly.
	Verifier func(f *rtl.Func) error
	// Check runs the internal/check semantic verifier on every
	// distinct instance (root included). Unlike Verifier, a finding
	// does not abort the search: it is recorded in Node.CheckErr so a
	// whole space's violations can be harvested in one enumeration
	// (see Result.CheckFailures).
	Check bool
	// Equiv adds the third tier of the instance index: instances that
	// survive the identical-instance tier are canonicalized by the
	// equivalence encoder (fingerprint.EquivEncode) — canonical block
	// layout, forwarder/fall-through unification, unreachable blocks
	// dropped — and instances with equal equivalence keys merge into
	// one node even when their canonical encodings differ. The collapse
	// is summarized in Result.Equiv and per node in Node.EquivRaw. It
	// checkpoints, resumes and final-writes like the default tier: the
	// resume section also carries the class table and the folded
	// spellings. With Equiv unset the enumeration and its serialized
	// space are bit-for-bit what they were before this option existed.
	Equiv bool
	// KeepFuncs retains every node's function instance in memory
	// (needed by callers that walk instances afterwards; the analysis
	// and statistics do not need it).
	KeepFuncs bool
	// Workers sets the evaluation parallelism (default: NumCPU): how
	// many goroutines evaluate attempts, the one that called Run (or
	// Resume) among them — it also commits, so an enumeration occupies
	// Workers threads, and at 1 it starts no goroutine at all. The
	// enumeration result is deterministic regardless of the setting.
	Workers int
	// NaiveReplay disables the paper's Section 4.3 search
	// enhancements: every sequence evaluation restarts from the
	// unoptimized function and replays the whole phase prefix, the
	// way Figure 6(a) evaluates sequences. The enumerated space is
	// identical; only the evaluation cost changes (Figure 6 reports
	// the enhancements win a factor of 5-10).
	NaiveReplay bool
	// Ctx, when non-nil, cancels the search cooperatively: workers
	// stop picking up attempts and the level loop aborts the result
	// with a "canceled" reason. Because Run returns normally, a deferred
	// metrics writer still flushes on interruption.
	Ctx context.Context
	// Logger, when non-nil, receives structured progress events on the
	// serial control path: one record per completed level (with the
	// run's cumulative counts), checkpoint writes and failures,
	// quarantined attempts and aborts. A server passes a logger
	// pre-stamped with the flight ID, so a long enumeration's progress is
	// attributable to the request that started it; a CLI's -progress is
	// this logger on stderr. Nil logs nothing; the worker hot paths never
	// log.
	Logger *slog.Logger
	// Metrics, when non-nil, receives the search counters and gauges
	// (search.nodes, search.dormant, ...), brought up to date at every
	// level boundary and when the run ends, and the per-attempt duration
	// histograms (search.expand.duration_ns,
	// search.statekey.duration_ns). Nil keeps the hot paths free of
	// timing calls.
	Metrics *telemetry.Registry

	// CheckpointPath, when non-empty, persists a resumable snapshot of
	// the enumeration to this file (a space document), written
	// atomically (temp file + rename): at level boundaries whenever
	// the work at risk outweighs what a write costs (checkpointDue),
	// on every abort path (caps, timeout, cancellation), and — as the
	// final complete space, the bytes Save writes (Result.SpacePath,
	// SpaceHash) — on successful completion. Run overwrites
	// what the file held; Enumerate continues it (Load + Resume by
	// hand). A failed write never clobbers the previous checkpoint; the
	// error lands in Result.CheckpointErr and the search keeps running.
	CheckpointPath string
	// AttemptWatchdog bounds the wall time of a single phase
	// application; an attempt exceeding it is quarantined like a
	// panicking phase (the stuck goroutine is abandoned). 0 disables
	// the watchdog.
	AttemptWatchdog time.Duration
	// Faults injects deterministic failures (phase panics, corrupted
	// instances, hangs, checkpoint write errors) for robustness
	// testing; nil injects nothing. See internal/faultinject.
	Faults *faultinject.Plan
}

func (o *Options) fill() {
	if o.Phases == nil {
		o.Phases = opt.All()
	}
	if o.Machine == nil {
		o.Machine = machine.StrongARM()
	}
	if o.MaxSeqPerLevel == 0 {
		o.MaxSeqPerLevel = 1_000_000
	}
}

// Result is the enumerated phase order space of one function.
type Result struct {
	FuncName string
	Nodes    []*Node
	// AttemptedPhases counts every phase application evaluated during
	// the search, active or dormant (Table 3, "Attempt Phases").
	AttemptedPhases int
	// Aborted reports that a cap stopped the search ("N/A" rows).
	Aborted     bool
	AbortReason string
	// Elapsed is the wall-clock search time, cumulative across
	// checkpoint/resume cycles.
	Elapsed time.Duration
	// Stats summarizes where the search spent its effort (prune
	// counts, merge counts, per-operation timing); it is persisted by
	// the space serializer alongside the node table.
	Stats RunStats
	// Equiv summarizes the equivalence-class collapse when the search
	// ran with Options.Equiv (set when the run ends); nil otherwise.
	Equiv *EquivStats
	// Checkpoint, on a Result loaded from a checkpoint file, holds the
	// resumable frontier; nil for completely enumerated spaces. Resume
	// consumes it.
	Checkpoint *Checkpoint
	// CheckpointErr records the most recent checkpoint write failure
	// ("" = none). The previous checkpoint file survives a failed
	// write, so an interrupted run resumes from the last good one.
	CheckpointErr string
	// CheckpointTime is the wall time this Run or Resume spent writing
	// checkpoints (failed writes included). Not persisted.
	CheckpointTime time.Duration
	// SpacePath names the file that now holds this complete space,
	// encoded and fsynced — Options.CheckpointPath once the engine's
	// final write has succeeded, or the slot Enumerate found it in. ""
	// otherwise: paused, aborted, a failed final write, no checkpoint
	// path. Callers publish or upload that file instead of encoding the
	// space a second time. Not persisted.
	SpacePath string
	// SpaceHash is the hex SHA-256 of the bytes at SpacePath — the
	// space's canonical bytes, so it is also its CanonicalHash — taken
	// as the engine's final write put them down, or as Enumerate read
	// them from the slot. SpacePath and SpaceHash are set together or
	// not at all. Not persisted.
	SpaceHash string

	root *rtl.Func
	opts Options
}

// NodeKey returns the exact canonical key of n — the gating-state
// flags byte followed by the canonical instance encoding ("Q"+Seq for
// quarantined nodes). Nodes are merged exactly when these keys match.
func (r *Result) NodeKey(n *Node) string { return n.key }

// EquivStats summarizes the equivalence-class collapse of a space
// enumerated with Options.Equiv.
type EquivStats struct {
	// Raw counts the raw-distinct instances discovered — the node
	// count an identical-instance-only enumeration of the same space
	// would have produced (quarantined dead ends excluded).
	Raw int `json:"raw"`
	// Merged counts the raw-distinct instances folded into an
	// already-known equivalence class; Raw - Merged non-quarantined
	// nodes remain in the collapsed space.
	Merged int `json:"merged"`
	// RedundantByPhase attributes each fold to the phase whose
	// application produced the redundant instance, keyed by phase ID.
	// It answers "which phases only shuffle the representation": a
	// phase with a high count keeps regenerating instances the
	// equivalence tier proves nothing new.
	RedundantByPhase map[string]int `json:"redundant_by_phase,omitempty"`
}

// CollapseRatio is Merged / Raw: the fraction of raw-distinct
// instances the equivalence tier eliminated (0 when nothing merged).
func (s *EquivStats) CollapseRatio() float64 {
	if s == nil || s.Raw == 0 {
		return 0
	}
	return float64(s.Merged) / float64(s.Raw)
}

// Checkpoint is the resumable state of a partially enumerated space.
// It carries no clock of its own: a resumable document's only wall-clock
// fields are the run's elapsed time and stats, which Resume adds to.
type Checkpoint struct {
	// Frontier holds the unexpanded nodes (pointers into Result.Nodes)
	// in discovery order, each with its retained function instance.
	Frontier []*Node
	// classes and folds, on an equivalence-collapsed space, are its
	// class table as Load read it: each class key with its node, and the
	// spellings folded into a class. Resume takes them over; Save of an
	// unresumed checkpoint writes them back.
	classes map[string]int32
	folds   []fold
}

// fold is one raw-distinct instance the equivalence tier folded into an
// existing class: its dedup key (flags byte + canonical encoding) and
// fingerprint, the class node it resolves to, and the phase whose
// application produced it. A run's folds, in commit order, are all it
// needs besides the node table to restore the class tier or to tally
// its collapse (tallyEquiv).
type fold struct {
	key   string
	fp    fingerprint.FP
	into  int32
	phase byte
}

// tallyEquiv derives the collapse summary, and each node's EquivRaw, of
// nodes and the folds into them: every non-quarantined node is one
// raw-distinct instance and its class, every fold one more of its
// target's.
func tallyEquiv(nodes []*Node, folds []fold) (*EquivStats, []int) {
	eq := &EquivStats{Raw: len(folds), Merged: len(folds), RedundantByPhase: make(map[string]int)}
	raw := make([]int, len(nodes))
	for i, n := range nodes {
		if n.Quarantine == "" {
			raw[i] = 1
			eq.Raw++
		}
	}
	for _, f := range folds {
		raw[f.into]++
		eq.RedundantByPhase[string(f.phase)]++
	}
	return eq, raw
}

// Root returns the node of the unoptimized instance.
func (r *Result) Root() *Node { return r.Nodes[0] }

// abort marks the result aborted. It is the single place the
// Aborted/AbortReason pair is set, so instrumentation and
// checkpoint-on-abort hook in exactly once (engine.abort wraps it).
func (r *Result) abort(reason string) {
	r.Aborted = true
	r.AbortReason = reason
}

// Shared abort reasons.
const abortTimeout = "timeout"

func abortCanceledReason(ctx context.Context) string {
	return fmt.Sprintf("canceled: %v", context.Cause(ctx))
}

func abortNodeCapReason(max int) string {
	return fmt.Sprintf("more than %d distinct instances", max)
}

func abortLevelCapReason(level, pending, cap int) string {
	return fmt.Sprintf("level %d requires %d sequence evaluations (cap %d)", level, pending, cap)
}

// snapshot is a result at a level boundary — the unit of durability and
// the one thing a space document is rendered from (Result.encode):
// the first numNodes nodes, the frontier nodes with no outgoing edges
// yet, and the boundary's counters. The engine records one per completed
// level, so a checkpoint written mid-level rolls back to it; everything
// else renders the latest boundary, the whole result (Result.whole).
// Under Options.Equiv folds is the boundary's fold prefix, from which
// the document tallies the collapse, and classes is the class table; a
// resume section carries the class keys of the first numNodes nodes,
// which the live table still holds as they were (a class key never
// moves).
type snapshot struct {
	numNodes  int
	frontier  []*Node
	attempted int
	stats     RunStats
	elapsed   time.Duration
	classes   map[string]int32
	folds     []fold
	// The abort bits are a loaded or finished result's: a boundary the
	// engine records is a healthy, resumable state whatever happened
	// afterwards.
	aborted     bool
	abortReason string
}

// canonical is v with its three wall-clock fields zeroed: what two runs
// that discovered the same space render identically. A complete space
// is stored in this form (encode) and every space is hashed in it
// (CanonicalHash); how long a run took belongs to the run, not to the
// space.
func (v snapshot) canonical() snapshot {
	v.elapsed, v.stats.StateKeyNS, v.stats.ExpandNS = 0, 0, 0
	return v
}

// engine drives one enumeration: its entry point (Run or Resume) seeds
// the node table and the frontier, and both share the level loop.
type engine struct {
	res      *Result
	opts     *Options
	ins      *instruments
	index    *dedupIndex
	frontier []*Node
	// next collects the nodes the running level discovers: the next
	// frontier.
	next  []*Node
	start time.Time
	// ring carries the outcomes from the workers to the committer, one
	// ring for the whole run (allocated by the first level, replaced while
	// levels outgrow it). ringBase is how many attempts earlier levels put
	// through it: a slot is addressed by the attempt's run-wide number, so
	// no publication mark ever repeats.
	ring     *outcomeRing
	ringBase int64
	// work is the running level's attempts, its array reused level
	// after level.
	work []attempt
	// equivClasses is the third index tier (Options.Equiv): the class
	// key (equivKey) of every class representative, mapping to its node
	// ID. Nil when the option is off. folds lists, in commit order, the
	// spellings the tier folded into a class.
	equivClasses map[string]int32
	folds        []fold
	// prior is the elapsed time accumulated before a resume.
	prior time.Duration
	done  <-chan struct{}

	// snap is the last consistent level boundary; abort checkpoints
	// persist it.
	snap snapshot
	// lastCkpt is when the last checkpoint write finished, lastCkptCost
	// what it took and lastCkptNodes how many nodes it covered (before
	// the first: the run's start and checkpointNodePrior for one node);
	// together they pace the periodic checkpoints.
	lastCkpt      time.Time
	lastCkptCost  time.Duration
	lastCkptNodes int

	// levelDone, nil outside tests, is called once a level's attempts are
	// committed and before its frontier's shared analyses are dropped.
	levelDone func()
}

// Run exhaustively enumerates the phase order space of f. The function
// is not modified.
func Run(f *rtl.Func, opts Options) *Result {
	return newRun(f, opts).run()
}

// newRun seeds an engine with the cleaned-up root of f as node 0.
func newRun(f *rtl.Func, opts Options) *engine {
	opts.fill()
	start := time.Now()

	root := f.Clone()
	rtl.Cleanup(root)

	res := &Result{FuncName: f.Name, root: root.Clone(), opts: opts}
	e := newEngine(res, start)
	buf := fingerprint.GetBuffer()
	o := outcome{fn: root, fp: fingerprint.SummarizeInto(buf, root), buf: buf}
	if opts.Equiv {
		o.equiv = equivKey(nil, 0, root)
	}
	if opts.Check {
		if err := check.Err(root, opts.Machine); err != nil {
			o.checkErr = err.Error()
		}
	}
	// Nothing has been applied yet: the root's gating flags byte is 0.
	e.frontier = []*Node{e.newNode(0, "", "\x00"+string(buf.Enc), &o)}
	e.index.insert(e.frontier[0].key, o.fp, 0)
	fingerprint.PutBuffer(buf)
	return e
}

// newEngine wires an engine over res, whose options are final. Under
// Options.Equiv it opens the class table.
func newEngine(res *Result, start time.Time) *engine {
	e := &engine{
		res:   res,
		opts:  &res.opts,
		ins:   newInstruments(&res.opts, res.FuncName),
		index: newDedupIndex(),
		start: start,
	}
	if res.opts.Equiv {
		e.equivClasses = make(map[string]int32)
	}
	return e
}

// Resume continues an interrupted enumeration from a checkpoint loaded
// with Load/LoadFile, consuming res.Checkpoint and returning the same
// Result completed (or re-aborted, if a cap still binds). Resuming is
// deterministic: the finished space is byte-identical (under canonical
// serialization) to the one an uninterrupted Run produces, provided
// opts selects the same phases, check setting, tier and fault plan as
// the interrupted run; a tier (Options.Equiv) other than the
// checkpoint's is refused. The machine description always comes from
// the checkpoint. A Result without a Checkpoint is already complete and
// is returned unchanged.
func Resume(res *Result, opts Options) (*Result, error) {
	cp := res.Checkpoint
	if cp == nil {
		return res, nil
	}
	if opts.Equiv != (res.Equiv != nil) {
		return nil, fmt.Errorf("search: resume: the checkpoint's tier is Equiv=%v, the options ask for Equiv=%v", res.Equiv != nil, opts.Equiv)
	}
	mach := res.opts.Machine
	opts.fill()
	if mach != nil {
		opts.Machine = mach
	}
	res.opts = opts
	res.Checkpoint = nil
	res.Aborted, res.AbortReason = false, ""
	e := newEngine(res, time.Now())
	e.prior = res.Elapsed
	// Rebuild the index from the loaded node table, each slot sharing
	// its node's key (Load checked it against the node's state and
	// fingerprint). Quarantined nodes are skipped — their synthetic keys
	// can never match a real instance, so they never belonged in it.
	for _, n := range res.Nodes {
		if n.Quarantine == "" {
			e.index.insert(n.key, n.FP, n.ID)
		}
	}
	// The class tier comes back as the interrupted run left it: the class
	// table, and each folded spelling's slot naming its class node, so
	// rediscovering it is a plain merge, as it would have been.
	for _, f := range cp.folds {
		e.index.insert(f.key, f.fp, int(f.into))
	}
	e.equivClasses, e.folds = cp.classes, cp.folds
	e.ins.seed(res.Stats, len(res.Nodes), len(e.folds))
	e.frontier = cp.Frontier
	return e.run(), nil
}

// newNode appends the node of a newly discovered instance — the root,
// or the first committed reference to a key — under its canonical key.
// o carries the instance's facts as a worker computed them (the
// control-flow key is still bytes in the pooled buffer, copied only now
// that a node keeps it). Under Options.Equiv the instance founds its
// class.
func (e *engine) newNode(level int, seq, key string, o *outcome) *Node {
	n := &Node{
		ID:        len(e.res.Nodes),
		Level:     level,
		Seq:       seq,
		FP:        o.fp,
		State:     o.st,
		NumInstrs: o.fp.Count, // the fingerprint counts instructions
		CFKey:     fingerprint.Key(o.buf.CF),
		CheckErr:  o.checkErr,
		key:       key,
		fn:        o.fn,
	}
	e.res.Nodes = append(e.res.Nodes, n)
	if e.equivClasses != nil {
		e.equivClasses[string(o.equiv)] = int32(n.ID) // the class's one copy of its key
	}
	return n
}

// addQuarantined interns the dead-end node of a quarantined attempt.
// The synthetic key ("Q" + sequence) cannot collide with a real
// canonical key, whose first byte is a gating-state bitmask < 8; the
// node never enters the dedup index — no instance exists that could
// merge into it.
func (e *engine) addQuarantined(parent *Node, phase byte, msg string) *Node {
	seq := parent.Seq + string(phase)
	n := &Node{
		ID:         len(e.res.Nodes),
		Level:      parent.Level + 1,
		Seq:        seq,
		Quarantine: msg,
		key:        "Q" + seq,
	}
	e.res.Nodes = append(e.res.Nodes, n)
	return n
}

// boundary captures the current level boundary as the snapshot abort
// checkpoints fall back to.
func (e *engine) boundary() snapshot {
	return snapshot{
		numNodes:  len(e.res.Nodes),
		frontier:  e.frontier,
		attempted: e.res.AttemptedPhases,
		stats:     e.ins.runStats(),
		elapsed:   e.elapsed(),
		classes:   e.equivClasses,
		folds:     e.folds,
	}
}

func (e *engine) elapsed() time.Duration {
	return e.prior + time.Since(e.start)
}

// logCtx is the context handed to structured log records so a
// context-stamping handler can attach the request and flight IDs the
// server planted on Options.Ctx.
func (o *Options) logCtx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// abort marks the result aborted, logs it, and persists the last
// consistent boundary so the interrupted enumeration can resume.
func (e *engine) abort(reason string) {
	e.res.abort(reason)
	if e.ins.log != nil {
		e.ins.log.WarnContext(e.opts.logCtx(), "search aborted",
			"fn", e.ins.fnName, "reason", reason,
			"level", e.ins.stats.Levels, "nodes", len(e.res.Nodes),
			"elapsed", e.elapsed().Round(time.Millisecond).String())
	}
	e.writeCheckpoint()
}

// writeCheckpoint persists the last level boundary (e.snap) when
// checkpointing is configured: a healthy resumable document whatever
// aborted the run since (the abort bits stay clear), written atomically
// and fsynced, directory included (WriteFile, SyncDir). Failures — the
// fault plan can simulate a full disk or a failing directory fsync —
// are recorded, counted and survived: the previous checkpoint file is
// left intact and the search continues. Either way the write is timed,
// and its cost paces the next periodic checkpoint. A boundary with
// nothing left to expand, on a run nothing aborted, is the complete
// space: encode renders it as its canonical bytes (no wall-clock
// fields; a resumable document keeps them, Resume accumulates elapsed),
// they are hashed as they go to the file, and once they are durable the
// result names the file and the hash, so no caller renders the space
// again to publish or to name it.
func (e *engine) writeCheckpoint() {
	path, snap := e.opts.CheckpointPath, e.snap
	if path == "" {
		return
	}
	complete := len(snap.frontier) == 0 && !e.res.Aborted
	sum := sha256.New()
	began := time.Now()
	err := WriteFile(path, func(w io.Writer) error {
		w = e.opts.Faults.WrapCheckpoint(w)
		if complete {
			w = io.MultiWriter(w, sum)
		}
		return e.res.render(w, snap)
	}, true)
	if err == nil {
		if err = SyncDir(filepath.Dir(path), e.opts.Faults); err != nil {
			err = fmt.Errorf("syncing directory: %w", err)
		}
	}
	e.lastCkpt = time.Now()
	e.lastCkptCost = e.lastCkpt.Sub(began)
	e.lastCkptNodes = snap.numNodes
	e.res.CheckpointTime += e.lastCkptCost
	e.ins.mCkptDur.Observe(int64(e.lastCkptCost))
	if err != nil {
		e.res.CheckpointErr = "search: checkpoint: " + err.Error()
		e.ins.mCkptFailures.Inc()
		if e.ins.log != nil {
			e.ins.log.WarnContext(e.opts.logCtx(), "checkpoint write failed",
				"fn", e.ins.fnName, "path", path, "err", e.res.CheckpointErr)
		}
		return
	}
	if complete {
		e.res.SpacePath, e.res.SpaceHash = path, hex.EncodeToString(sum.Sum(nil))
	}
	e.ins.mCkptWrites.Inc()
	if e.ins.log != nil {
		e.ins.log.DebugContext(e.opts.logCtx(), "checkpoint written",
			"fn", e.ins.fnName, "path", path,
			"nodes", snap.numNodes, "frontier", len(snap.frontier))
	}
}

const (
	// checkpointCostRatio: work at risk per unit of write time before a
	// periodic checkpoint pays; 9 keeps writing near a tenth of the run.
	checkpointCostRatio = 9
	// checkpointFloor is the least work worth a periodic checkpoint.
	checkpointFloor = 100 * time.Millisecond
	// checkpointNodePrior prices a write per node until one has been
	// measured (mid-range for corpus functions). Without it the first
	// periodic write counts as free, and on a space of a few hundred
	// milliseconds it takes a third of the run.
	checkpointNodePrior = 50 * time.Microsecond
)

// checkpointDue is the periodic cadence rule: write at a level boundary
// only when the work at risk (time since the last write finished) is at
// least checkpointCostRatio times what a write costs and at least
// checkpointFloor. A hard kill so loses at most one level, or about ten
// times a checkpoint's write time, or the floor, whichever is longest.
// Abort, pause and final writes do not ask.
func checkpointDue(atRisk, cost time.Duration) bool {
	return atRisk >= checkpointFloor && atRisk >= checkpointCostRatio*cost
}

// canceled polls Options.Ctx without blocking (a nil done channel
// never fires).
func (e *engine) canceled() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// run is the level loop, the only one: every entry point of the package
// that builds a space drives it, differing only in how the engine was
// seeded.
func (e *engine) run() *Result {
	opts := e.opts
	res := e.res
	ins := e.ins

	// done hands workers the raw channel so each expansion can bail
	// out early.
	if opts.Ctx != nil {
		e.done = opts.Ctx.Done()
	}

	e.lastCkpt, e.lastCkptCost, e.lastCkptNodes = e.start, checkpointNodePrior, 1
	e.snap = e.boundary()
	for len(e.frontier) > 0 {
		frontier := e.frontier
		if e.canceled() {
			e.abort(abortCanceledReason(opts.Ctx))
			break
		}
		if opts.Timeout > 0 && time.Since(e.start) > opts.Timeout {
			e.abort(abortTimeout)
			break
		}

		// Answer every (node, phase) pair of the level. Attempts are
		// evaluated concurrently, but the answers commit in (node, phase)
		// order, so the enumeration is reproducible regardless of
		// scheduling.
		e.work = levelWork(e.work[:0], frontier, opts.Phases)
		work := e.work
		// The number of sequences to evaluate at this level is exactly
		// len(work): counting (node, enabled phase) pairs instead would
		// include the immediate-repeat attempts skipped above and abort
		// levels that actually fit the cap.
		if len(work) > opts.MaxSeqPerLevel {
			e.abort(abortLevelCapReason(frontier[0].Level+1, len(work), opts.MaxSeqPerLevel))
			break
		}
		res.AttemptedPhases += len(work)
		level := frontier[0].Level
		ins.beginLevel(level, len(frontier), len(work))

		e.next = nil
		// While its attempts run, an instance is read-only and shares
		// its analyses with the clones made of it (rtl.CFGOf).
		for _, n := range frontier {
			n.fn.ShareAnalyses()
			if n.fn != nil && !n.fn.RegAssigned && !opts.NaiveReplay {
				n.ra = new(regAssigned)
			}
		}
		e.runLevel(work)
		if e.levelDone != nil {
			e.levelDone()
		}
		for _, n := range frontier {
			n.fn.DropAnalyses()
			if n.ra != nil {
				n.ra.fn.DropAnalyses()
				putClone(n.ra.fn)
				n.ra = nil
			}
		}
		if res.Aborted {
			break
		}
		ins.stats.NodesExpanded += len(frontier)
		e.frontier = e.next
		if !opts.KeepFuncs {
			for _, n := range frontier {
				putClone(n.fn) // instance no longer needed once explored
				n.fn = nil
			}
		}
		e.flush()
		if ins.log != nil {
			ins.log.InfoContext(e.opts.logCtx(), "level complete",
				"fn", ins.fnName, "level", level,
				"frontier", len(frontier), "attempts", len(work),
				"nodes", len(res.Nodes), "next_frontier", len(e.frontier),
				"dormant", ins.stats.Dormant, "merged", ins.stats.Merged,
				"elapsed", e.elapsed().Round(time.Millisecond).String())
		}
		// The level is complete: advance the durable boundary before
		// any abort below, so a cap-abort checkpoint resumes from here
		// (e.g. with a raised cap) rather than re-running the level.
		e.snap = e.boundary()
		if opts.MaxNodes > 0 && len(res.Nodes) > opts.MaxNodes {
			e.abort(abortNodeCapReason(opts.MaxNodes))
			break
		}
		if opts.StopAtFrontier > 0 && !opts.Equiv && len(e.frontier) >= opts.StopAtFrontier {
			// Pause at this boundary: expose the live frontier as an
			// in-memory checkpoint. The final write below then persists
			// the paused (resumable) state rather than a complete space.
			res.Checkpoint = &Checkpoint{Frontier: e.frontier}
			break
		}
		// A write's cost is linear in the nodes it serializes, so the
		// next one is priced at the last one's cost per node. An empty
		// frontier ends the loop, and the final write covers it.
		cost := time.Duration(float64(e.lastCkptCost) * float64(len(res.Nodes)) / float64(e.lastCkptNodes))
		if len(e.frontier) > 0 && checkpointDue(time.Since(e.lastCkpt), cost) {
			e.writeCheckpoint()
		}
	}
	putRing(e.ring)
	e.ring = nil
	e.flush()
	res.Elapsed = e.elapsed()
	res.Stats = ins.runStats()
	if opts.Equiv {
		var raw []int
		res.Equiv, raw = tallyEquiv(res.Nodes, e.folds)
		for i, n := range res.Nodes {
			n.EquivRaw = raw[i]
		}
	}
	if !res.Aborted && opts.CheckpointPath != "" {
		// Final write: the checkpoint file becomes the complete space.
		e.snap = e.boundary()
		e.writeCheckpoint()
	}
	return res
}

// attempt is one (node, phase) pair scheduled for evaluation.
type attempt struct {
	node  *Node
	phase opt.Phase
}

// levelWork appends to work the attempts of one level in serial order:
// every enabled phase at every frontier node, except the phase that
// produced the node — an active phase is never active twice in a row
// (Section 4.1), so re-attempting it is pointless.
func levelWork(work []attempt, frontier []*Node, phases []opt.Phase) []attempt {
	for _, n := range frontier {
		for _, p := range phases {
			if opt.Enabled(p, n.State) && (len(n.Seq) == 0 || n.Seq[len(n.Seq)-1] != p.ID()) {
				work = append(work, attempt{n, p})
			}
		}
	}
	return work
}

// checkAbort polls the two mid-level abort conditions (cancellation,
// wall-time budget) and marks the result aborted on the first hit.
// Committer-side only.
func (e *engine) checkAbort() bool {
	if e.res.Aborted {
		return true
	}
	if e.canceled() {
		e.abort(abortCanceledReason(e.opts.Ctx))
		return true
	}
	if e.opts.Timeout > 0 && time.Since(e.start) > e.opts.Timeout {
		e.abort(abortTimeout)
		return true
	}
	return false
}

// runLevel answers one level's attempts: Workers goroutines — this one,
// the caller, and Workers-1 it starts — run one claim → evaluate →
// publish loop over the level (a mid-level abort marks the result
// aborted and returns early). Each claims attempts from a shared cursor,
// evaluates them, probes (or parks a slot in) the striped index, and
// publishes the outcome into the run's bounded ring. The caller is also
// the single committer: between its own evaluations it consumes the
// ring's ready prefix strictly in attempt order, and once nothing is
// left to claim it commits the rest, parking while the next outcome is
// still being evaluated. The in-order commit is what makes the space
// deterministic: node IDs are assigned in first-committed-reference
// order, which is exactly the serial engine's discovery order,
// independent of worker count and scheduling. The ring bounds memory —
// at most len(ring.slots) evaluated-but-uncommitted clones exist — with
// no barrier: a slow attempt stalls only commits beyond it, not the
// evaluation pipeline. At Workers 1 no goroutine is started, nothing is
// sent on a channel and nobody parks: evaluation and commit alternate on
// the calling goroutine. Once the level is committed its discoveries
// need no further step: their slots sit in the index with their IDs,
// where the next level's probes find them.
func (e *engine) runLevel(work []attempt) {
	opts, res := e.opts, e.res
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(work) {
		workers = len(work)
	}

	// A level boundary, nothing in flight: the ring may still grow to
	// the work it is about to carry.
	if !e.ring.fits(len(work)) {
		putRing(e.ring)
		e.ring = getRing(len(work))
	}
	ring, base := e.ring, e.ringBase
	window := int64(len(ring.slots)) // how far ahead of the commit count anyone may evaluate
	total := int64(len(work))
	e.ringBase += total
	var claim, committed atomic.Int64
	// notify wakes the parked caller to look for published outcomes;
	// space wakes window-blocked workers after a commit. Both are
	// best-effort (non-blocking sends into small buffers): a dropped
	// notify means a wakeup is already pending, and a dropped space token
	// means enough tokens for every blocked worker are already buffered.
	notify := make(chan struct{}, 1)
	wake := func() {
		select {
		case notify <- struct{}{}:
		default:
		}
	}
	space := make(chan struct{}, max(workers-1, 0))
	stop := make(chan struct{})

	// loop is the worker's step, the same for everyone: claim the next
	// attempt, wait until admit lets it through (false: leave the
	// level), evaluate, publish.
	loop := func(admit func(i int64) bool, published func()) {
		for {
			i := claim.Add(1) - 1
			if i >= total || !admit(i) {
				return
			}
			ring.put(base+i, e.evaluate(work[i]))
			published()
		}
	}

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker announces what it published once per wakeBatch
			// outcomes, before it blocks on the window, and — whichever
			// way it leaves the level — on its way out, so the caller
			// never parks on an outcome nobody will tell it about.
			defer wake()
			n := 0
			loop(func(i int64) bool {
				// Evaluating a whole ring ahead of the commit count
				// would reuse a slot whose previous outcome is still
				// uncommitted; wait for the window to advance.
				for i-committed.Load() >= window {
					wake()
					select {
					case <-space:
					case <-stop:
						return false
					case <-e.done:
						return false
					}
				}
				// Checked per attempt so cancellation stops the run
				// within one attempt's latency.
				select {
				case <-stop:
					return false
				case <-e.done:
					return false
				default:
					return true
				}
			}, func() {
				if n++; n%wakeBatch == 0 {
					wake()
				}
			})
		}()
	}

	// tickC re-checks the wall-time budget while the caller is parked
	// waiting for a slow attempt; nil (never fires) without a timeout,
	// where cancellation alone can interrupt the wait.
	var tickC <-chan time.Time
	if opts.Timeout > 0 {
		t := time.NewTicker(25 * time.Millisecond)
		defer t.Stop()
		tickC = t.C
	}

	// commitUntil commits the ring's ready prefix, in attempt order, and
	// parks for more until bound attempts are committed; false means the
	// level was aborted first. Cancellation and the wall-time budget are
	// polled before every park, so on every wake-up, and every 4096
	// commits of a long prefix; a level whose last outcome is committed
	// is never aborted.
	next := int64(0) // the attempt to commit next; committed publishes it
	commitUntil := func(bound int64) bool {
		for !res.Aborted {
			for next < total && ring.ready(base+next) {
				o := ring.take(base + next)
				next++
				committed.Store(next)
				select {
				case space <- struct{}{}:
				default:
				}
				e.commitOutcome(work[next-1], &o)
				if next%4096 == 0 && e.checkAbort() {
					return false
				}
			}
			if next >= bound {
				return true
			}
			if e.checkAbort() {
				return false
			}
			select {
			case <-notify:
			case <-e.done:
			case <-tickC:
			}
		}
		return false
	}
	// The caller's turn at the loop. Before each evaluation it commits
	// what is ready and polls for an abort, as the workers do, so an
	// interruption costs at most the attempt in hand; holding a claim a
	// window ahead it commits and waits until the claim is inside the
	// window — every earlier attempt is committed, published, or in
	// another worker's hands, so the window opens without it. Out of
	// claims, it commits the rest of the level.
	loop(func(i int64) bool {
		return commitUntil(i-window+1) && !e.checkAbort()
	}, func() {})
	commitUntil(total)

	if res.Aborted {
		// Stop the pipeline and drain every published-but-uncommitted
		// outcome: their clones and fingerprint buffers go back to the
		// pools, and the ring slots are cleared, so an aborted level
		// pins nothing. Partially committed level state stays in
		// memory (as it always has) but the durable snapshot rolls
		// back to the last level boundary.
		close(stop)
		wg.Wait()
		for i, claimed := next, min(claim.Load(), total); i < claimed; i++ {
			if !ring.ready(base + i) {
				continue // claimed but never published
			}
			o := ring.take(base + i)
			putClone(o.fn)
			if o.buf != nil {
				fingerprint.PutBuffer(o.buf)
			}
		}
		return
	}
	wg.Wait()
}

// evaluate is one answer, as a ring worker (or a serial caller)
// produces it: evaluate the attempt and resolve its instance against the
// striped index here rather than at commit — a concurrent probe finds
// the key's slot or parks one, and the committer only turns the slot
// into the merge decision (summarize).
func (e *engine) evaluate(a attempt) outcome {
	ins := e.ins
	var began time.Time
	if ins.timed {
		began = time.Now()
	}
	o := evalAttempt(e.res.root, a, e.opts)
	if o.active {
		e.summarize(&o)
	}
	if ins.timed {
		observeSince(&ins.expandNS, ins.mExpand, began)
	}
	return o
}

// summarize computes, on the worker, what the committer needs of an
// active outcome: one fused scan yields the canonical encoding, CF key
// and fingerprint, which resolve to the key's dedup slot, and under
// Options.Equiv the class key follows — the third tier's one extra
// encoding — unless the slot already has an ID. Such a slot is a merge
// whatever the instance's class, and the committer never reads its
// class key; a slot a commit assigns after the probe just wastes one
// encoding. All of it is the state-key clock's.
func (e *engine) summarize(o *outcome) {
	ins := e.ins
	var began time.Time
	if ins.timed {
		began = time.Now()
	}
	o.buf = fingerprint.GetBuffer()
	o.fp = fingerprint.SummarizeInto(o.buf, o.fn)
	o.slot = e.index.resolve(stateBits(o.st), o.fp, o.buf.Enc)
	if e.opts.Equiv && !o.slot.assigned() {
		o.equiv = equivKey(o.buf.Equiv, o.slot.key[0], o.fn)
		o.buf.Equiv = o.equiv
	}
	if ins.timed {
		observeSince(&ins.stateKeyNS, ins.mStateKey, began)
	}
}

// equivKey writes the equivalence tier's class key of fn over dst: the
// gating-flags byte of fn's dedup key, then fn's equivalence-canonical
// encoding. Instances in different gating states never share a class.
func equivKey(dst []byte, flags byte, fn *rtl.Func) []byte {
	return fingerprint.EquivEncode(append(dst[:0], flags), fn)
}

// commitOutcome applies one answered attempt on the serial commit path,
// in attempt order; a newly discovered node joins the next frontier.
// A quarantined attempt contributes a node and an edge but neither an
// active nor a dormant outcome.
func (e *engine) commitOutcome(a attempt, o *outcome) {
	ins, st := e.ins, &e.ins.stats
	if o.quarantine != "" {
		qn := e.addQuarantined(a.node, a.phase.ID(), o.quarantine)
		a.node.Edges = append(a.node.Edges, Edge{Phase: a.phase.ID(), To: qn.ID})
		st.Quarantined++
		st.Edges++
		if ins.log != nil {
			ins.log.WarnContext(e.opts.logCtx(), "attempt quarantined",
				"fn", ins.fnName, "seq", a.node.Seq+string(a.phase.ID()),
				"reason", o.quarantine)
		}
		return
	}
	if !o.active {
		st.Dormant++
		return
	}
	cn, isNew := e.commitInstance(a, o)
	fingerprint.PutBuffer(o.buf)
	st.Active++
	st.Edges++
	a.node.Edges = append(a.node.Edges, Edge{Phase: a.phase.ID(), To: cn.ID})
	if isNew {
		e.next = append(e.next, cn)
	} else {
		st.Merged++
		putClone(o.fn) // duplicate instance: merged into cn
	}
}

// commitInstance resolves an active outcome's dedup slot into the
// serial merge decision, reporting whether it created the node. A slot
// with an ID is the classic identical-instance merge, whether an earlier
// level committed the key or an earlier attempt of this one (or, under
// Equiv, folded it into a class). The first commit referencing an
// unassigned slot is the instance's discovery — because commits happen
// in attempt order, it is the same attempt the serial engine would have
// discovered it on — and either folds it into an equivalence class
// (Options.Equiv) or creates the node and assigns the next ID.
func (e *engine) commitInstance(a attempt, o *outcome) (*Node, bool) {
	p := o.slot
	if p.id >= 0 {
		return e.res.Nodes[p.id], false
	}
	if e.equivClasses != nil {
		if id, ok := e.equivClasses[string(o.equiv)]; ok {
			// Raw-distinct instance, known class: the slot takes the
			// class node's ID, so future identical duplicates of this
			// spelling resolve to it.
			p.assign(id)
			e.folds = append(e.folds, fold{key: p.key, fp: o.fp, into: id, phase: a.phase.ID()})
			return e.res.Nodes[id], false
		}
	}
	// The slot's key was copied where it was parked; the node shares it
	// — no copy on the commit path.
	n := e.newNode(a.node.Level+1, a.node.Seq+string(a.phase.ID()), p.key, o)
	p.assign(int32(n.ID))
	return n, true
}

// clonePool recycles the storage of dead function clones. The
// enumeration clones the parent for every attempt but keeps only the
// clones that become new nodes; dormant attempts, duplicate instances
// and explored frontier functions return here, making the per-attempt
// clone almost allocation-free.
var clonePool sync.Pool

// getClone clones parent, reusing pooled storage when available.
func getClone(parent *rtl.Func) *rtl.Func {
	scratch, _ := clonePool.Get().(*rtl.Func)
	return parent.CloneReusing(scratch)
}

// putClone returns a dead clone's storage to the pool.
func putClone(fn *rtl.Func) {
	if fn != nil {
		clonePool.Put(fn)
	}
}

// outcome is the answer to one attempt: quarantined, dormant (the zero
// value) or active. An active outcome carries the instance's facts and
// the dedup slot of its key, both computed on the worker — fingerprint,
// plus the pooled buffer holding the canonical encoding, CF key and any
// class key, plus the striped index's probe — so the serial committer
// only turns them into the merge decision (a class lookup is a map probe
// with buf's bytes; only a new class copies its key); it returns buf to
// the fingerprint pool and clears the ring slot the outcome traveled in.
// A ring slot stays within 128 bytes.
type outcome struct {
	active     bool
	st         opt.State
	slot       *slot     // the key's dedup slot, found or newly parked
	fn         *rtl.Func // the instance; nil when nobody will expand it
	fp         fingerprint.FP
	buf        *fingerprint.Buffer
	equiv      []byte // class key (equivKey), Options.Equiv and an unassigned slot only
	checkErr   string
	quarantine string
}

// evalAttempt evaluates one (node, phase) pair: materialize the parent
// instance (clone, or full replay under NaiveReplay), apply the phase,
// and optionally verify the child.
func evalAttempt(root *rtl.Func, a attempt, opts *Options) outcome {
	o := applyPhase(root, a, opts)
	if o.quarantine != "" || !o.active {
		return o
	}
	if opts.Verifier != nil {
		if err := opts.Verifier(o.fn); err != nil {
			panic(fmt.Sprintf("search: instance %q+%c misbehaves: %v",
				a.node.Seq, a.phase.ID(), err))
		}
	}
	if opts.Check {
		if err := check.Err(o.fn, opts.Machine); err != nil {
			o.checkErr = err.Error()
		}
	}
	return o
}

// applyPhase guards the phase application: with a watchdog configured
// it runs on a sacrificial goroutine that is abandoned on timeout;
// either way a panicking phase is converted into a quarantine outcome
// instead of crashing the enumeration.
func applyPhase(root *rtl.Func, a attempt, opts *Options) outcome {
	if wd := opts.AttemptWatchdog; wd > 0 {
		ch := make(chan outcome, 1)
		go func() { ch <- applyPhaseRecover(root, a, opts) }()
		timer := time.NewTimer(wd)
		defer timer.Stop()
		select {
		case o := <-ch:
			return o
		case <-timer.C:
			return outcome{quarantine: fmt.Sprintf(
				"watchdog: phase %c at %q still running after %v", a.phase.ID(), a.node.Seq, wd)}
		}
	}
	return applyPhaseRecover(root, a, opts)
}

// applyPhaseRecover materializes the parent, applies the phase (with
// any injected faults), and converts a panic — a buggy or injected
// phase, or a broken replay — into a quarantine outcome.
func applyPhaseRecover(root *rtl.Func, a attempt, opts *Options) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{quarantine: fmt.Sprintf("panic: %v", r)}
		}
	}()
	fault := opts.Faults.PhaseFault(a.phase.ID(), a.node.Seq)
	if fault != nil {
		switch fault.Kind {
		case faultinject.KindPanic:
			panic(fmt.Sprintf("faultinject: phase %c at %q", a.phase.ID(), a.node.Seq))
		case faultinject.KindHang:
			time.Sleep(fault.HangFor)
		}
	}
	var child *rtl.Func
	st := opt.State{}
	if opts.NaiveReplay {
		// Figure 6(a): reload the unoptimized function and re-apply
		// the entire active prefix.
		child = replaySeq(root, a.node.Seq, opts.Machine, &st)
	} else {
		from := a.node.fn
		if ra := a.node.ra; ra != nil && a.phase.RequiresRegAssign() {
			if fn := ra.get(from); fn != nil {
				from = fn
			}
		}
		child = getClone(from)
		st = a.node.State
	}
	if !opt.Attempt(child, &st, a.phase, opts.Machine) {
		putClone(child)
		return outcome{} // dormant: branch pruned
	}
	if fault != nil && fault.Kind == faultinject.KindCorrupt {
		faultinject.Corrupt(child)
	}
	return outcome{active: true, fn: child, st: st}
}

// replaySeq reconstructs an instance by cloning the unoptimized
// function and applying an active phase sequence.
func replaySeq(root *rtl.Func, seq string, d *machine.Desc, st *opt.State) *rtl.Func {
	f := root.Clone()
	for i := range len(seq) {
		replayStep(f, st, seq, i, d)
	}
	return f
}

// replayStep applies seq's i-th phase to f, the instance of seq[:i] in
// state st: a phase byte the catalog does not know, or a phase dormant
// there, panics.
func replayStep(f *rtl.Func, st *opt.State, seq string, i int, d *machine.Desc) {
	p := opt.ByID(seq[i])
	if p == nil {
		panic(fmt.Sprintf("search: unknown phase %q in sequence", seq[i]))
	}
	if !opt.Attempt(f, st, p, d) {
		panic(fmt.Sprintf("search: replay of %q: phase %c dormant", seq, seq[i]))
	}
}

// Instance reconstructs the function instance of a node by replaying
// its sequence from the unoptimized root. When the search ran with
// KeepFuncs the retained instance is returned directly. Quarantined
// nodes have no instance.
func (r *Result) Instance(n *Node) *rtl.Func {
	if n.Quarantine != "" {
		panic(fmt.Sprintf("search: node %d (seq %q) is quarantined: %s", n.ID, n.Seq, n.Quarantine))
	}
	if n.fn != nil {
		return n.fn.Clone()
	}
	return replaySeq(r.root, n.Seq, r.opts.Machine, &opt.State{})
}

// nodesWhere returns the nodes keep accepts, in discovery order.
func (r *Result) nodesWhere(keep func(*Node) bool) []*Node {
	var out []*Node
	for _, n := range r.Nodes {
		if keep(n) {
			out = append(out, n)
		}
	}
	return out
}

// CheckFailures returns the nodes whose instances the semantic
// verifier rejected, in discovery order. Empty when the search ran
// without Options.Check or when every instance verified clean.
func (r *Result) CheckFailures() []*Node {
	return r.nodesWhere(func(n *Node) bool { return n.CheckErr != "" })
}

// QuarantinedNodes returns the nodes whose producing phase application
// panicked or tripped the watchdog, in discovery order.
func (r *Result) QuarantinedNodes() []*Node {
	return r.nodesWhere(func(n *Node) bool { return n.Quarantine != "" })
}

// Leaves returns the leaf nodes — instances at which every phase is
// dormant, where the optimization space DAG converges. Quarantined
// nodes are excluded: they are dead ends with no instance, not
// converged instances.
func (r *Result) Leaves() []*Node { return r.nodesWhere((*Node).IsLeaf) }

// smallest returns the node with the fewest instructions, resolving
// ties toward the shortest sequence; nil for none.
func smallest(nodes []*Node) *Node {
	var best *Node
	for _, n := range nodes {
		if best == nil || n.NumInstrs < best.NumInstrs ||
			(n.NumInstrs == best.NumInstrs && len(n.Seq) < len(best.Seq)) {
			best = n
		}
	}
	return best
}

// BestCodeSize returns the leaf with the fewest instructions,
// resolving ties toward the shortest sequence. Leaves are where Table
// 3's code size extremes are measured.
func (r *Result) BestCodeSize() *Node { return smallest(r.Leaves()) }

// OptimalCodeSize returns the instance with the fewest instructions
// anywhere in the space — not only at the leaves, since phases like
// loop unrolling legitimately grow the code, so the global minimum may
// be an interior node where the compiler would simply stop. The
// exhaustive space makes this the provably optimal code size reachable
// by any phase ordering of the compiler (Section 8).
func (r *Result) OptimalCodeSize() *Node {
	return smallest(r.nodesWhere(func(n *Node) bool { return n.Quarantine == "" }))
}
