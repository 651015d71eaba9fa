package search

import "sync/atomic"

// ringSize bounds how many evaluated-but-uncommitted outcomes an
// enumeration holds at once — the pipelined replacement for the old
// 4096-attempt chunk barrier's memory bound. Power of two so slot
// selection is a mask. A slot holds at most one live child clone plus
// one fingerprint buffer, so the worst-case transient footprint matches
// the old chunking while workers never stall on a barrier.
const ringSize = 4096

// wakeBatch is how many outcomes a worker publishes between wake-ups
// of the committer (runLevel has the rule and why nothing is stranded).
// Waking a parked goroutine costs a futex call, an outcome a few
// microseconds of evaluation: one wake-up per outcome was 6% of a
// one-worker run. Power of two, and far below ringSize, so the
// committer is told of a full window long before workers run out of it.
const wakeBatch = 32

// outcomeSlot is one ring cell. seq is the publication marker: a
// worker fills o and then stores the attempt's number + 1 (release);
// the committer observes that value (acquire) before reading o, which
// makes the plain o fields safe to hand across goroutines. Attempts are
// numbered across the whole run (engine.ringBase), so a mark left by an
// earlier level can never read as a later level's publication. After
// the committer consumes a slot it zeroes o — the ring must never
// retain a dead *rtl.Func or fingerprint buffer past its commit (they
// return to their pools instead).
type outcomeSlot struct {
	seq atomic.Int64
	o   outcome
}

// outcomeRing is a single-consumer ring buffer carrying evaluation
// outcomes from the workers to the in-order committer, for every level
// of one run. Slot reuse is coordinated outside the ring: a worker
// writes slot i&mask only after the committer's published commit count
// shows i-ringSize was consumed (and a level starts only once the one
// before is consumed or drained), so put never races with a take of the
// previous occupant.
type outcomeRing struct {
	slots []outcomeSlot
}

func newOutcomeRing() *outcomeRing {
	return &outcomeRing{slots: make([]outcomeSlot, ringSize)}
}

// put publishes the outcome of attempt i.
func (r *outcomeRing) put(i int64, o outcome) {
	s := &r.slots[i&(ringSize-1)]
	s.o = o
	s.seq.Store(i + 1)
}

// ready reports whether attempt i's outcome has been published.
func (r *outcomeRing) ready(i int64) bool {
	return r.slots[i&(ringSize-1)].seq.Load() == i+1
}

// take consumes attempt i's outcome, clearing the slot so the ring
// holds no pointer to the clone or buffer past the commit. The caller
// must have observed ready(i).
func (r *outcomeRing) take(i int64) outcome {
	s := &r.slots[i&(ringSize-1)]
	o := s.o
	s.o = outcome{}
	return o
}
