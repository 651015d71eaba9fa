package search

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// ringSize bounds how many evaluated-but-uncommitted outcomes an
// enumeration holds at once — the pipelined replacement for the old
// 4096-attempt chunk barrier's memory bound. Power of two so slot
// selection is a mask. A slot holds at most one live child clone plus
// one fingerprint buffer, so the worst-case transient footprint matches
// the old chunking while workers never stall on a barrier.
const ringSize = 4096

// minRingSize is the smallest ring: below it (8 KiB of slots) zeroing
// costs nothing worth saving.
const minRingSize = 64

// wakeBatch is how many outcomes a started worker publishes between
// wake-ups of the caller, who commits (runLevel has the rule and why
// nothing is stranded). The caller is parked only when it has nothing of
// its own to evaluate; a wake-up then costs a futex call, an outcome a
// few microseconds of evaluation. Power of two, and no larger than the
// smallest ring, so the caller is told of a full window before workers
// run out of it.
const wakeBatch = 32

// outcomeSlot is one ring cell. seq is the publication marker: a
// worker fills o and then stores the attempt's number + 1 (release);
// the committer — the goroutine that called runLevel, itself one of the
// workers — observes that value (acquire) before reading o, which
// makes the plain o fields safe to hand across goroutines. Attempts are
// numbered across the whole run (engine.ringBase), so a mark left by an
// earlier level can never read as a later level's publication, and a
// fresh ring's zero marks never read as published at all. After the
// committer consumes a slot it zeroes o — the ring must never retain a
// dead *rtl.Func or fingerprint buffer past its commit (they return to
// their pools instead).
type outcomeSlot struct {
	seq atomic.Int64
	o   outcome
}

// outcomeRing is a single-consumer ring buffer carrying evaluation
// outcomes from the workers to the in-order commit. It is sized by
// the work it carries: a run keeps one ring and replaces it only at a
// level boundary, by a larger one, while levels still outgrow it —
// allocating and zeroing ringSize slots (512 KiB) for a space of a
// dozen nodes would cost more than enumerating it. Slot reuse is
// coordinated outside the ring: a worker writes slot i&mask only after
// the committer's published commit count shows i-window was consumed
// (and a level starts only once the one before is consumed or drained),
// so put never races with a take of the previous occupant.
type outcomeRing struct {
	slots []outcomeSlot
}

// ringPools recycle rings across runs, one pool per size from
// minRingSize to ringSize: a run takes its ring from the pool of the
// size its widest level needs so far and puts it back when it replaces
// it or ends, so a series of small runs allocates no ring at all.
var ringPools [8]sync.Pool

// ringPool is the pool of rings of n slots, n a power of two in
// [minRingSize, ringSize].
func ringPool(n int) *sync.Pool {
	return &ringPools[bits.TrailingZeros(uint(n/minRingSize))]
}

// getRing returns a ring for a level of attempts attempts: the
// smallest power of two that holds them all, within [minRingSize,
// ringSize]. A recycled ring's publication marks are cleared, so it
// reads as fresh: no mark an earlier run left reads as published.
func getRing(attempts int) *outcomeRing {
	n := minRingSize
	for n < attempts && n < ringSize {
		n <<= 1
	}
	if r, ok := ringPool(n).Get().(*outcomeRing); ok {
		clear(r.slots)
		return r
	}
	return &outcomeRing{slots: make([]outcomeSlot, n)}
}

// putRing recycles r (nil: none), whose every outcome was taken.
func putRing(r *outcomeRing) {
	if r != nil {
		ringPool(len(r.slots)).Put(r)
	}
}

// fits reports whether the ring (nil: none yet) can carry a level of
// attempts attempts; one that cannot is replaced before the level
// starts.
func (r *outcomeRing) fits(attempts int) bool {
	return r != nil && len(r.slots) >= min(attempts, ringSize)
}

// at is the cell attempt i travels in.
func (r *outcomeRing) at(i int64) *outcomeSlot { return &r.slots[i&int64(len(r.slots)-1)] }

// put publishes the outcome of attempt i.
func (r *outcomeRing) put(i int64, o outcome) {
	s := r.at(i)
	s.o = o
	s.seq.Store(i + 1)
}

// ready reports whether attempt i's outcome has been published.
func (r *outcomeRing) ready(i int64) bool {
	return r.at(i).seq.Load() == i+1
}

// take consumes attempt i's outcome, clearing the slot so the ring
// holds no pointer to the clone or buffer past the commit. The caller
// must have observed ready(i).
func (r *outcomeRing) take(i int64) outcome {
	s := r.at(i)
	o := s.o
	s.o = outcome{}
	return o
}
