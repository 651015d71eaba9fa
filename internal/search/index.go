package search

import (
	"sync"
	"sync/atomic"

	"repro/internal/fingerprint"
)

// indexKey is the first tier of the identical-instance index: the
// gating-state flags plus the paper's three-value fingerprint. Hashing
// on this 17-byte key instead of the full canonical encoding is the
// whole point of Section 4.2 — almost every probe is resolved by the
// fingerprint alone.
type indexKey struct {
	flags byte
	fp    fingerprint.FP
}

// numStripes is the power-of-two shard count of the concurrent index.
// A stripe is selected by the fingerprint CRC, so equal keys (equal
// fingerprints) always land on the same stripe and a single stripe
// lock serializes all probes that could observe the same instance.
// 64 stripes keep the expected contention at 16 workers negligible
// while the per-stripe fixed cost (a mutex and one small map) stays in
// the kilobytes per enumeration.
const numStripes = 64

// stripeFor selects the stripe of a fingerprint. flags are deliberately
// not mixed in: two keys that differ only in flags never compare equal
// anyway, and keeping the selection CRC-only makes the invariant
// "equal instance ⇒ same stripe" immediate.
func stripeFor(fp fingerprint.FP) uint32 { return fp.CRC & (numStripes - 1) }

// slot is the dedup slot of one canonical key, the one record identical-
// instance detection keeps per distinct spelling in the striped index.
// Concurrency contract:
//
//   - key (flags byte + canonical encoding) is immutable once the slot
//     is parked: written once, under the stripe lock, by the worker that
//     first probed it. It is the node's key verbatim — Node.key shares
//     the string — so a key is stored once however often it is probed.
//   - id is owned by the committer: -1 until the first attempt that
//     references the slot commits, then the new node's ID or — when the
//     equivalence tier folded the spelling — its class node's. The
//     committer is its only writer (assign); commits happen in attempt
//     order, so "first committed reference" is exactly the serial
//     engine's "first discovery". Workers read it atomically (assigned),
//     as a hint for skipping work only: an ID, once there, never changes,
//     so a worker that sees one knows the committer will merge the
//     attempt without reading its class key; one that sees -1 computes
//     the key, which a commit in between merely wastes. A slot parked by
//     a level that aborted before committing it just stays at -1: the
//     aborted run ends there, and a resume rebuilds the index from the
//     node table.
type slot struct {
	key string
	id  int32
}

// assign gives the slot its ID: the committer's write.
func (p *slot) assign(id int32) { atomic.StoreInt32(&p.id, id) }

// assigned reports whether a commit has given the slot its ID: a
// worker's read.
func (p *slot) assigned() bool { return atomic.LoadInt32(&p.id) >= 0 }

// slotBytes is what a slot costs beyond its key bytes: the struct and
// the pointer its bucket holds to it.
const slotBytes = 32

// matches reports whether the slot's key is flags + enc.
func (p *slot) matches(flags byte, enc []byte) bool {
	return len(p.key) == len(enc)+1 && p.key[0] == flags && p.key[1:] == string(enc)
}

// dedupIndex is the striped concurrent identical-instance index. The
// first tier maps (flags, fingerprint) to a small bucket of slots; the
// second tier compares the full canonical bytes of each bucket member,
// so a fingerprint collision can never merge distinct instances. Keys
// stay raw for the whole run (DESIGN.md §9 has the measurement).
//
// Concurrency model (DESIGN.md §13): a stripe's map and buckets change
// only under its lock — workers park the level's discoveries, the serial
// path inserts the root and Resume's rebuilt table — and under that lock
// nothing but immutable keys is read. The per-stripe counters are
// telemetry only: their values depend on probe interleaving and are
// never serialized into the space format.
type dedupIndex struct {
	stripes [numStripes]indexStripe
}

// indexStripe is one shard. All fields are guarded by mu.
type indexStripe struct {
	mu    sync.Mutex
	slots map[indexKey][]*slot
	// retained is the memory the stripe's slots hold: key bytes plus
	// slotBytes each.
	retained int

	// Probe telemetry (scheduling-dependent, see type comment) plus
	// lock contention: acquisitions counts lock takes, contended the
	// ones that found the lock held.
	probes       int64
	byteCompares int64
	fpCollisions int64
	acquisitions int64
	contended    int64
}

func newDedupIndex() *dedupIndex {
	d := &dedupIndex{}
	for i := range d.stripes {
		d.stripes[i].slots = make(map[indexKey][]*slot)
	}
	return d
}

// lock acquires a stripe, counting the acquisition and whether it
// contended with another holder.
func (s *indexStripe) lock() {
	if !s.mu.TryLock() {
		s.mu.Lock()
		s.contended++
	}
	s.acquisitions++
}

// find returns the slot of flags + enc in bucket k, nil when no member
// has those bytes. Callers hold s.mu.
func (s *indexStripe) find(k indexKey, enc []byte) *slot {
	for _, p := range s.slots[k] {
		s.byteCompares++
		if p.matches(k.flags, enc) {
			return p
		}
		s.fpCollisions++
	}
	return nil
}

// park files p in bucket k. Callers hold s.mu.
func (s *indexStripe) park(k indexKey, p *slot) {
	s.slots[k] = append(s.slots[k], p)
	s.retained += len(p.key) + slotBytes
}

// resolve is the workers' concurrent probe: it answers with the slot of
// the instance's key, found — committed five levels or five attempts
// ago, or parked and not committed yet — or newly parked. The committer
// turns slots into the serial engine's merge decisions in attempt order.
func (d *dedupIndex) resolve(flags byte, fp fingerprint.FP, enc []byte) *slot {
	s := &d.stripes[stripeFor(fp)]
	k := indexKey{flags, fp}
	s.lock()
	defer s.mu.Unlock()
	s.probes++
	if p := s.find(k, enc); p != nil {
		return p
	}
	key := make([]byte, 0, 1+len(enc))
	key = append(append(key, flags), enc...)
	p := &slot{key: string(key), id: -1}
	s.park(k, p)
	return p
}

// insert files the committed node id under its key (flags byte first)
// and fingerprint. Serial path: the root node and Resume's index
// rebuild, whose keys no probe has parked.
func (d *dedupIndex) insert(key string, fp fingerprint.FP, id int) {
	s := &d.stripes[stripeFor(fp)]
	s.lock()
	s.park(indexKey{key[0], fp}, &slot{key: key, id: int32(id)})
	s.mu.Unlock()
}

// indexCounters aggregates the per-stripe telemetry.
type indexCounters struct {
	probes       int64
	byteCompares int64
	fpCollisions int64
	acquisitions int64
	contended    int64
}

// counters sums the stripe counters. Called at level boundaries and by
// tests; takes each stripe lock so it is safe alongside workers.
func (d *dedupIndex) counters() indexCounters {
	var c indexCounters
	for i := range d.stripes {
		s := &d.stripes[i]
		s.mu.Lock()
		c.probes += s.probes
		c.byteCompares += s.byteCompares
		c.fpCollisions += s.fpCollisions
		c.acquisitions += s.acquisitions
		c.contended += s.contended
		s.mu.Unlock()
	}
	return c
}

// retainedBytes is the memory the index holds on to: every slot's key
// bytes — which the nodes share, not copy — plus slotBytes per slot.
func (d *dedupIndex) retainedBytes() int {
	n := 0
	for i := range d.stripes {
		s := &d.stripes[i]
		s.mu.Lock()
		n += s.retained
		s.mu.Unlock()
	}
	return n
}
