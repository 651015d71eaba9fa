package search

import (
	"fmt"
	"testing"

	"repro/internal/fingerprint"
)

// lookup probes the committed tiers of the index (ID buckets, then
// equivalence aliases) the way a worker's resolve does before it turns
// to the level's pending entries, without parking anything on a miss.
func (d *dedupIndex) lookup(flags byte, fp fingerprint.FP, enc []byte) (int, bool) {
	s := &d.stripes[stripeFor(fp)]
	s.lock()
	defer s.mu.Unlock()
	s.probes++
	id, ok := s.scan(d.keys, indexKey{flags, fp}, flags, enc)
	return int(id), ok
}

// TestDedupIndexForcedFPCollision drives the two-tier index with
// manufactured fingerprint collisions: distinct canonical keys filed
// under one (flags, fingerprint) bucket. The enumerated spaces never
// produce such a collision (TestFingerprintTripleCollisionRate), so
// the second-tier byte compare is exercised here directly — it must
// keep the instances distinct and account for every collision in the
// counters.
func TestDedupIndexForcedFPCollision(t *testing.T) {
	ks := newKeyStore()
	d := newDedupIndex(ks)

	const flags = byte(0x05)
	fp := fingerprint.FP{Count: 7, ByteSum: 1234, CRC: 0xDEADBEEF}
	keyA := []byte("instance-A: add r1,r2")
	keyB := []byte("instance-B: sub r3,r4")

	ks.put(0, string(flags)+string(keyA))
	d.insert(flags, fp, 0)
	ks.put(1, string(flags)+string(keyB))
	d.insert(flags, fp, 1)

	if id, ok := d.lookup(flags, fp, keyA); !ok || id != 0 {
		t.Fatalf("lookup(keyA) = %d, %v; want 0, true", id, ok)
	}
	if id, ok := d.lookup(flags, fp, keyB); !ok || id != 1 {
		t.Fatalf("lookup(keyB) = %d, %v; want 1, true", id, ok)
	}
	// keyB shares keyA's bucket, so resolving it first byte-compared
	// against keyA — one real fingerprint collision.
	if c := d.counters(); c.fpCollisions != 1 {
		t.Errorf("fpCollisions = %d after resolving both members; want 1", c.fpCollisions)
	}

	// A third instance with the same fingerprint but different bytes
	// must not match either bucket member.
	if id, ok := d.lookup(flags, fp, []byte("instance-C: distinct")); ok {
		t.Fatalf("lookup(keyC) matched id %d; distinct bytes must not merge", id)
	}
	if c := d.counters(); c.fpCollisions != 3 {
		t.Errorf("fpCollisions = %d after a two-member miss; want 3", c.fpCollisions)
	}

	// Different gating flags are a different first-tier key even with
	// an identical fingerprint: no bucket, no byte compares. (Flags do
	// not select the stripe, so this probe still lands on the same
	// stripe — the miss is the empty bucket, not a different shard.)
	before := d.counters().byteCompares
	if _, ok := d.lookup(flags^1, fp, keyA); ok {
		t.Fatal("lookup with different flags must miss")
	}
	if c := d.counters(); c.byteCompares != before {
		t.Errorf("byteCompares grew by %d on an empty bucket; want 0", c.byteCompares-before)
	}
	if c := d.counters(); c.probes != 4 {
		t.Errorf("probes = %d; want 4", c.probes)
	}
}

// TestDedupIndexCollisionAcrossRetirement repeats the forced-collision
// exercise after the colliding keys' level retires into a compressed
// blob: the byte compare must decompress and still distinguish the
// bucket members.
func TestDedupIndexCollisionAcrossRetirement(t *testing.T) {
	ks := newKeyStore()
	d := newDedupIndex(ks)

	const flags = byte(0x02)
	fp := fingerprint.FP{Count: 3, ByteSum: 99, CRC: 42}
	keys := make([][]byte, 6)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("colliding-instance-%d with shared payload bytes", i))
		ks.put(i, string(flags)+string(keys[i]))
		d.insert(flags, fp, i)
	}

	// Slide the retirement window past the level holding ids 0..5: the
	// first noteLevel marks its start, and keyRetireWindow+1 further
	// levels push it out of the live window.
	ks.noteLevel(0)
	for i := 0; i <= keyRetireWindow; i++ {
		ks.noteLevel(len(keys))
	}
	if ks.retiredThrough != len(keys) {
		t.Fatalf("retiredThrough = %d; want %d", ks.retiredThrough, len(keys))
	}
	if len(ks.live) != 0 {
		t.Fatalf("%d live keys remain after retirement", len(ks.live))
	}

	for i, k := range keys {
		id, ok := d.lookup(flags, fp, k)
		if !ok || id != i {
			t.Fatalf("lookup(keys[%d]) = %d, %v after retirement; want %d, true", i, id, ok, i)
		}
	}
	if id, ok := d.lookup(flags, fp, []byte("absent instance")); ok {
		t.Fatalf("absent key matched id %d in retired bucket", id)
	}

	// The blob must cost less than the raw keys it replaced, and the
	// index must report it.
	var raw int
	for _, k := range keys {
		raw += len(k) + 1
	}
	if rb := ks.retainedBytes(); rb >= raw {
		t.Errorf("retainedBytes = %d; want < %d (compression)", rb, raw)
	}
	if d.retainedBytes() <= ks.retainedBytes() {
		t.Errorf("index retainedBytes %d should exceed store's %d by the bucket entries",
			d.retainedBytes(), ks.retainedBytes())
	}
}
