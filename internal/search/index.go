package search

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sort"
	"sync"

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
// while the per-stripe fixed cost (a mutex and three small maps) stays
// in the tens of kilobytes per enumeration.
const numStripes = 64

// stripeFor selects the stripe of a fingerprint. flags are deliberately
// not mixed in: two keys that differ only in flags never compare equal
// anyway, and keeping the selection CRC-only makes the invariant
// "equal instance ⇒ same stripe" immediate.
func stripeFor(fp fingerprint.FP) uint32 { return fp.CRC & (numStripes - 1) }

// pendingNode is a this-level discovery parked in a stripe until the
// serial committer assigns it a node ID. Concurrency contract:
//
//   - key is immutable after creation (written once under the stripe
//     lock by the discovering worker; the flags byte + canonical
//     encoding copy that becomes the node key verbatim).
//   - id and alias are owned by the committer: -1 until the first
//     attempt referencing this entry commits; then either the new
//     node's ID, or — when the equivalence tier folded the instance —
//     the class node's ID with alias set. Workers never read them;
//     commits happen in attempt order, so "first committed reference"
//     is exactly the serial engine's "first discovery".
type pendingNode struct {
	key   string
	id    int32
	alias bool
}

// dedupIndex is the striped concurrent identical-instance index. The
// first tier maps (flags, fingerprint) to a small bucket of node IDs;
// the second tier compares the full canonical bytes of each bucket
// member, so a fingerprint collision can never merge distinct
// instances. Keys of bucket members live in the keyStore, which
// compresses them once their level retires.
//
// Concurrency model (DESIGN.md §13): buckets and aliases hold only
// committed, promoted entries and change exclusively at level
// boundaries (promote, serial insert) — during a level
// they are read-only. pending absorbs the level's discoveries under
// the stripe lock, so workers resolve concurrently without touching
// the serial commit path. The per-stripe counters are telemetry only:
// their values depend on probe interleaving and are never serialized
// into the space format.
type dedupIndex struct {
	keys    *keyStore
	stripes [numStripes]indexStripe
}

// indexStripe is one shard. All fields are guarded by mu.
type indexStripe struct {
	mu      sync.Mutex
	buckets map[indexKey][]int32
	pending map[indexKey][]*pendingNode

	// aliases is the equivalence tier's overlay (Options.Equiv only):
	// the canonical keys of raw-distinct instances that folded into an
	// equivalence class, mapping to the class's node ID. Alias keys
	// never enter the keyStore — they are not node keys — and are
	// never retired, because a later enumeration path can re-derive
	// the same raw spelling at any level. Nil when the option is off.
	aliases    map[indexKey][]aliasEntry
	aliasBytes int

	// Probe telemetry (scheduling-dependent, see type comment) plus
	// lock contention: acquisitions counts lock takes, contended the
	// ones that found the lock held.
	probes       int64
	byteCompares int64
	fpCollisions int64
	acquisitions int64
	contended    int64
}

// aliasEntry is one folded raw spelling: its full canonical key
// (flags byte + encoding) and the node of its equivalence class.
type aliasEntry struct {
	key string
	to  int32
}

func newDedupIndex(keys *keyStore) *dedupIndex {
	d := &dedupIndex{keys: keys}
	for i := range d.stripes {
		d.stripes[i].buckets = make(map[indexKey][]int32)
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

// scan looks k up in the stripe's committed tiers: the ID buckets
// (second-tier byte compare through the keyStore) and the equivalence
// aliases. Callers hold s.mu.
func (s *indexStripe) scan(keys *keyStore, k indexKey, flags byte, enc []byte) (int32, bool) {
	for _, id := range s.buckets[k] {
		s.byteCompares++
		if keys.matches(int(id), flags, enc) {
			return id, true
		}
		s.fpCollisions++
	}
	for _, a := range s.aliases[k] {
		s.byteCompares++
		if len(a.key) == len(enc)+1 && a.key[0] == flags && a.key[1:] == string(enc) {
			return a.to, true
		}
		s.fpCollisions++
	}
	return -1, false
}

// resolve is the workers' concurrent probe: find the instance in the
// committed tiers (dup ≥ 0), find it among this level's pending
// discoveries (pend non-nil, parked by an earlier probe), or park a
// new pending entry for it (pend non-nil, freshly created). Exactly
// one of the two results is meaningful; the committer turns them into
// the serial engine's merge decisions in attempt order.
func (d *dedupIndex) resolve(flags byte, fp fingerprint.FP, enc []byte) (dup int32, pend *pendingNode) {
	s := &d.stripes[stripeFor(fp)]
	k := indexKey{flags, fp}
	s.lock()
	defer s.mu.Unlock()
	s.probes++
	if id, ok := s.scan(d.keys, k, flags, enc); ok {
		return id, nil
	}
	for _, p := range s.pending[k] {
		s.byteCompares++
		if len(p.key) == len(enc)+1 && p.key[0] == flags && p.key[1:] == string(enc) {
			return -1, p
		}
		s.fpCollisions++
	}
	key := make([]byte, 0, 1+len(enc))
	key = append(append(key, flags), enc...)
	p := &pendingNode{key: string(key), id: -1}
	if s.pending == nil {
		s.pending = make(map[indexKey][]*pendingNode)
	}
	s.pending[k] = append(s.pending[k], p)
	return -1, p
}

// promote moves the level's committed pending entries into the
// read-only tiers at the level boundary (no workers are running):
// plain discoveries into the ID buckets, equivalence folds into the
// alias overlay. Entries never committed — the level aborted after
// they were parked — are dropped; an aborted run ends immediately and
// a resume rebuilds the index from the node table. The iteration
// order of the pending map only affects future probe-counter values,
// which are telemetry and never serialized.
func (d *dedupIndex) promote() {
	for i := range d.stripes {
		s := &d.stripes[i]
		s.lock()
		for k, list := range s.pending {
			for _, p := range list {
				switch {
				case p.id < 0: // never committed: aborted level
				case p.alias:
					if s.aliases == nil {
						s.aliases = make(map[indexKey][]aliasEntry)
					}
					s.aliases[k] = append(s.aliases[k], aliasEntry{key: p.key, to: p.id})
					s.aliasBytes += len(p.key)
				default:
					s.buckets[k] = append(s.buckets[k], p.id)
				}
			}
			delete(s.pending, k)
		}
		s.mu.Unlock()
	}
}

// insert records id under (flags, fp). The caller must have stored the
// node's full key in the keyStore first. Serial path: the root node
// and Resume's index rebuild.
func (d *dedupIndex) insert(flags byte, fp fingerprint.FP, id int) {
	s := &d.stripes[stripeFor(fp)]
	k := indexKey{flags, fp}
	s.lock()
	s.buckets[k] = append(s.buckets[k], int32(id))
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

// retainedBytes estimates the live memory held by the index: the key
// payloads (live, compressed and aliased) plus the bucket entries.
func (d *dedupIndex) retainedBytes() int {
	n := d.keys.retainedBytes()
	for i := range d.stripes {
		s := &d.stripes[i]
		s.mu.Lock()
		n += s.aliasBytes
		for _, b := range s.buckets {
			n += 4 * len(b)
		}
		for _, a := range s.aliases {
			n += 4 * len(a)
		}
		s.mu.Unlock()
	}
	return n
}

// keyStore owns the full canonical key bytes of every node. Keys of
// nodes in un-retired levels are held as live strings (the frontier
// still needs exact compares against them); when a level retires, its
// contiguous ID range is flate-compressed into a blob, dropping the
// per-node memory to the 16-byte fingerprint held by the index. A
// cross-level merge into a retired node (a phase reverting its
// parent's change, say) still byte-compares correctly: the blob is
// decompressed on demand, with the last-used blob cached.
//
// Concurrency contract: put, noteLevel and retire run only on the
// serial commit path (put) or at level boundaries (the rest), under
// mu. matches is called by workers holding a stripe lock; its live-map
// fast path takes the read lock, while the retired-blob path upgrades
// to the write lock because the one-entry decompression cache mutates
// on read. Membership cannot move between live and retired mid-level
// (retirement happens only at boundaries), so the upgrade re-reads
// nothing stale.
type keyStore struct {
	mu             sync.RWMutex
	live           map[int]string
	blobs          []keyBlob
	retiredThrough int // IDs below this are in blobs

	liveBytes int
	blobBytes int

	cachedBlob int // index into blobs, -1 when cold
	cachedData []byte
	inflations int // blobs decompressed so far; tests pin pass costs with it

	// levelStarts queues the level boundaries noteLevel has seen but
	// not yet retired; zw is the reused flate compressor, zr the
	// reused decompressor.
	levelStarts []int
	zw          *flate.Writer
	zr          io.ReadCloser
}

// keyRetireWindow is how many trailing levels keep their keys live.
// Merges overwhelmingly target nodes within two levels of the parent
// (a phase reverting or commuting with a recent one); keeping that
// window uncompressed means blob decompression happens only on the
// rare deep merge.
const keyRetireWindow = 3

// keyBlob is one retired contiguous ID range: keys of nodes
// [start, start+len(offs)-1) concatenated and compressed, with
// cumulative offsets into the raw concatenation.
type keyBlob struct {
	start int
	offs  []uint32
	data  []byte
}

func newKeyStore() *keyStore {
	return &keyStore{live: make(map[int]string), cachedBlob: -1}
}

// put stores the key of a newly created node.
func (s *keyStore) put(id int, key string) {
	s.mu.Lock()
	s.live[id] = key
	s.liveBytes += len(key)
	s.mu.Unlock()
}

// noteLevel records that a level finished expanding with levelStart
// nodes discovered before it began, and retires the level that slides
// out of the live window.
func (s *keyStore) noteLevel(levelStart int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.levelStarts = append(s.levelStarts, levelStart)
	if len(s.levelStarts) > keyRetireWindow {
		s.retire(s.retiredThrough, s.levelStarts[0])
		s.levelStarts = s.levelStarts[1:]
	}
}

// retire compresses the keys of nodes [from, to) into one blob and
// drops their live strings. Ranges must be retired in order; empty
// ranges are ignored. Callers hold mu (noteLevel) or own the store
// exclusively (the space loader).
func (s *keyStore) retire(from, to int) {
	if to <= from {
		return
	}
	if from != s.retiredThrough {
		panic(fmt.Sprintf("keyStore: retire [%d,%d) but retired through %d", from, to, s.retiredThrough))
	}
	var raw []byte
	offs := make([]uint32, 1, to-from+1)
	for id := from; id < to; id++ {
		k, ok := s.live[id]
		if !ok {
			panic(fmt.Sprintf("keyStore: retiring unknown node %d", id))
		}
		raw = append(raw, k...)
		offs = append(offs, uint32(len(raw)))
		s.liveBytes -= len(k)
		delete(s.live, id)
	}
	var zbuf bytes.Buffer
	if s.zw == nil {
		// The compressor state is large (~1 MB); one per store, reused
		// across levels with Reset.
		s.zw, _ = flate.NewWriter(&zbuf, flate.DefaultCompression)
	} else {
		s.zw.Reset(&zbuf)
	}
	_, err := s.zw.Write(raw)
	if err == nil {
		err = s.zw.Close()
	}
	if err != nil {
		// flate to a bytes.Buffer cannot fail; treat it as corruption.
		panic("keyStore: compress: " + err.Error())
	}
	data := append([]byte(nil), zbuf.Bytes()...)
	s.blobs = append(s.blobs, keyBlob{start: from, offs: offs, data: data})
	s.blobBytes += len(data) + 4*len(offs)
	s.retiredThrough = to
}

// blobFor returns the blob index covering a retired node ID.
func (s *keyStore) blobFor(id int) int {
	i := sort.Search(len(s.blobs), func(i int) bool { return s.blobs[i].start > id }) - 1
	if i < 0 || id-s.blobs[i].start >= len(s.blobs[i].offs)-1 {
		panic(fmt.Sprintf("keyStore: no blob for node %d", id))
	}
	return i
}

// blobData decompresses blob i, serving repeated lookups into the same
// blob from a one-entry cache. The raw size is known from the offset
// table, so the decode fills an exact-size buffer; the decompressor is
// reused via flate's Resetter. Callers hold the write lock: the cache
// and the shared decompressor mutate even on a logically read-only
// lookup.
func (s *keyStore) blobData(i int) []byte {
	if s.cachedBlob == i {
		return s.cachedData
	}
	s.inflations++
	b := &s.blobs[i]
	if s.zr == nil {
		s.zr = flate.NewReader(bytes.NewReader(b.data))
	} else if err := s.zr.(flate.Resetter).Reset(bytes.NewReader(b.data), nil); err != nil {
		panic("keyStore: corrupt key blob: " + err.Error())
	}
	raw := make([]byte, b.offs[len(b.offs)-1])
	if _, err := io.ReadFull(s.zr, raw); err != nil {
		panic("keyStore: corrupt key blob: " + err.Error())
	}
	s.cachedBlob, s.cachedData = i, raw
	return raw
}

// all returns the key of every node, indexed by ID, in one ascending
// sweep that inflates each retired blob at most once; the keys of one
// blob alias its (never mutated) inflated buffer. This is how the
// reassembly passes read a whole space; get is for isolated lookups.
func (s *keyStore) all() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([][]byte, 0, s.retiredThrough+len(s.live))
	for i := range s.blobs {
		offs, raw := s.blobs[i].offs, s.blobData(i)
		for j := 1; j < len(offs); j++ {
			keys = append(keys, raw[offs[j-1]:offs[j]:offs[j]])
		}
	}
	for k, ok := s.live[len(keys)]; ok; k, ok = s.live[len(keys)] {
		keys = append(keys, []byte(k))
	}
	return keys
}

// retireByLevel retires the keys of a whole node table, one blob per
// level, mirroring the retirement a fresh run performs (node IDs grow
// with level in spaces we write; any other grouping just yields
// differently shaped blobs). The caller owns the store exclusively.
func (s *keyStore) retireByLevel(nodes []*Node) {
	for start := 0; start < len(nodes); {
		end := start + 1
		for end < len(nodes) && nodes[end].Level == nodes[start].Level {
			end++
		}
		s.retire(start, end)
		start = end
	}
}

// get returns the full key of a node, live or retired.
func (s *keyStore) get(id int) string {
	s.mu.RLock()
	if k, ok := s.live[id]; ok {
		s.mu.RUnlock()
		return k
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if k, ok := s.live[id]; ok {
		return k
	}
	i := s.blobFor(id)
	b := &s.blobs[i]
	raw := s.blobData(i)
	j := id - b.start
	return string(raw[b.offs[j]:b.offs[j+1]])
}

// matches reports whether node id's stored key equals flags+enc,
// without allocating in the live case. The live fast path holds only
// the read lock, so concurrent workers probing different stripes never
// serialize on the store; the rare deep merge against a retired level
// upgrades to the write lock for the decompression cache.
func (s *keyStore) matches(id int, flags byte, enc []byte) bool {
	s.mu.RLock()
	if k, ok := s.live[id]; ok {
		s.mu.RUnlock()
		return len(k) == len(enc)+1 && k[0] == flags && k[1:] == string(enc)
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if k, ok := s.live[id]; ok {
		return len(k) == len(enc)+1 && k[0] == flags && k[1:] == string(enc)
	}
	i := s.blobFor(id)
	b := &s.blobs[i]
	raw := s.blobData(i)
	j := id - b.start
	k := raw[b.offs[j]:b.offs[j+1]]
	return len(k) == len(enc)+1 && k[0] == flags && bytes.Equal(k[1:], enc)
}

// retainedBytes is the payload memory the store holds on to: live key
// strings plus compressed blobs and their offset tables. The transient
// decompression cache is excluded — it is bounded by one blob and
// dropped on the next cross-blob lookup.
func (s *keyStore) retainedBytes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.liveBytes + s.blobBytes
}
