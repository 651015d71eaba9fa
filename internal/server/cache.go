package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fingerprint"
	"repro/internal/rtl"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// normOptions is the canonical form of the request options that shape
// the enumerated space. Anything that does not change the space (worker
// count, telemetry, deadlines) stays out, so requests differing only in
// those coalesce onto the same cache entry. The JSON encoding of this
// struct is part of the cache key, so fields must never be reordered or
// renamed without revving keyPrefix.
type normOptions struct {
	Cap      int  `json:"cap"` // 0 is the engine's default, however the request spelled it
	MaxNodes int  `json:"max_nodes"`
	Check    bool `json:"check"`
	Equiv    bool `json:"equiv"`
}

// defaultCap is the per-level cap search.Run applies when none is given
// (Options.MaxSeqPerLevel). A request naming it enumerates the space an
// omitted cap does, so it is keyed as omitted.
const defaultCap = 1_000_000

// keyPrefix versions the key derivation: bump it when the space format
// or the key material changes incompatibly, and old cache entries
// simply become unreachable instead of wrong. v2: normOptions grew the
// equiv field, changing the encoded key material. v3: the equivalence
// tier stopped ordering commutative operands by value number, so its
// classes are finer on some functions (none the corpus or the benchmark
// enumerates); an equiv space an older binary cached may hold merges
// this one does not make, and must not be served.
const keyPrefix = "spaced/v3\x00"

// cacheKey is the hex SHA-256 identifying one (function, options)
// enumeration request. It is content-addressed: the function enters via
// its canonical instance encoding (registers and labels renumbered),
// so textual differences that compile to the same code share an entry.
type cacheKey string

var keyPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// requestKey derives the cache key for enumerating fn under no. The
// function is canonicalized the same way search.Run roots the space
// (clone + cleanup) so the key is stable across callers.
func requestKey(fn *rtl.Func, no normOptions) cacheKey {
	root := fn.Clone()
	rtl.Cleanup(root)
	opts, err := json.Marshal(no)
	if err != nil {
		// normOptions is a plain struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("server: encoding options: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(keyPrefix))
	h.Write([]byte(fn.Name))
	h.Write([]byte{0})
	h.Write(fingerprint.Encode(root))
	h.Write([]byte{0})
	h.Write(opts)
	return cacheKey(hex.EncodeToString(h.Sum(nil)))
}

// entry is what the memory cache keeps of a complete space: the answer
// every request for it repeats — canonical hash and counts, computed
// once by the flight that enumerated it (admit) and published beside
// the space (answerRecord), so hit paths, memory or disk, neither
// re-serialize nor re-walk the space; Cache and ElapsedMS are the
// request's own — and the two facts a flight record reads. The decoded
// space itself is not kept: nothing reads it again, and a download
// streams the disk file.
type entry struct {
	answer     enumerateResponse
	stats      search.RunStats
	checkpoint time.Duration // search.Result.CheckpointTime
}

// memCache is a small LRU of answers keyed by request key — the first
// cache level, in front of the disk store.
type memCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
}

type memItem struct {
	key cacheKey
	ent entry
}

func newMemCache(max int) *memCache {
	if max <= 0 {
		max = 64
	}
	return &memCache{max: max, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

func (c *memCache) get(k cacheKey) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return entry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*memItem).ent, true
}

func (c *memCache) add(k cacheKey, ent entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*memItem).ent = ent
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&memItem{key: k, ent: ent})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*memItem).key)
	}
}

func (c *memCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// diskStore is the second cache level: one space document per key,
// <key>.space.gz — the space's canonical bytes, what explore -save
// writes, so a cached entry is served verbatim and its SHA-256 is the
// hash spacedot -hash prints (entries older builds stored keep their
// timing; spacedot -hash audits those too) — and beside it the key's
// answer record (<key>.answer, see answerRecord), which is what a disk
// hit reads.
//
// The space file is also the key's checkpoint slot: the local search
// engine checkpoints into it (opts.CheckpointPath) and the coordinator
// mirrors a worker's uploaded checkpoint into it (writeCkpt), so the
// key's next local run, dispatch or coordinator life resumes from it. The answer record is the only seal:
// a space file whose record is missing, torn or another key's is work in
// progress — never served, never folded into /v1/stats — and publishing
// a finished space the engine already wrote there is writing its record.
//
// With maxBytes set the store is bounded: published pairs (the record's
// bytes included) and mirrored checkpoints are tracked with sizes and a
// use clock, and every write sweeps the least-recently-used keys until
// the total fits again; a checkpoint the engine writes itself stays
// outside the budget until it publishes. A key with in-flight readers
// (a /v1/space download streaming it, a load decoding it) is never
// evicted — the sweep skips it and takes the next oldest.
type diskStore struct {
	dir      string
	maxBytes int64
	gauge    *telemetry.Gauge // cache_disk_bytes
	// faults, when non-nil, can fail the directory fsync of a publish.
	faults *faultinject.Plan

	mu      sync.Mutex
	entries map[cacheKey]*diskEntry
	total   int64
	seq     int64 // LRU use clock; higher = more recent
}

// diskEntry is the eviction bookkeeping for one key's files.
type diskEntry struct {
	size    int64
	lastUse int64
	readers int
}

const (
	spaceSuffix  = ".space.gz"
	recordSuffix = ".answer"
)

func newDiskStore(dir string, maxBytes int64, gauge *telemetry.Gauge) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: cache dir: %w", err)
	}
	st := &diskStore{dir: dir, maxBytes: maxBytes, gauge: gauge,
		entries: make(map[cacheKey]*diskEntry)}
	if err := st.scan(); err != nil {
		return nil, err
	}
	return st, nil
}

// scan seeds the accounting from entries a previous process left
// behind, ordering the use clock by file mtime so eviction starts from
// genuinely old entries, and deletes the files it orphaned.
func (st *diskStore) scan() error {
	des, err := os.ReadDir(st.dir)
	if err != nil {
		return fmt.Errorf("server: cache dir: %w", err)
	}
	type seed struct {
		key   cacheKey
		size  int64
		mtime int64
	}
	var seeds []seed
	records := make(map[cacheKey]int64) // answer record sizes, by key
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		switch {
		case strings.HasSuffix(name, spaceSuffix+".tmp"), strings.HasSuffix(name, recordSuffix+".tmp"),
			strings.HasSuffix(name, ".ckpt"+spaceSuffix):
			// A put, a checkpoint or a record write a previous process died
			// in, never renamed; or a checkpoint slot an older build kept
			// apart from its entry. Never an entry, and nothing reads it.
			os.Remove(filepath.Join(st.dir, name)) //nolint:errcheck // retried next boot
		case strings.HasSuffix(name, recordSuffix):
			if fi, err := de.Info(); err == nil {
				records[cacheKey(name[:len(name)-len(recordSuffix)])] = fi.Size()
			}
		case strings.HasSuffix(name, spaceSuffix):
			// A published entry, or a checkpoint a previous process left
			// behind: budgeted alike, so the sweep may reclaim either.
			k := cacheKey(name[:len(name)-len(spaceSuffix)])
			if fi, err := de.Info(); err == nil && keyPattern.MatchString(string(k)) {
				seeds = append(seeds, seed{k, fi.Size(), fi.ModTime().UnixNano()})
			}
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].mtime < seeds[j].mtime })
	for _, sd := range seeds {
		size := sd.size + records[sd.key]
		delete(records, sd.key)
		st.seq++
		st.entries[sd.key] = &diskEntry{size: size, lastUse: st.seq}
		st.total += size
	}
	for k := range records {
		// A record whose entry is gone answers nothing.
		os.Remove(st.recordPath(k)) //nolint:errcheck // retried next boot
	}
	st.setGauge()
	return nil
}

// setGauge publishes the current byte total; callers hold st.mu (or
// have exclusive access during construction).
func (st *diskStore) setGauge() {
	if st.gauge != nil {
		st.gauge.Set(st.total)
	}
}

// acquire marks k used and pins it against eviction; the caller must
// balance with release. Unknown keys (not yet in the store) are still
// pinned so a concurrent put+sweep cannot race the reader.
func (st *diskStore) acquire(k cacheKey) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.useLocked(k).readers++
}

// useLocked returns k's entry, created when absent, stamped most
// recently used. Callers hold st.mu.
func (st *diskStore) useLocked(k cacheKey) *diskEntry {
	e := st.entries[k]
	if e == nil {
		e = &diskEntry{}
		st.entries[k] = e
	}
	st.seq++
	e.lastUse = st.seq
	return e
}

// release unpins k.
func (st *diskStore) release(k cacheKey) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.entries[k]; e != nil {
		e.readers--
		if e.readers <= 0 && e.size == 0 {
			// A placeholder pinned by acquire for a key that never
			// materialized; drop it rather than leak the slot.
			delete(st.entries, k)
		}
	}
}

// sweepLocked evicts least-recently-used budgeted keys (published pairs
// and checkpoint mirrors) until the budget fits, skipping keys with
// in-flight readers and the key just written. Callers hold st.mu.
func (st *diskStore) sweepLocked(justWrote cacheKey) (evicted int) {
	if st.maxBytes <= 0 || st.total <= st.maxBytes {
		return 0
	}
	type cand struct {
		key cacheKey
		e   *diskEntry
	}
	var cands []cand
	for k, e := range st.entries {
		if e.size > 0 && e.readers == 0 && k != justWrote {
			cands = append(cands, cand{k, e})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].e.lastUse < cands[j].e.lastUse })
	for _, c := range cands {
		if st.total <= st.maxBytes {
			break
		}
		st.removeFiles(c.key)
		st.total -= c.e.size
		delete(st.entries, c.key)
		evicted++
	}
	st.setGauge()
	return evicted
}

// removeFiles deletes k's space file and its answer record. The
// accounting proceeds whatever the removals say; a stray file is
// re-scanned next boot.
func (st *diskStore) removeFiles(k cacheKey) {
	os.Remove(st.path(k))
	os.Remove(st.recordPath(k))
}

func (st *diskStore) path(k cacheKey) string {
	return filepath.Join(st.dir, string(k)+spaceSuffix)
}

func (st *diskStore) recordPath(k cacheKey) string {
	return filepath.Join(st.dir, string(k)+recordSuffix)
}

// answerRecord is the file a publish writes beside <key>.space.gz: what
// of an entry describes the space (its checkpoint time describes the
// flight that enumerated it, and stays behind), and the size and SHA-256
// of the stored bytes it was computed from. On disk it is the hex
// SHA-256 of the JSON body, a newline, the body. A disk hit reads this
// and checksums the entry; it never decodes the space. An entry is
// stored as the bytes its space_hash was taken over, so the two hashes
// are equal; a pair an older build published, whose entry kept its
// timing, has two and answers as well.
type answerRecord struct {
	Answer      enumerateResponse `json:"answer"` // Cache and ElapsedMS are the request's own, zero here
	Stats       search.RunStats   `json:"stats"`
	EntrySize   int64             `json:"entry_size"`
	EntrySHA256 string            `json:"entry_sha256"`
}

// fileSum streams a file through SHA-256.
func fileSum(path string) (size int64, sum string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	h := sha256.New()
	size, err = io.Copy(h, f)
	return size, hex.EncodeToString(h.Sum(nil)), err
}

// hexSum is b's SHA-256 in hex, the form every hash here is named in.
func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// writeRecord seals k's entry as it now stands on disk: it hashes the
// stored bytes and writes ent's answer record over them, reporting the
// bytes the pair occupies. The record is not fsynced — published's
// directory fsync orders the rename, and a record that lost its data to
// a power failure fails its checksum and is re-published.
func (st *diskStore) writeRecord(k cacheKey, ent entry) (size int64, err error) {
	rec := answerRecord{Answer: ent.answer, Stats: ent.stats}
	if rec.EntrySize, rec.EntrySHA256, err = fileSum(st.path(k)); err != nil {
		// An entry that cannot be read gets no record, but it is on disk.
		if fi, serr := os.Stat(st.path(k)); serr == nil {
			size = fi.Size()
		}
		return size, err
	}
	body, _ := json.Marshal(rec) // integers and strings: Marshal cannot fail
	sum := sha256.Sum256(body)
	b := append(append(hex.AppendEncode(nil, sum[:]), '\n'), body...)
	if err := writeBytes(st.recordPath(k), b, false); err != nil {
		return rec.EntrySize, err
	}
	return rec.EntrySize + int64(len(b)), nil
}

// writeBytes atomically replaces path with b; fsync also makes b
// durable before the rename.
func writeBytes(path string, b []byte, fsync bool) error {
	return search.WriteFile(path, func(w io.Writer) error { _, err := w.Write(b); return err }, fsync)
}

// answer is the disk hit: k's entry as its record states it, once the
// record checks out against itself and the key and the stored bytes
// against the record. A key with no record reports os.IsNotExist — a
// plain miss, whatever its space file holds; any other error is a pair
// that does not check out, which the caller removes. Validity is by
// content alone, so it does not matter which of the two renames a crash
// kept, and a wrong, torn or substituted entry is caught here by
// SHA-256 rather than by a decoder. The pair is pinned meanwhile so an
// eviction sweep cannot unlink half of it.
func (st *diskStore) answer(k cacheKey) (entry, error) {
	st.acquire(k)
	defer st.release(k)
	rec, err := st.record(k)
	if err != nil {
		return entry{}, err
	}
	size, sum, err := fileSum(st.path(k))
	if err != nil || size != rec.EntrySize || sum != rec.EntrySHA256 {
		return entry{}, fmt.Errorf("server: cache entry %s is not the %d bytes with SHA-256 %s its record describes: %d bytes, SHA-256 %s (reading: %v)",
			k, rec.EntrySize, rec.EntrySHA256, size, sum, err)
	}
	return entry{answer: rec.Answer, stats: rec.Stats}, nil
}

// record reads k's answer record and holds it against itself and the
// key; what it says of the stored bytes is the caller's to check. A key
// whose record fails here has no entry: its space file, if any, is work
// in progress.
func (st *diskStore) record(k cacheKey) (rec answerRecord, err error) {
	b, err := os.ReadFile(st.recordPath(k))
	if err != nil {
		return rec, err
	}
	const head = 2*sha256.Size + 1 // the checksum line
	if len(b) < head || string(b[:head]) != hexSum(b[head:])+"\n" {
		return rec, fmt.Errorf("server: answer record of %s is torn: it fails its own checksum", k)
	}
	if err := json.Unmarshal(b[head:], &rec); err != nil || rec.Answer.Key != string(k) {
		return rec, fmt.Errorf("server: answer record of %s is another's: names key %q (decoding: %v)", k, rec.Answer.Key, err)
	}
	return rec, nil
}

// load decodes the cached space for k, for the one reader that wants
// the whole DAG (the /v1/stats fold, which calls it only on a sealed
// key). A missing file reports os.IsNotExist; a damaged one reports the
// load error. The entry is pinned for the duration of the decode so an
// eviction sweep cannot unlink it mid-read.
func (st *diskStore) load(k cacheKey) (*search.Result, error) {
	st.acquire(k)
	defer st.release(k)
	res, err := search.LoadFile(st.path(k))
	if err != nil {
		return nil, err
	}
	if res.Checkpoint != nil || res.Aborted {
		// Only complete spaces are sealed; anything else under a record
		// is damage.
		return nil, fmt.Errorf("server: cache entry %s holds an incomplete space", k)
	}
	return res, nil
}

// open returns k's sealed entry for streaming (GET /v1/space), with its
// record. A key whose record does not check out, or does not describe a
// file this long, has no entry — at most a space in progress — and
// reports an error. The entry stays pinned until the returned release
// func runs, so a download in flight can never lose its file to the
// eviction sweep.
func (st *diskStore) open(k cacheKey) (*os.File, answerRecord, func(), error) {
	st.acquire(k)
	rec, err := st.record(k)
	var f *os.File
	if err == nil {
		f, err = os.Open(st.path(k))
	}
	if err == nil {
		if fi, serr := f.Stat(); serr != nil || fi.Size() != rec.EntrySize {
			f.Close()
			err = fmt.Errorf("server: cache entry %s is not the %d bytes its record describes", k, rec.EntrySize)
		}
	}
	if err != nil {
		st.release(k)
		return nil, rec, nil, err
	}
	return f, rec, func() { f.Close(); st.release(k) }, nil
}

// remove deletes a (damaged) cache entry and its answer record.
func (st *diskStore) remove(k cacheKey) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.entries[k]; e != nil && e.size > 0 {
		st.total -= e.size
		e.size = 0
		if e.readers <= 0 {
			delete(st.entries, k)
		}
		st.setGauge()
	}
	st.removeFiles(k)
}

// put persists a completed space rendered in memory atomically and
// durably: the one space-file writer's temp file + fsync + rename over
// whatever checkpoint the slot held, then published's record and
// directory fsync, so a crash never leaves a torn entry and a power loss
// never loses a published one. b is the space's canonical bytes and ent
// the answer admit computed, both from the one render whose hash ent
// carries.
func (st *diskStore) put(k cacheKey, b []byte, ent entry) error {
	if err := writeBytes(st.path(k), b, true); err != nil {
		return fmt.Errorf("server: cache write: %w", err)
	}
	return st.published(k, ent)
}

// published seals k's space file, once a complete space is in place
// there — put's rename, or the search engine's final checkpoint write
// (already fsynced) into the slot: it writes the answer record beside
// it — the only place one is written, so only complete spaces ever have
// one — and fsyncs the directory over the renames. What is on disk is
// accounted for whatever the record write and the fsync say: a failure
// loses the disk hit or the durability promise, not the file, and the
// budget must see it.
func (st *diskStore) published(k cacheKey, ent entry) error {
	size, err := st.writeRecord(k, ent)
	if serr := search.SyncDir(st.dir, st.faults); err == nil && serr != nil {
		err = fmt.Errorf("syncing directory: %w", serr)
	}
	st.mu.Lock()
	e := st.useLocked(k)
	st.total += size - e.size
	e.size = size
	st.sweepLocked(k)
	st.setGauge()
	st.mu.Unlock()
	if err != nil {
		return fmt.Errorf("server: cache write: %w", err)
	}
	return nil
}

// diskBytes reports the tracked byte total (tests).
func (st *diskStore) diskBytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total
}

// readCkpt returns the raw bytes of k's space file (os.IsNotExist when
// none): for a key that missed every tier, the checkpoint an earlier
// life left, which a dispatch is seeded with.
func (st *diskStore) readCkpt(k cacheKey) ([]byte, error) {
	return os.ReadFile(st.path(k))
}

// writeCkpt atomically replaces k's space file with b — the coordinator
// mirroring a worker's uploaded checkpoint into the slot the local
// resume path and re-dispatch seeding both read. Plain rename atomicity
// without the full durability discipline: a checkpoint lost to power
// failure only costs re-enumeration. The slot enters the eviction
// budget under its key.
func (st *diskStore) writeCkpt(k cacheKey, b []byte) error {
	if err := writeBytes(st.path(k), b, false); err != nil {
		return fmt.Errorf("server: checkpoint write: %w", err)
	}
	st.mu.Lock()
	e := st.useLocked(k)
	st.total += int64(len(b)) - e.size
	e.size = int64(len(b))
	st.sweepLocked(k)
	st.setGauge()
	st.mu.Unlock()
	return nil
}

// keys lists the keys with a space file on disk, sealed or not.
func (st *diskStore) keys() ([]cacheKey, error) {
	des, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var out []cacheKey
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, spaceSuffix) {
			continue
		}
		k := cacheKey(name[:len(name)-len(spaceSuffix)])
		if keyPattern.MatchString(string(k)) {
			out = append(out, k)
		}
	}
	return out, nil
}
