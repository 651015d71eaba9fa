package search

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// How a space reaches disk and comes back is decided in this package,
// once each:
//
//   - one document writer: Result.encode streams the JSON document of a
//     boundary of the result (a snapshot) into the caller's writer, on
//     the caller's goroutine, one node at a time through a small pooled
//     buffer, and render puts it through a pooled compressor. A render
//     holds one node in memory, not a copy of the space. Save and
//     CanonicalHash render the whole result, the engine's checkpoint
//     writer the last level boundary, PartitionCheckpoint one snapshot
//     per shard, and LoadCanonical's proof streams its re-encode into
//     the comparison. fileFormat is only what Load decodes into;
//   - one form for a complete space at rest: its canonical bytes.
//     encode renders a boundary with no frontier, of a run nothing
//     aborted, with its wall-clock fields zeroed (snapshot.canonical), so
//     Save and the engine's final write put the same bytes down, and
//     the file's SHA-256 is the space's CanonicalHash (Result.SpaceHash):
//     nothing renders a space twice to store and to name it. Wall-clock
//     provenance belongs to the run — the Result, the server's answer
//     record and flight log — and to a resumable or aborted document,
//     which keeps its elapsed time for Resume;
//   - one file writer: WriteFile (temp file, optional fsync, rename)
//     puts every space file in place — engine checkpoints (explore
//     -save's file among them), the server's cache entries and
//     checkpoint mirrors, a worker's seed — and SyncDir makes the
//     rename durable where that matters;
//   - one owner of a checkpoint slot: Enumerate (enumerate.go) decides
//     what a file found at Options.CheckpointPath means and what then.
//
// The on-disk format is a gzip-compressed JSON document holding the
// unoptimized root function and the node table. Binary canonical keys
// are base64-coded. Saved spaces let the analysis tools run without
// re-enumerating (the paper's enumerations took hours for the largest
// functions; persisting them is what makes the Section 5 statistics a
// separate, fast step).
//
// Version history:
//
//	v1  node table + root + machine + stats (read-compatible)
//	v2  adds per-node quarantine records and an optional checkpoint
//	    section — the IDs of the live frontier — that makes a partially
//	    enumerated space resumable (search.Resume); Load rebuilds each
//	    frontier node's instance from the root and its sequence. Earlier
//	    writers also listed the instances ("bodies"); Load ignores them
//	v3  adds the equivalence-collapse summary (top-level "equiv") and
//	    per-node raw-instance counts ("equiv_raw") of spaces
//	    enumerated with Options.Equiv; its resume section also holds
//	    the class table: the class key of every node ("classes") and
//	    the spellings folded into a class ("folds")
//
// Writers emit v3 only for equivalence-collapsed spaces, keeping every
// other space byte-identical to the v2 writer's output; the loader
// reads v1-v3. v1 files simply have no quarantined nodes and no
// checkpoint section. Load is the trust boundary — it reads bytes this
// process did not write: it holds every node's key, and every folded
// spelling's, against the node that carries it (checkKey), the frontier
// list against the node table, and each frontier node's rebuilt
// instance against its key (rebuild), before Resume files or expands
// any of it, and FuzzLoad holds Load to "an error, or a space whose
// hash survives Save and Load; never a panic". LoadCanonical, the
// coordinator's check of a fleet upload, shares Load's decode-and-
// validate step, and FuzzLoadCanonical holds it to Load and then Save.
// A key is stored as it is written: one raw string per node (Node.key),
// never compressed in memory.

// fileFormat and fileNode are a space document as Load and
// LoadCanonical decode it. Nothing builds one to write: encode writes
// the bytes encoding/json would write for one, which the oracle in
// document_test.go holds it to.
type fileFormat struct {
	Version         int             `json:"version"`
	FuncName        string          `json:"func"`
	AttemptedPhases int             `json:"attempted_phases"`
	Aborted         bool            `json:"aborted,omitempty"`
	AbortReason     string          `json:"abort_reason,omitempty"`
	ElapsedNS       int64           `json:"elapsed_ns"`
	Stats           RunStats        `json:"stats"`
	Equiv           *EquivStats     `json:"equiv,omitempty"`
	Root            *rtl.Func       `json:"root"`
	Nodes           []fileNode      `json:"nodes"`
	Machine         *machine.Desc   `json:"machine"`
	Checkpoint      *fileCheckpoint `json:"checkpoint,omitempty"`
}

type fileNode struct {
	Level      int            `json:"level"`
	Seq        string         `json:"seq"`
	Key        string         `json:"key"` // base64
	FP         fingerprint.FP `json:"fp"`
	State      byte           `json:"state"`
	NumInstrs  int            `json:"num_instrs"`
	EquivRaw   int            `json:"equiv_raw,omitempty"`
	CFKey      string         `json:"cf_key"` // base64
	Edges      []Edge         `json:"edges,omitempty"`
	CheckErr   string         `json:"check_err,omitempty"`
	Quarantine string         `json:"quarantine,omitempty"`
}

// fileCheckpoint is the v2 resume section: the IDs of the unexpanded
// frontier nodes, in discovery order. Their instances are not stored:
// the root and each node's sequence determine them, and Load replays
// them (rebuild). A v3 one adds the class table: the class key of each
// node (empty for a quarantined one) and the folds (Checkpoint.classes,
// folds), keys base64-coded.
type fileCheckpoint struct {
	Frontier []int      `json:"frontier"`
	Classes  [][]byte   `json:"classes,omitempty"`
	Folds    []fileFold `json:"folds,omitempty"`
}

// fileFold is one fold of the resume section.
type fileFold struct {
	Key   []byte         `json:"key"`
	FP    fingerprint.FP `json:"fp"`
	Into  int            `json:"into"`
	Phase byte           `json:"phase"`
}

const (
	formatVersion      = 2
	formatVersionEquiv = 3
	minFormatVersion   = 1
)

func stateBits(st opt.State) byte {
	var b byte
	if st.RegAssigned {
		b |= 1
	}
	if st.KApplied {
		b |= 2
	}
	if st.SApplied {
		b |= 4
	}
	return b
}

func bitsState(b byte) opt.State {
	return opt.State{
		RegAssigned: b&1 != 0,
		KApplied:    b&2 != 0,
		SApplied:    b&4 != 0,
	}
}

// checkKey is the trust-boundary test of the key a node arrived with:
// the key of an instance must carry the node's gating flags and checksum
// to its fingerprint, whose count is the node's size; a quarantined
// node's is "Q" + Seq. Load applies it to every node it decodes, so no
// index ever files a key under a fingerprint it does not have.
func checkKey(n *Node, key []byte) error {
	if n.Quarantine != "" {
		if string(key) != "Q"+n.Seq {
			return fmt.Errorf("search: node %d (seq %q): a quarantined node's key must be \"Q\" + its sequence", n.ID, n.Seq)
		}
	} else if len(key) == 0 || key[0] != stateBits(n.State) || crc32.ChecksumIEEE(key[1:]) != n.FP.CRC || n.FP.Count != n.NumInstrs {
		return fmt.Errorf("search: node %d (seq %q): canonical key does not match its state and fingerprint", n.ID, n.Seq)
	}
	return nil
}

// whole is the result as it stands, as a boundary: every node, the
// resume frontier when the result still carries one (a loaded,
// unresumed checkpoint round-trips), and its abort bits.
func (r *Result) whole() snapshot {
	v := snapshot{numNodes: len(r.Nodes), attempted: r.AttemptedPhases, stats: r.Stats, elapsed: r.Elapsed,
		aborted: r.Aborted, abortReason: r.AbortReason}
	if cp := r.Checkpoint; cp != nil {
		v.frontier, v.classes, v.folds = cp.Frontier, cp.classes, cp.folds
	}
	return v
}

// gzipWriters recycles compressors: one is ~800 KB of tables, and
// allocating one per document was most of what a small request
// allocated, and what paced its collections. Reset leaves no state
// behind: a recycled compressor writes the bytes a new one would.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// compress writes what write produces into w through a pooled
// compressor. The output is a function of the bytes alone, however
// write splits them — deflate's output does not depend on it, and
// nothing here flushes — so a document streamed in chunks (render)
// and the same document written whole (provenCanonical's
// recompression) put down the same space file.
func compress(w io.Writer, write func(io.Writer) error) error {
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	defer func() {
		gz.Reset(nil) // do not pin w in the pool
		gzipWriters.Put(gz)
	}()
	if err := write(gz); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}

// render writes the space file of v to w: encode's document through a
// pooled compressor.
func (r *Result) render(w io.Writer, v snapshot) error {
	return compress(w, func(gz io.Writer) error { return r.encode(gz, v) })
}

// rendered counts the documents encode has written in this process.
var rendered atomic.Int64

// Rendered is how many space documents this process has rendered —
// encoded from a Result, whether to a file, a buffer, a hasher or a
// byte-for-byte comparison. A render allocates nothing in proportion
// to the space, so this count, not the heap, is how a caller holds a
// path to the renders it means to pay for.
func Rendered() int64 { return rendered.Load() }

// docChunk is how many bytes of a document encode gathers before it
// writes them on.
const docChunk = 32 << 10

// docWriter is a render's scratch, recycled: the pending output and
// the raw bytes of the key being base64-coded. Both grow as a render
// needs them, so a small document's render costs a small buffer even
// when the pool is empty.
type docWriter struct {
	w   io.Writer
	err error
	buf []byte
	key []byte
}

var docWriters = sync.Pool{New: func() any { return new(docWriter) }}

// flush writes the pending output on, unless a write already failed.
func (d *docWriter) flush() {
	if d.err == nil && len(d.buf) > 0 {
		_, d.err = d.w.Write(d.buf)
	}
	d.buf = d.buf[:0]
}

// next writes the pending output on once it passes docChunk.
func (d *docWriter) next() {
	if len(d.buf) >= docChunk {
		d.flush()
	}
}

// value appends v as encoding/json renders it.
func (d *docWriter) value(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		if d.err == nil {
			d.err = err
		}
		return
	}
	d.buf = append(d.buf, b...)
	d.next()
}

// encode writes v's JSON document to w, the one way a space becomes
// one: the first v.numNodes nodes, v's counters, and a resume section
// when v has a frontier. None means a complete space, which, unless
// aborted, is rendered canonical: a complete space at rest is its
// canonical bytes, whoever writes it. Frontier nodes serialize without
// outgoing edges — the state they had at the boundary, whatever a
// level killed since has appended. The collapse summary of a resumable
// equivalence-collapsed document is tallied from v's fold prefix, for
// the same reason; a complete space's is the result's own.
//
// The bytes are those encoding/json writes for a fileFormat holding the
// same, newline included. Each top-level value but the root and the
// node table is encoding/json's own; the root is its own encoding
// (rtl.Func.AppendJSON) and the node table is appended one node at a
// time (docWriter.node), so a render holds one node's bytes in memory,
// never a second copy of the space.
func (r *Result) encode(w io.Writer, v snapshot) error {
	rendered.Add(1)
	if len(v.frontier) == 0 && !v.aborted {
		v = v.canonical()
	}
	d := docWriters.Get().(*docWriter)
	d.w, d.err, d.buf = w, nil, d.buf[:0]
	defer func() {
		d.w = nil // do not pin w in the pool
		docWriters.Put(d)
	}()
	equiv, equivRaw := r.Equiv, []int(nil)
	var unexpanded map[int]bool
	if len(v.frontier) > 0 {
		unexpanded = make(map[int]bool, len(v.frontier))
		for _, n := range v.frontier {
			unexpanded[n.ID] = true
		}
		if r.opts.Equiv {
			equiv, equivRaw = tallyEquiv(r.Nodes[:v.numNodes], v.folds)
		}
	}
	version := formatVersion
	if equiv != nil {
		// Equivalence-collapsed spaces need v3; everything else stays v2
		// (and byte-identical to what the v2 writer produced).
		version = formatVersionEquiv
	}
	b := append(d.buf, `{"version":`...)
	b = strconv.AppendInt(b, int64(version), 10)
	b = rtl.AppendJSONString(append(b, `,"func":`...), r.FuncName)
	b = strconv.AppendInt(append(b, `,"attempted_phases":`...), int64(v.attempted), 10)
	if v.aborted {
		b = append(b, `,"aborted":true`...)
	}
	if v.abortReason != "" {
		b = rtl.AppendJSONString(append(b, `,"abort_reason":`...), v.abortReason)
	}
	b = strconv.AppendInt(append(b, `,"elapsed_ns":`...), int64(v.elapsed), 10)
	d.buf = append(b, `,"stats":`...)
	d.value(v.stats)
	if equiv != nil {
		d.buf = append(d.buf, `,"equiv":`...)
		d.value(equiv)
	}
	d.buf = r.root.AppendJSON(append(d.buf, `,"root":`...))
	d.next()
	d.buf = append(d.buf, `,"nodes":[`...)
	for i, n := range r.Nodes[:v.numNodes] {
		if d.err != nil {
			break
		}
		if i > 0 {
			d.buf = append(d.buf, ',')
		}
		raw := n.EquivRaw
		if equivRaw != nil {
			raw = equivRaw[n.ID]
		}
		d.node(n, !unexpanded[n.ID], raw)
		d.next()
	}
	d.buf = append(d.buf, `],"machine":`...)
	d.value(r.opts.Machine)
	if len(v.frontier) > 0 {
		r.encodeResume(d, v)
	}
	d.buf = append(d.buf, "}\n"...)
	d.flush()
	if d.err != nil {
		return fmt.Errorf("search: encoding space: %w", d.err)
	}
	return nil
}

// encodeResume appends v's resume section, a fileCheckpoint: the
// frontier's IDs and, on an equivalence-collapsed result,
// the class key of each of the first v.numNodes nodes (null for one
// that has none, a quarantined node) and the folds of v's prefix.
func (r *Result) encodeResume(d *docWriter, v snapshot) {
	d.buf = append(d.buf, `,"checkpoint":{"frontier":[`...)
	for i, n := range v.frontier {
		if i > 0 {
			d.buf = append(d.buf, ',')
		}
		d.buf = strconv.AppendInt(d.buf, int64(n.ID), 10)
	}
	d.buf = append(d.buf, ']')
	if r.opts.Equiv {
		classes := make([]string, v.numNodes)
		for key, id := range v.classes {
			if int(id) < v.numNodes {
				classes[id] = key
			}
		}
		d.buf = append(d.buf, `,"classes":[`...)
		for i, key := range classes {
			if i > 0 {
				d.buf = append(d.buf, ',')
			}
			if key == "" {
				d.buf = append(d.buf, "null"...)
			} else {
				d.base64(key)
			}
			d.next()
		}
		d.buf = append(d.buf, ']')
		if len(v.folds) > 0 {
			d.buf = append(d.buf, `,"folds":[`...)
			for i, f := range v.folds {
				if i > 0 {
					d.buf = append(d.buf, ',')
				}
				d.value(fileFold{[]byte(f.key), f.fp, int(f.into), f.phase})
			}
			d.buf = append(d.buf, ']')
		}
	}
	d.buf = append(d.buf, '}')
}

// node appends n as encoding/json renders the fileNode of it: edges
// says whether its outgoing edges are written, equivRaw is its
// equiv_raw.
func (d *docWriter) node(n *Node, edges bool, equivRaw int) {
	b := strconv.AppendInt(append(d.buf, `{"level":`...), int64(n.Level), 10)
	b = rtl.AppendJSONString(append(b, `,"seq":`...), n.Seq)
	d.buf = append(b, `,"key":`...)
	d.base64(n.key)
	b = strconv.AppendInt(append(d.buf, `,"fp":{"Count":`...), int64(n.FP.Count), 10)
	b = strconv.AppendUint(append(b, `,"ByteSum":`...), uint64(n.FP.ByteSum), 10)
	b = strconv.AppendUint(append(b, `,"CRC":`...), uint64(n.FP.CRC), 10)
	b = strconv.AppendUint(append(b, `},"state":`...), uint64(stateBits(n.State)), 10)
	b = strconv.AppendInt(append(b, `,"num_instrs":`...), int64(n.NumInstrs), 10)
	if equivRaw != 0 {
		b = strconv.AppendInt(append(b, `,"equiv_raw":`...), int64(equivRaw), 10)
	}
	d.buf = append(b, `,"cf_key":`...)
	d.base64(string(n.CFKey))
	b = d.buf
	if edges && len(n.Edges) > 0 {
		b = append(b, `,"edges":[`...)
		for i, e := range n.Edges {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(append(b, `{"Phase":`...), uint64(e.Phase), 10)
			b = strconv.AppendInt(append(b, `,"To":`...), int64(e.To), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if n.CheckErr != "" {
		b = rtl.AppendJSONString(append(b, `,"check_err":`...), n.CheckErr)
	}
	if n.Quarantine != "" {
		b = rtl.AppendJSONString(append(b, `,"quarantine":`...), n.Quarantine)
	}
	d.buf = append(b, '}')
}

// base64 appends the raw bytes s as the quoted standard base64 string
// encoding/json writes for a []byte, by way of the key scratch.
func (d *docWriter) base64(s string) {
	d.key = append(d.key[:0], s...)
	d.buf = append(base64.StdEncoding.AppendEncode(append(d.buf, '"'), d.key), '"')
}

// Save writes the enumerated space to w: a complete, un-aborted space
// as its canonical bytes, whose SHA-256 is its CanonicalHash; a
// resumable or aborted one with its wall-clock fields.
func (r *Result) Save(w io.Writer) error {
	return r.render(w, r.whole())
}

// CanonicalHash returns the hex SHA-256 of the space serialized with
// every wall-clock field zeroed (snapshot.canonical), streamed into the
// hasher — the space identity spacedot -hash prints and the serving
// layer advertises. Two enumerations of the same function hash equal
// exactly when they discovered the same space — the equality the
// kill/resume determinism guarantee is stated in. The gzip layer is
// deterministic (no mod time). For a complete, un-aborted space it is
// the SHA-256 of Save's bytes.
func (r *Result) CanonicalHash() (string, error) {
	h := sha256.New()
	if err := r.render(h, r.whole().canonical()); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// WriteFile replaces path with what write produces, by way of
// path+".tmp" and a rename, so that readers and restarts see the
// previous file or the new one, never a torn one: a crash, a failing
// write or a full disk cannot clobber what was there. fsync also syncs
// the data before the rename; copies that only save re-enumeration (a
// coordinator's mirror of an upload, a worker's seed) go without. A
// caller that needs the rename itself to survive power loss follows up
// with SyncDir.
func WriteFile(path string, write func(io.Writer) error, fsync bool) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && fsync {
		err = f.Sync()
	}
	if err == nil {
		err = f.Close()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
	}
	return err
}

// SyncDir fsyncs a directory so a rename into it survives power loss;
// without it the directory entry, and with it the file, can be lost
// even though the data blocks were fsynced. The fault plan can inject a
// failure here (dirsyncfail=<n>). The engine's checkpoint writer and the
// serving layer's disk store (publishing a cache entry) call it after
// their renames.
func SyncDir(dir string, faults *faultinject.Plan) error {
	if faults.DirSyncFault() {
		return faultinject.ErrDirSync
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Load reads a space written by Save (or a checkpoint written during
// an interrupted run — Result.Checkpoint is then set and Resume
// continues it). The loaded result supports the same operations as a
// fresh one, including Instance replay. Corrupt inputs fail with
// errors naming the defect: a truncated file, an unsupported format
// version, a root that fails rtl.Validate, or malformed node encodings;
// and, in a checkpoint, a frontier entry that repeats or precedes the
// one before it or names a quarantined node, an expanded one or one
// off the table's deepest level, and a frontier node whose sequence
// holds an unknown phase or a dormant step, panics in replay, or
// replays to an instance other than the one its key names.
func Load(rd io.Reader) (*Result, error) {
	gz, err := gzip.NewReader(rd)
	if err != nil {
		return nil, fmt.Errorf("search: reading space: not a gzip stream: %w", err)
	}
	var ff fileFormat
	if err := json.NewDecoder(gz).Decode(&ff); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("search: space file is truncated: %w", err)
		}
		return nil, fmt.Errorf("search: decoding space: %w", err)
	}
	// The JSON decoder stops at the end of the document, which can sit
	// entirely before a damaged gzip trailer: a file whose last block
	// was truncated or whose CRC was clobbered would otherwise load
	// silently. Drain to EOF so the trailer checksum is verified, and
	// surface the close error instead of discarding it.
	if _, err := io.Copy(io.Discard, gz); err != nil {
		return nil, fmt.Errorf("search: space file has a corrupt gzip trailer: %w", err)
	}
	if err := gz.Close(); err != nil {
		return nil, fmt.Errorf("search: space file has a corrupt gzip trailer: %w", err)
	}
	return ff.result()
}

// result is the decode-and-validate step Load and LoadCanonical share:
// the space a decoded document holds, or the defect that bars it — an
// unsupported version, no root or nodes, a root that fails
// rtl.Validate, a node whose key does not belong to it (checkKey), an
// edge outside the table, an inconsistent checkpoint section, a
// frontier that does not rebuild.
func (ff *fileFormat) result() (*Result, error) {
	if ff.Version < minFormatVersion || ff.Version > formatVersionEquiv {
		return nil, fmt.Errorf("search: space format version %d unsupported (this build reads v%d-v%d)",
			ff.Version, minFormatVersion, formatVersionEquiv)
	}
	if ff.Root == nil || len(ff.Nodes) == 0 {
		return nil, fmt.Errorf("search: space file is empty")
	}
	// Everything that replays the space walks the root, and its keys are
	// only as sound as its spelling: a root must be a valid function.
	if err := rtl.Validate(ff.Root); err != nil {
		return nil, fmt.Errorf("search: space root is not a valid function: %w", err)
	}
	res := &Result{
		FuncName:        ff.FuncName,
		AttemptedPhases: ff.AttemptedPhases,
		Aborted:         ff.Aborted,
		AbortReason:     ff.AbortReason,
		Elapsed:         time.Duration(ff.ElapsedNS),
		Stats:           ff.Stats,
		Equiv:           ff.Equiv,
		root:            ff.Root,
	}
	res.opts.fill()
	if ff.Equiv != nil {
		res.opts.Equiv = true
	}
	if ff.Machine != nil {
		res.opts.Machine = ff.Machine
	}
	enc, deepest := base64.StdEncoding, 0
	for i, fn := range ff.Nodes {
		key, err := enc.DecodeString(fn.Key)
		if err != nil {
			return nil, fmt.Errorf("search: node %d has a malformed base64 key: %w", i, err)
		}
		cf, err := enc.DecodeString(fn.CFKey)
		if err != nil {
			return nil, fmt.Errorf("search: node %d has a malformed base64 cf key: %w", i, err)
		}
		for _, e := range fn.Edges {
			if e.To < 0 || e.To >= len(ff.Nodes) {
				return nil, fmt.Errorf("search: node %d has an edge to %d, outside the %d-node table",
					i, e.To, len(ff.Nodes))
			}
		}
		n := &Node{
			ID:         i,
			Level:      fn.Level,
			Seq:        fn.Seq,
			FP:         fn.FP,
			State:      bitsState(fn.State),
			NumInstrs:  fn.NumInstrs,
			EquivRaw:   fn.EquivRaw,
			CFKey:      fingerprint.Key(cf),
			Edges:      fn.Edges,
			CheckErr:   fn.CheckErr,
			Quarantine: fn.Quarantine,
			key:        string(key),
		}
		if err := checkKey(n, key); err != nil {
			return nil, err
		}
		res.Nodes = append(res.Nodes, n)
		deepest = max(deepest, n.Level)
	}
	if fc := ff.Checkpoint; fc != nil {
		cp := &Checkpoint{}
		var err error
		if ff.Equiv != nil {
			if cp.classes, cp.folds, err = loadClasses(res.Nodes, fc); err != nil {
				return nil, err
			}
		} else if fc.Classes != nil || fc.Folds != nil {
			return nil, fmt.Errorf("search: a checkpoint of the default tier carries a class table")
		}
		// A frontier is the unexpanded nodes of the last level, in
		// discovery order. A shard's is a run of them, so a frontier that
		// lacks some of its level's nodes is not refused.
		for i, id := range fc.Frontier {
			switch {
			case id < 0 || id >= len(res.Nodes):
				return nil, fmt.Errorf("search: checkpoint frontier entry %d is node %d, outside the %d-node table",
					i, id, len(res.Nodes))
			case i > 0 && id <= fc.Frontier[i-1]:
				return nil, fmt.Errorf("search: checkpoint frontier entry %d (node %d) repeats or precedes node %d", i, id, fc.Frontier[i-1])
			case res.Nodes[id].Quarantine != "" || len(res.Nodes[id].Edges) > 0 || res.Nodes[id].Level != deepest:
				return nil, fmt.Errorf("search: checkpoint frontier entry %d (node %d) is quarantined, expanded or off level %d", i, id, deepest)
			}
			cp.Frontier = append(cp.Frontier, res.Nodes[id])
		}
		if err := rebuild(res.root, res.opts.Machine, cp.Frontier); err != nil {
			return nil, err
		}
		res.Checkpoint = cp
	}
	return res, nil
}

// rebuild gives each frontier node its instance, replayed from the root
// along its sequence with the prefixes shared, as the paper re-derives
// an instance from its active sequence (§4.3, Figure 6(b)): the nodes in
// sequence order, a stack holding the instance of each prefix of the
// current sequence, one clone per distinct prefix. A node whose
// sequence repeats another's, holds an unknown phase or a dormant step,
// or panics, or whose replay's gating flags and canonical encoding are
// not its key, is refused, naming the node.
func rebuild(root *rtl.Func, d *machine.Desc, frontier []*Node) (err error) {
	// fns[i] and sts[i] are the instance of the current sequence's
	// prefix of length i and its gating state. The root is cloned: a
	// frontier node owns its instance, which the engine recycles once
	// the node is expanded.
	fns, sts := []*rtl.Func{root.Clone()}, []opt.State{{}}
	var n, prev *Node
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("search: checkpoint frontier node %d (seq %q) does not replay: %v", n.ID, n.Seq, r)
		}
	}()
	var key []byte
	order := slices.Clone(frontier)
	slices.SortFunc(order, func(a, b *Node) int { return strings.Compare(a.Seq, b.Seq) })
	for _, n = range order {
		if prev != nil && prev.Seq == n.Seq {
			return fmt.Errorf("search: checkpoint frontier node %d repeats node %d's sequence %q", n.ID, prev.ID, n.Seq)
		}
		shared := 0
		for prev != nil && shared < min(len(prev.Seq), len(n.Seq)) && prev.Seq[shared] == n.Seq[shared] {
			shared++
		}
		fns, sts = fns[:shared+1], sts[:shared+1]
		for i := shared; i < len(n.Seq); i++ {
			f, st := fns[i].Clone(), sts[i]
			replayStep(f, &st, n.Seq, i, d)
			fns, sts = append(fns, f), append(sts, st)
		}
		f, st := fns[len(n.Seq)], sts[len(n.Seq)]
		if key = fingerprint.EncodeTo(append(key[:0], stateBits(st)), f); string(key) != n.key {
			return fmt.Errorf("search: checkpoint frontier node %d (seq %q) replays to an instance other than the one its key names", n.ID, n.Seq)
		}
		n.fn, prev = f, n
	}
	return nil
}

// loadClasses holds the class table of an equivalence-collapsed
// checkpoint to the node table, as Resume will file it: one class key
// per node, none on a quarantined one, each under its node's gating
// flags and held by no other node; each fold into a class node, under a
// key that checksums to its own fingerprint and carries its class's
// flags, and that no node or other fold holds.
func loadClasses(nodes []*Node, fc *fileCheckpoint) (map[string]int32, []fold, error) {
	if len(fc.Classes) != len(nodes) {
		return nil, nil, fmt.Errorf("search: equivalence checkpoint lists %d class keys for %d nodes", len(fc.Classes), len(nodes))
	}
	classes := make(map[string]int32, len(nodes))
	keys := make(map[string]bool, len(nodes)+len(fc.Folds))
	for i, n := range nodes {
		keys[n.key] = true
		key := fc.Classes[i]
		_, dup := classes[string(key)]
		switch {
		case n.Quarantine != "" && len(key) > 0:
			return nil, nil, fmt.Errorf("search: quarantined node %d has a class key", i)
		case n.Quarantine != "":
		case len(key) == 0 || key[0] != stateBits(n.State):
			return nil, nil, fmt.Errorf("search: node %d: class key does not carry its state flags", i)
		case dup:
			return nil, nil, fmt.Errorf("search: node %d repeats another node's class key", i)
		default:
			classes[string(key)] = int32(i)
		}
	}
	folds := make([]fold, len(fc.Folds))
	for i, f := range fc.Folds {
		if f.Into < 0 || f.Into >= len(nodes) || nodes[f.Into].Quarantine != "" {
			return nil, nil, fmt.Errorf("search: fold %d folds into node %d, which is no class of the %d-node table", i, f.Into, len(nodes))
		}
		into := nodes[f.Into]
		if err := checkKey(&Node{ID: into.ID, Seq: into.Seq, State: into.State, FP: f.FP, NumInstrs: f.FP.Count}, f.Key); err != nil {
			return nil, nil, fmt.Errorf("search: fold %d: %w", i, err)
		}
		if keys[string(f.Key)] {
			return nil, nil, fmt.Errorf("search: fold %d repeats a key the space already holds", i)
		}
		keys[string(f.Key)] = true
		folds[i] = fold{string(f.Key), f.FP, int32(f.Into), f.Phase}
	}
	return classes, folds, nil
}

// LoadCanonical is Load of the space file b that also returns what Save
// writes of the space: for a complete one, its canonical bytes. A whole
// fleet upload is checked with it. When b already is those bytes — a
// worker uploads its engine's final write — it proves so in one pass
// instead of rendering the space again: it inflates b once and, while
// the calling goroutine decodes and validates the document and
// re-encodes the space against it, a second goroutine recompresses it
// against b. If both match byte for byte, b is what Save would write,
// and b is returned. Anything else — a document of another build, another
// compression level, bytes after the document, any defect — takes Load
// and then Save, so the space, the bytes and every error are theirs: a
// nil result means Load failed, a result with an error that Save did.
func LoadCanonical(b []byte) (*Result, []byte, error) {
	if res := provenCanonical(b); res != nil {
		return res, b, nil
	}
	res, err := Load(bytes.NewReader(b))
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := res.Save(&buf); err != nil {
		return res, nil, err
	}
	return res, buf.Bytes(), nil
}

// provenCanonical is the space b holds when b is exactly what Save
// writes of it, else nil. The recompression runs beside the decode, so
// the proof costs about the longer of the two, not their sum; it waits
// for its goroutine in every case, and stops it early when the decode
// fails.
func provenCanonical(b []byte) *Result {
	doc, err := inflate(b)
	if err != nil {
		return nil
	}
	var stop atomic.Bool
	recompressed := make(chan bool, 1)
	go func() {
		w := &matchWriter{want: b, stop: &stop}
		err := compress(w, func(gz io.Writer) error {
			_, err := gz.Write(doc)
			return err
		})
		recompressed <- err == nil && w.done()
	}()
	res := decodeMatching(doc)
	if res == nil {
		stop.Store(true)
	}
	if !<-recompressed {
		return nil
	}
	return res
}

// decodeMatching is the space the JSON document doc holds when
// re-encoding it gives doc back byte for byte, else nil.
func decodeMatching(doc []byte) *Result {
	var ff fileFormat
	if json.Unmarshal(doc, &ff) != nil {
		return nil
	}
	res, err := ff.result()
	if err != nil {
		return nil
	}
	w := &matchWriter{want: doc}
	if res.encode(w, res.whole()) != nil || !w.done() {
		return nil
	}
	return res
}

// maxInflation caps the buffer inflate sizes from a gzip trailer at
// this many times the stream's length, so that a trailer cannot make it
// allocate what the stream does not hold; the canonical bytes of real
// spaces inflate 7 to 19 times.
const maxInflation = 32

// inflate is the gzip stream b decompressed, read into one buffer sized
// from the trailer's ISIZE (the length mod 2^32 of the last member),
// which grows only if the stream is longer than that.
func inflate(b []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	size := 0
	if len(b) >= 4 {
		size = int(binary.LittleEndian.Uint32(b[len(b)-4:]))
	}
	// One byte over, so that the read that finds the end has room.
	doc := make([]byte, 0, min(size, maxInflation*len(b))+1)
	for {
		if len(doc) == cap(doc) {
			doc = append(doc, 0)[:len(doc)]
		}
		n, err := zr.Read(doc[len(doc):cap(doc)])
		doc = doc[:len(doc)+n]
		if err == io.EOF {
			return doc, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// errMismatch stops a write whose bytes are not the ones expected.
var errMismatch = errors.New("search: bytes differ")

// matchWriter holds what is written to it to want, in order: the first
// write that differs from want, runs past its end, or comes after stop
// is set fails, which ends the encoder or compressor feeding it.
type matchWriter struct {
	want []byte
	off  int
	stop *atomic.Bool
}

func (w *matchWriter) Write(p []byte) (int, error) {
	if (w.stop != nil && w.stop.Load()) || len(p) > len(w.want)-w.off || !bytes.Equal(p, w.want[w.off:w.off+len(p)]) {
		return 0, errMismatch
	}
	w.off += len(p)
	return len(p), nil
}

// done reports whether all of want was written.
func (w *matchWriter) done() bool { return w.off == len(w.want) }

// LoadFile reads a space file: a checkpoint slot's, a cache entry, or
// anything else Save wrote.
func LoadFile(path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
