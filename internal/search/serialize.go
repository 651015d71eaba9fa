package search

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
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
//   - one document builder: Result.document renders a fileFormat from a
//     boundary of the result (a snapshot). Save and CanonicalHash render
//     the whole result, the engine's checkpoint writer the last level
//     boundary, PartitionCheckpoint the whole paused result with its
//     resume section cut k ways;
//   - one form for a complete space at rest: its canonical bytes.
//     document renders a boundary with no frontier, of a run nothing
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
//	    section — the live frontier with its retained instances — that
//	    makes a partially enumerated space resumable (search.Resume)
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
// spelling's, against the node that carries it (checkKey) before Resume
// files it anywhere, and FuzzLoad holds Load to "an error, or a space
// whose hash survives Save and Load; never a panic". A key is stored as
// it is written: one raw string per node (Node.key), never compressed
// in memory.

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
// frontier nodes plus their function instances (the same JSON encoding
// the root already uses), in discovery order. A v3 one adds the class
// table: the class key of each node (empty for a quarantined one) and
// the folds (Checkpoint.classes, folds), keys base64-coded.
type fileCheckpoint struct {
	Frontier []int       `json:"frontier"`
	Bodies   []*rtl.Func `json:"bodies"`
	Classes  [][]byte    `json:"classes,omitempty"`
	Folds    []fileFold  `json:"folds,omitempty"`
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

// document renders v, the one way a space becomes a fileFormat: the
// first v.numNodes nodes, v's counters, and a resume section when v
// has a frontier. None means a complete space, which, unless aborted,
// is rendered canonical: a complete space at rest is its canonical
// bytes, whoever writes it. Frontier nodes serialize without outgoing
// edges — the state they had at the boundary, whatever a level killed
// since has appended. The collapse
// summary of a resumable equivalence-collapsed document is tallied from
// v's fold prefix, for the same reason; a complete space's is the
// result's own.
func (r *Result) document(v snapshot) *fileFormat {
	if len(v.frontier) == 0 && !v.aborted {
		v = v.canonical()
	}
	ff := &fileFormat{
		Version:         formatVersion,
		FuncName:        r.FuncName,
		AttemptedPhases: v.attempted,
		Aborted:         v.aborted,
		AbortReason:     v.abortReason,
		ElapsedNS:       int64(v.elapsed),
		Stats:           v.stats,
		Equiv:           r.Equiv,
		Root:            r.root,
		Machine:         r.opts.Machine,
		Nodes:           make([]fileNode, 0, v.numNodes),
	}
	unexpanded := make(map[int]bool, len(v.frontier))
	var equivRaw []int
	if len(v.frontier) > 0 {
		ff.Checkpoint = &fileCheckpoint{}
		if r.opts.Equiv {
			ff.Equiv, equivRaw = tallyEquiv(r.Nodes[:v.numNodes], v.folds)
			ff.Checkpoint.Classes = make([][]byte, v.numNodes)
			for key, id := range v.classes {
				if int(id) < v.numNodes {
					ff.Checkpoint.Classes[id] = []byte(key)
				}
			}
			for _, f := range v.folds {
				ff.Checkpoint.Folds = append(ff.Checkpoint.Folds, fileFold{[]byte(f.key), f.fp, int(f.into), f.phase})
			}
		}
	}
	if ff.Equiv != nil {
		// Equivalence-collapsed spaces need v3; everything else stays v2
		// (and byte-identical to what the v2 writer produced).
		ff.Version = formatVersionEquiv
	}
	for _, n := range v.frontier {
		unexpanded[n.ID] = true
		ff.Checkpoint.Frontier = append(ff.Checkpoint.Frontier, n.ID)
		ff.Checkpoint.Bodies = append(ff.Checkpoint.Bodies, n.fn)
	}
	enc := base64.StdEncoding
	for _, n := range r.Nodes[:v.numNodes] {
		fn := fileNode{
			Level:      n.Level,
			Seq:        n.Seq,
			Key:        enc.EncodeToString([]byte(n.key)),
			FP:         n.FP,
			State:      stateBits(n.State),
			NumInstrs:  n.NumInstrs,
			EquivRaw:   n.EquivRaw,
			CFKey:      enc.EncodeToString([]byte(n.CFKey)),
			CheckErr:   n.CheckErr,
			Quarantine: n.Quarantine,
		}
		if !unexpanded[n.ID] {
			fn.Edges = n.Edges
		}
		if equivRaw != nil {
			fn.EquivRaw = equivRaw[n.ID]
		}
		ff.Nodes = append(ff.Nodes, fn)
	}
	return ff
}

// gzipWriters recycles compressors: one is ~800 KB of tables, and
// allocating one per document was most of what a small request
// allocated, and what paced its collections. Reset leaves no state
// behind: a recycled compressor writes the bytes a new one would.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

func writeFormat(w io.Writer, ff *fileFormat) error {
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	defer func() {
		gz.Reset(nil) // do not pin w in the pool
		gzipWriters.Put(gz)
	}()
	if err := json.NewEncoder(gz).Encode(ff); err != nil {
		gz.Close()
		return fmt.Errorf("search: encoding space: %w", err)
	}
	return gz.Close()
}

// Save writes the enumerated space to w: a complete, un-aborted space
// as its canonical bytes, whose SHA-256 is its CanonicalHash; a
// resumable or aborted one with its wall-clock fields.
func (r *Result) Save(w io.Writer) error {
	return writeFormat(w, r.document(r.whole()))
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
	if err := writeFormat(h, r.document(r.whole().canonical())); err != nil {
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
// version, a root that fails rtl.Validate, or malformed node encodings.
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
	enc := base64.StdEncoding
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
	}
	if fc := ff.Checkpoint; fc != nil {
		if len(fc.Frontier) != len(fc.Bodies) {
			return nil, fmt.Errorf("search: checkpoint lists %d frontier nodes but %d bodies",
				len(fc.Frontier), len(fc.Bodies))
		}
		cp := &Checkpoint{}
		for i, id := range fc.Frontier {
			if id < 0 || id >= len(res.Nodes) {
				return nil, fmt.Errorf("search: checkpoint frontier entry %d is node %d, outside the %d-node table",
					i, id, len(res.Nodes))
			}
			if fc.Bodies[i] == nil {
				return nil, fmt.Errorf("search: checkpoint frontier entry %d (node %d) has no body", i, id)
			}
			n := res.Nodes[id]
			n.fn = fc.Bodies[i]
			cp.Frontier = append(cp.Frontier, n)
		}
		if ff.Equiv != nil {
			if cp.classes, cp.folds, err = loadClasses(res.Nodes, fc); err != nil {
				return nil, err
			}
		} else if fc.Classes != nil || fc.Folds != nil {
			return nil, fmt.Errorf("search: a checkpoint of the default tier carries a class table")
		}
		res.Checkpoint = cp
	}
	return res, nil
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
