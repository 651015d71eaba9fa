package search

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/faultinject"
	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// The on-disk format: a gzip-compressed JSON document holding the
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
//	    enumerated with Options.Equiv
//
// Writers emit v3 only for equivalence-collapsed spaces, keeping every
// other space byte-identical to the v2 writer's output; the loader
// reads v1-v3. v1 files simply have no quarantined nodes and no
// checkpoint section.

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
// the root already uses), in discovery order.
type fileCheckpoint struct {
	Frontier      []int       `json:"frontier"`
	Bodies        []*rtl.Func `json:"bodies"`
	SavedAtUnixNS int64       `json:"saved_at_unix_ns,omitempty"`
}

const (
	formatVersion      = 2
	formatVersionEquiv = 3
	minFormatVersion   = 1
)

// formatVersionOf returns the version this result serializes as:
// equivalence-collapsed spaces need v3, everything else stays v2 (and
// byte-identical to what the v2 writer produced).
func (r *Result) formatVersionOf() int {
	if r.Equiv != nil {
		return formatVersionEquiv
	}
	return formatVersion
}

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

// encodeNodes renders the first numNodes nodes; nodes in stripEdges
// (the live frontier of a checkpoint) serialize without outgoing
// edges, the state they had at the level boundary being persisted.
// Full canonical keys come from the result's keyStore (decompressed
// blob by blob for retired levels).
func (r *Result) encodeNodes(numNodes int, stripEdges map[int]bool) []fileNode {
	enc := base64.StdEncoding
	out := make([]fileNode, 0, numNodes)
	for _, n := range r.Nodes[:numNodes] {
		edges := n.Edges
		if stripEdges[n.ID] {
			edges = nil
		}
		out = append(out, fileNode{
			Level:      n.Level,
			Seq:        n.Seq,
			Key:        enc.EncodeToString([]byte(r.keys.get(n.ID))),
			FP:         n.FP,
			State:      stateBits(n.State),
			NumInstrs:  n.NumInstrs,
			EquivRaw:   n.EquivRaw,
			CFKey:      enc.EncodeToString([]byte(n.CFKey)),
			Edges:      edges,
			CheckErr:   n.CheckErr,
			Quarantine: n.Quarantine,
		})
	}
	return out
}

// fileFormatFull renders the result as-is, including the resume
// section when the result still carries a checkpoint (a loaded,
// unresumed space round-trips).
func (r *Result) fileFormatFull(canonical bool) *fileFormat {
	ff := &fileFormat{
		Version:         r.formatVersionOf(),
		FuncName:        r.FuncName,
		AttemptedPhases: r.AttemptedPhases,
		Aborted:         r.Aborted,
		AbortReason:     r.AbortReason,
		ElapsedNS:       int64(r.Elapsed),
		Stats:           r.Stats,
		Equiv:           r.Equiv,
		Root:            r.root,
		Machine:         r.opts.Machine,
		Nodes:           r.encodeNodes(len(r.Nodes), nil),
	}
	if cp := r.Checkpoint; cp != nil {
		fc := &fileCheckpoint{SavedAtUnixNS: cp.SavedAt.UnixNano()}
		for _, n := range cp.Frontier {
			fc.Frontier = append(fc.Frontier, n.ID)
			fc.Bodies = append(fc.Bodies, n.fn)
		}
		ff.Checkpoint = fc
	}
	if canonical {
		ff.ElapsedNS = 0
		ff.Stats.StateKeyNS = 0
		ff.Stats.ExpandNS = 0
		if ff.Checkpoint != nil {
			ff.Checkpoint.SavedAtUnixNS = 0
		}
	}
	return ff
}

// fileFormatAt renders the level-boundary snapshot the checkpoint
// writer persists: only the nodes that existed at the boundary, the
// frontier without the partial edges a killed level may have added,
// and the boundary's counters. Aborted is left false — the snapshot is
// a healthy, resumable state, whatever happened afterwards.
func (r *Result) fileFormatAt(snap *snapshot, savedAt time.Time) *fileFormat {
	strip := make(map[int]bool, len(snap.frontier))
	fc := &fileCheckpoint{SavedAtUnixNS: savedAt.UnixNano()}
	for _, n := range snap.frontier {
		strip[n.ID] = true
		fc.Frontier = append(fc.Frontier, n.ID)
		fc.Bodies = append(fc.Bodies, n.fn)
	}
	if len(fc.Frontier) == 0 {
		// Nothing left to expand: the snapshot is the complete space.
		fc = nil
	}
	return &fileFormat{
		Version:         r.formatVersionOf(),
		FuncName:        r.FuncName,
		AttemptedPhases: snap.attempted,
		ElapsedNS:       int64(snap.elapsed),
		Stats:           snap.stats,
		Equiv:           r.Equiv,
		Root:            r.root,
		Machine:         r.opts.Machine,
		Nodes:           r.encodeNodes(snap.numNodes, strip),
		Checkpoint:      fc,
	}
}

func writeFormat(w io.Writer, ff *fileFormat) error {
	gz := gzip.NewWriter(w)
	if err := json.NewEncoder(gz).Encode(ff); err != nil {
		gz.Close()
		return fmt.Errorf("search: encoding space: %w", err)
	}
	return gz.Close()
}

// Save writes the enumerated space to w.
func (r *Result) Save(w io.Writer) error {
	return writeFormat(w, r.fileFormatFull(false))
}

// SaveFile writes the space to a file.
func (r *Result) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// CanonicalBytes serializes the space with every wall-clock field
// (Elapsed, the Stats timing totals, checkpoint timestamps) zeroed.
// Two enumerations of the same function are byte-identical under this
// encoding exactly when they discovered the same space — the equality
// the kill/resume determinism guarantee is stated in. The gzip layer
// is deterministic (no mod time).
func (r *Result) CanonicalBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := writeFormat(&buf, r.fileFormatFull(true)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// CanonicalHash returns the hex SHA-256 of CanonicalBytes — the space
// identity spacedot -hash prints and the serving layer advertises. Two
// spaces hash equal exactly when they enumerate the same DAG.
func (r *Result) CanonicalHash() (string, error) {
	b, err := r.CanonicalBytes()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// writeCheckpointFile atomically persists a level-boundary snapshot:
// the document is written to path+".tmp" and renamed over path only
// after a successful write and sync, so a crash or a full disk
// (simulated by the fault plan) never clobbers the previous
// checkpoint.
func writeCheckpointFile(path string, r *Result, snap *snapshot, faults *faultinject.Plan) (err error) {
	ff := r.fileFormatAt(snap, time.Now())
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("search: checkpoint: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	var w io.Writer = f
	if faults != nil {
		w = faults.WrapCheckpoint(w)
	}
	if err = writeFormat(w, ff); err != nil {
		return fmt.Errorf("search: checkpoint: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("search: checkpoint: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("search: checkpoint: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("search: checkpoint: %w", err)
	}
	// The rename is only durable once the containing directory is
	// synced; without it a power loss can lose the directory entry and
	// with it the checkpoint, even though the data blocks were fsynced.
	if err = SyncDir(filepath.Dir(path), faults); err != nil {
		return fmt.Errorf("search: checkpoint: syncing directory: %w", err)
	}
	return nil
}

// SyncDir fsyncs a directory so a rename into it survives power loss.
// The fault plan can inject a failure here (dirsyncfail=<n>); the
// checkpoint writer records it in Result.CheckpointErr like any other
// write failure, and the serving layer's disk store uses the same call.
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
// version, or malformed node encodings.
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
	res := &Result{
		FuncName:        ff.FuncName,
		AttemptedPhases: ff.AttemptedPhases,
		Aborted:         ff.Aborted,
		AbortReason:     ff.AbortReason,
		Elapsed:         time.Duration(ff.ElapsedNS),
		Stats:           ff.Stats,
		Equiv:           ff.Equiv,
		root:            ff.Root,
		keys:            newKeyStore(),
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
		res.keys.put(i, string(key))
		res.Nodes = append(res.Nodes, &Node{
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
		})
	}
	res.keys.retireByLevel(res.Nodes)
	if fc := ff.Checkpoint; fc != nil {
		if len(fc.Frontier) != len(fc.Bodies) {
			return nil, fmt.Errorf("search: checkpoint lists %d frontier nodes but %d bodies",
				len(fc.Frontier), len(fc.Bodies))
		}
		cp := &Checkpoint{SavedAt: time.Unix(0, fc.SavedAtUnixNS)}
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
		res.Checkpoint = cp
	}
	return res, nil
}

// LoadFile reads a space file written by SaveFile.
func LoadFile(path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
