package search

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fingerprint"
	"repro/internal/rtl"
)

// document is the byte oracle of Result.encode: the fileFormat a space
// document decodes into, built from v as the writer before the
// streaming one built it, so that encoding/json's rendering of it is
// the bytes encode must write.
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
		ff.Version = formatVersionEquiv
	}
	for _, n := range v.frontier {
		unexpanded[n.ID] = true
		ff.Checkpoint.Frontier = append(ff.Checkpoint.Frontier, n.ID)
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

// sameAsOracle reports where encode's document of v departs from
// encoding/json's rendering of document(v), or nil.
func sameAsOracle(r *Result, v snapshot) error {
	var want, got bytes.Buffer
	if err := json.NewEncoder(&want).Encode(r.document(v)); err != nil {
		return fmt.Errorf("the oracle does not encode: %v", err)
	}
	if err := r.encode(&got, v); err != nil {
		return fmt.Errorf("encode: %v", err)
	}
	if bytes.Equal(got.Bytes(), want.Bytes()) {
		return nil
	}
	g, w := got.Bytes(), want.Bytes()
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return fmt.Errorf("encode writes %d bytes, encoding/json %d; first difference at byte %d: %q against %q",
		len(g), len(w), i, excerpt(g, i), excerpt(w, i))
}

func excerpt(b []byte, i int) []byte { return b[max(0, i-40):min(len(b), i+40)] }

// loadedCheckpoint is the resumable document a run capped at maxNodes
// leaves at its checkpoint path, loaded: a result with a frontier, and
// under Equiv a class table and folds.
func loadedCheckpoint(t testing.TB, f *rtl.Func, opts Options) *Result {
	t.Helper()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "capped.space.gz")
	Run(f, opts)
	b, err := os.ReadFile(opts.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Load(bytes.NewReader(b))
	if err != nil || r.Checkpoint == nil {
		t.Fatalf("the capped run left no resumable checkpoint (%v)", err)
	}
	if got := gunzipped(t, b); !bytes.Equal(got, renderedJSON(t, r, r.whole())) {
		t.Fatal("the checkpoint file is not what encode writes of its loaded space")
	}
	return r
}

func gunzipped(t testing.TB, b []byte) []byte {
	t.Helper()
	doc, err := inflate(b)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func renderedJSON(t testing.TB, r *Result, v snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.encode(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// boundary is r cut back to the end of its level: the nodes at or
// above it, the level's nodes as the frontier. Their edges, which the
// complete space has, are what a mid-level checkpoint must leave out.
func boundary(r *Result, level int) snapshot {
	v := r.whole()
	v.numNodes = 0
	for _, n := range r.Nodes {
		if n.Level > level {
			break
		}
		v.numNodes++
		if n.Level == level {
			v.frontier = append(v.frontier, n)
		}
	}
	return v
}

// TestEncodeIsEncodingJSON holds the streaming writer to encoding/json,
// byte for byte, over small corpus functions in both tiers: complete
// spaces, resumable ones (MaxNodes-capped checkpoints, loaded, and a
// level boundary of a complete space), aborted ones, spaces with
// quarantined nodes and spaces whose instances fail Check.
func TestEncodeIsEncodingJSON(t *testing.T) {
	type space struct {
		name string
		r    *Result
		v    snapshot
	}
	var spaces []space
	for _, c := range []struct{ bench, fn string }{
		{"sha", "rotl"},
		{"stringsearch", "tolower_c"},
		{"bitcount", "bit_count"},
		{"dijkstra", "enqueue"},
	} {
		f := corpusFunc(t, c.bench, c.fn)
		for _, equiv := range []bool{false, true} {
			name := fmt.Sprintf("%s/equiv=%v", c.fn, equiv)
			complete := Run(f, Options{Equiv: equiv})
			limit := len(complete.Nodes) / 3
			capped := Run(f, Options{Equiv: equiv, MaxNodes: limit})
			if !capped.Aborted {
				t.Fatalf("%s: a %d-node cap did not abort", name, limit)
			}
			ckpt := loadedCheckpoint(t, f, Options{Equiv: equiv, MaxNodes: limit})
			spaces = append(spaces,
				space{name + "/complete", complete, complete.whole()},
				space{name + "/canonical", complete, complete.whole().canonical()},
				space{name + "/level 1 boundary", complete, boundary(complete, 1)},
				space{name + "/aborted", capped, capped.whole()},
				space{name + "/resumable", ckpt, ckpt.whole()},
				space{name + "/resumable, canonical", ckpt, ckpt.whole().canonical()})
			// A quarantine on the first expandable level-1 node's first
			// phase, and a corrupted instance Check flags.
			var phase byte
			var seq string
			for _, n := range complete.Nodes {
				if n.Level == 1 && len(n.Edges) > 0 {
					seq, phase = n.Seq, n.Edges[0].Phase
					break
				}
			}
			if seq == "" {
				continue
			}
			q := Run(f, Options{Equiv: equiv, Faults: faultinject.MustParse(fmt.Sprintf("panic=%c@%s", phase, seq))})
			if len(q.QuarantinedNodes()) == 0 {
				t.Fatalf("%s: the injected panic quarantined nothing", name)
			}
			checked := Run(f, Options{Equiv: equiv, Check: true, Faults: faultinject.MustParse(fmt.Sprintf("corrupt=%c", phase))})
			if len(checked.CheckFailures()) == 0 {
				t.Fatalf("%s: Check flagged no corrupted instance", name)
			}
			spaces = append(spaces,
				space{name + "/quarantined", q, q.whole()},
				space{name + "/check failures", checked, checked.whole()})
		}
	}
	// A resumable equivalence-collapsed document with folds: rle_block
	// folds from its first level on.
	rle := loadedCheckpoint(t, corpusFunc(t, "jpeg", "rle_block"), Options{Equiv: true, MaxNodes: 40})
	if len(rle.Checkpoint.folds) == 0 {
		t.Fatal("rle_block's capped checkpoint holds no folds")
	}
	spaces = append(spaces, space{"rle_block/equiv=true/resumable with folds", rle, rle.whole()})
	for _, s := range spaces {
		if err := sameAsOracle(s.r, s.v); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
}

// FuzzDocumentBytes mutates one node of a small space — its level,
// sequence, fingerprint, size, edges, equiv_raw and its check_err and
// quarantine strings, seeded with <, > and &, U+2028, control bytes and
// invalid UTF-8 — and holds encode's document of the result to
// encoding/json's, byte for byte, in either tier, complete or
// resumable (the equivalence tier's with a class table and folds).
func FuzzDocumentBytes(f *testing.F) {
	fn := corpusFunc(f, "sha", "rotl")
	bases := []*Result{
		Run(fn, Options{}),
		Run(fn, Options{Equiv: true}),
		loadedCheckpoint(f, fn, Options{MaxNodes: 3}),
		loadedCheckpoint(f, corpusFunc(f, "jpeg", "rle_block"), Options{Equiv: true, MaxNodes: 40}),
	}
	for i, s := range []string{"", "plain", "<script>&amp;", "line\u2028sep\u2029", "ctl\x00\x01\x1f\x7f", "bad\xff\xfeutf8", `quote" back\slash`, "\u00e9 \u65e5\u672c"} {
		f.Add(uint8(i), uint16(i), i, s, s, strings.ToUpper(s), -i, uint32(i), byte(i), i-1, true)
	}
	f.Fuzz(func(t *testing.T, which uint8, id uint16, level int, seq, checkErr, quarantine string, count int, crc uint32, phase byte, to int, edges bool) {
		base := bases[int(which)%len(bases)]
		r := *base
		r.Nodes = append([]*Node(nil), base.Nodes...)
		i := int(id) % len(r.Nodes)
		n := *r.Nodes[i]
		r.Nodes[i] = &n
		n.Level, n.Seq, n.CheckErr, n.Quarantine = level, seq, checkErr, quarantine
		n.FP.Count, n.FP.CRC, n.NumInstrs, n.EquivRaw = count, crc, count, level
		n.key, n.CFKey = seq+checkErr, fingerprint.Key("cf"+quarantine)
		if edges {
			n.Edges = append(append([]Edge(nil), n.Edges...), Edge{Phase: phase, To: to})
		}
		if err := sameAsOracle(&r, r.whole()); err != nil {
			t.Fatal(err)
		}
	})
}
