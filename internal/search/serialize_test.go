package search_test

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fingerprint"
	"repro/internal/search"
)

func TestSpaceSaveLoadRoundTrip(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	orig := search.Run(f, search.Options{})

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := search.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.FuncName != orig.FuncName ||
		loaded.AttemptedPhases != orig.AttemptedPhases ||
		len(loaded.Nodes) != len(orig.Nodes) {
		t.Fatalf("header mismatch: %+v vs %+v", loaded, orig)
	}
	for i := range orig.Nodes {
		a, b := orig.Nodes[i], loaded.Nodes[i]
		if orig.NodeKey(a) != loaded.NodeKey(b) || a.Seq != b.Seq || a.Level != b.Level ||
			a.NumInstrs != b.NumInstrs || a.FP != b.FP || a.CFKey != b.CFKey ||
			a.State != b.State || !reflect.DeepEqual(a.Edges, b.Edges) {
			t.Fatalf("node %d mismatch", i)
		}
	}

	// The loaded space must replay instances faithfully.
	best := loaded.OptimalCodeSize()
	inst := loaded.Instance(best)
	if inst.NumInstrs() != best.NumInstrs {
		t.Fatalf("replay after load: %d instructions, recorded %d",
			inst.NumInstrs(), best.NumInstrs)
	}
	if got := fingerprint.Of(inst); got != best.FP {
		t.Fatalf("replay fingerprint mismatch")
	}

	// And the analysis must produce identical statistics.
	xa, xb := analysis.NewInteractions(), analysis.NewInteractions()
	xa.Accumulate(orig)
	xb.Accumulate(loaded)
	if !reflect.DeepEqual(xa.Enabling(), xb.Enabling()) {
		t.Fatal("analysis differs after reload")
	}
}

func TestSpaceSaveLoadFile(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	orig := search.Run(f, search.Options{})
	path := filepath.Join(t.TempDir(), "clamp.space.gz")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := search.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Nodes) != len(orig.Nodes) {
		t.Fatalf("node count %d, want %d", len(loaded.Nodes), len(orig.Nodes))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := search.Load(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Fatal("accepted garbage input")
	}
	// Valid gzip of invalid JSON.
	var buf bytes.Buffer
	func() {
		gz := newGzip(&buf)
		defer gz.Close()
		gz.Write([]byte("{broken"))
	}()
	if _, err := search.Load(&buf); err == nil {
		t.Fatal("accepted broken JSON")
	}
}

func newGzip(w *bytes.Buffer) *gzip.Writer { return gzip.NewWriter(w) }

// defectiveSpace is one defective space file and the substring its Load
// error must carry.
type defectiveSpace struct {
	name string
	data []byte
	want string
}

// corruptSpaces is the table of defective inputs, one per rejection
// path of Load; FuzzLoad seeds from it too.
func defectiveSpaces(t testing.TB) []defectiveSpace {
	_, f := compileFunc(t, smallSrc, "clamp")
	var valid bytes.Buffer
	if err := search.Run(f, search.Options{}).Save(&valid); err != nil {
		t.Fatal(err)
	}

	// reencodeFrom gunzips a valid space, hands the JSON document to
	// mutate as a generic map, and re-gzips the result; reencode starts
	// from the finished default-tier space.
	reencodeFrom := func(t testing.TB, valid []byte, mutate func(doc map[string]any)) []byte {
		t.Helper()
		gz, err := gzip.NewReader(bytes.NewReader(valid))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.NewDecoder(gz).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		mutate(doc)
		var buf bytes.Buffer
		w := gzip.NewWriter(&buf)
		if err := json.NewEncoder(w).Encode(doc); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	reencode := func(t testing.TB, mutate func(doc map[string]any)) []byte {
		return reencodeFrom(t, valid.Bytes(), mutate)
	}
	gzipOf := func(s string) []byte {
		var buf bytes.Buffer
		w := gzip.NewWriter(&buf)
		w.Write([]byte(s))
		w.Close()
		return buf.Bytes()
	}
	node0 := func(doc map[string]any) map[string]any {
		return doc["nodes"].([]any)[0].(map[string]any)
	}
	// rekey rewrites node 0's key in place.
	rekey := func(doc map[string]any, mutate func(key []byte)) {
		key, err := base64.StdEncoding.DecodeString(node0(doc)["key"].(string))
		if err != nil {
			t.Fatal(err)
		}
		mutate(key)
		node0(doc)["key"] = base64.StdEncoding.EncodeToString(key)
	}

	// equiv mutates an equivalence-collapsed checkpoint with folds: its
	// document, resume section, class list and fold list.
	validEquiv := equivCheckpoint(t)
	equiv := func(mutate func(doc, ck map[string]any, classes, folds []any)) []byte {
		return reencodeFrom(t, validEquiv, func(doc map[string]any) {
			ck := doc["checkpoint"].(map[string]any)
			mutate(doc, ck, ck["classes"].([]any), ck["folds"].([]any))
		})
	}
	node := func(doc map[string]any, i int) map[string]any {
		return doc["nodes"].([]any)[i].(map[string]any)
	}
	// quarantine turns node i into a dead end, as a quarantined attempt
	// leaves it: its key and class key replaced.
	quarantine := func(doc map[string]any, classes []any, i int) {
		n := node(doc, i)
		n["quarantine"], n["key"] = "panic: injected", base64.StdEncoding.EncodeToString([]byte("Q"+n["seq"].(string)))
		classes[i] = ""
	}
	// sameState is two nodes in one gating state.
	sameState := func(doc map[string]any) (int, int) {
		for j := 1; ; j++ {
			for i := 0; i < j; i++ {
				if node(doc, i)["state"] == node(doc, j)["state"] {
					return i, j
				}
			}
		}
	}
	fold := func(folds []any, i int) map[string]any { return folds[i].(map[string]any) }

	// flipTrailerCRC clobbers one byte of the gzip trailer's CRC32
	// while leaving the deflate stream (and so the JSON document)
	// intact — the shape of a torn final disk block.
	flipTrailerCRC := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[len(out)-8] ^= 0xff
		return out
	}

	return []defectiveSpace{
		{"garbage", []byte("definitely not gzip"), "not a gzip stream"},
		{"broken JSON", gzipOf("{broken"), "decoding space"},
		{"truncated", valid.Bytes()[:valid.Len()/2], "truncated"},
		// The trailer cases hold a complete JSON document: only
		// draining past the document and checking the gzip close error
		// catches them, which is exactly what a loader that ignores the
		// deferred Close error fails to do.
		{"trailer truncated", valid.Bytes()[:valid.Len()-8], "corrupt gzip trailer"},
		{"trailer checksum clobbered", flipTrailerCRC(valid.Bytes()), "corrupt gzip trailer"},
		{"future version", gzipOf(`{"version":99}`), "version 99 unsupported"},
		{"version zero", gzipOf(`{"version":0}`), "version 0 unsupported"},
		{"empty space", gzipOf(`{"version":2}`), "space file is empty"},
		// The keys spell a symbol's length in one byte: a root naming a
		// longer one would make two of them ambiguous.
		{"root with a symbol too long to key", reencode(t, func(doc map[string]any) {
			entry := doc["root"].(map[string]any)["Blocks"].([]any)[0].(map[string]any)
			long := map[string]any{"Op": 2, "Dst": 12, "Sym": strings.Repeat("s", 256)} // r[12]=HI[sss…]
			entry["Instrs"] = append([]any{long}, entry["Instrs"].([]any)...)
		}), "space root is not a valid function"},
		{"malformed node key", reencode(t, func(doc map[string]any) {
			node0(doc)["key"] = "%%% not base64 %%%"
		}), "malformed base64 key"},
		{"malformed cf key", reencode(t, func(doc map[string]any) {
			node0(doc)["cf_key"] = "%%%"
		}), "malformed base64 cf key"},
		// A key is filed under its node's flags and fingerprint when the
		// space is resumed or merged: it has to belong there.
		{"key under the wrong state flags", reencode(t, func(doc map[string]any) {
			rekey(doc, func(key []byte) { key[0] ^= 1 })
		}), "does not match its state and fingerprint"},
		{"key that does not checksum to its fingerprint", reencode(t, func(doc map[string]any) {
			rekey(doc, func(key []byte) { key[len(key)-1] ^= 0xff })
		}), "does not match its state and fingerprint"},
		{"quarantined node under an instance's key", reencode(t, func(doc map[string]any) {
			node0(doc)["quarantine"] = "panic: injected"
		}), "a quarantined node's key"},
		{"edge out of range", reencode(t, func(doc map[string]any) {
			node0(doc)["edges"] = []any{map[string]any{"Phase": 99, "To": 1 << 20}}
		}), "outside the"},
		{"checkpoint body count mismatch", reencode(t, func(doc map[string]any) {
			doc["checkpoint"] = map[string]any{"frontier": []any{0}, "bodies": []any{}}
		}), "1 frontier nodes but 0 bodies"},
		{"checkpoint frontier out of range", reencode(t, func(doc map[string]any) {
			doc["checkpoint"] = map[string]any{
				"frontier": []any{1 << 20},
				"bodies":   []any{doc["root"]},
			}
		}), "outside the"},
		{"checkpoint nil body", reencode(t, func(doc map[string]any) {
			doc["checkpoint"] = map[string]any{"frontier": []any{0}, "bodies": []any{nil}}
		}), "has no body"},
		// The class table of an equivalence-collapsed checkpoint is
		// refiled by Resume: the class index and the folded spellings'
		// dedup slots have to hold up as the keys of the node table do.
		{"equiv checkpoint with no class section", equiv(func(doc, ck map[string]any, classes, folds []any) {
			delete(ck, "classes")
		}), "class keys for"},
		{"class list shorter than the node table", equiv(func(doc, ck map[string]any, classes, folds []any) {
			ck["classes"] = classes[:len(classes)-1]
		}), "class keys for"},
		{"class key on a quarantined node", equiv(func(doc, ck map[string]any, classes, folds []any) {
			last := len(classes) - 1
			key := classes[last]
			quarantine(doc, classes, last)
			classes[last] = key
		}), "has a class key"},
		{"duplicate class keys", equiv(func(doc, ck map[string]any, classes, folds []any) {
			i, j := sameState(doc)
			classes[j] = classes[i]
		}), "repeats another node's class key"},
		{"class key under the wrong state flags", equiv(func(doc, ck map[string]any, classes, folds []any) {
			key, _ := base64.StdEncoding.DecodeString(classes[0].(string))
			key[0] ^= 1
			classes[0] = base64.StdEncoding.EncodeToString(key)
		}), "does not carry its state flags"},
		{"fold into a node out of range", equiv(func(doc, ck map[string]any, classes, folds []any) {
			fold(folds, 0)["into"] = 1 << 20
		}), "no class of"},
		{"fold into a quarantined node", equiv(func(doc, ck map[string]any, classes, folds []any) {
			quarantine(doc, classes, int(fold(folds, 0)["into"].(float64)))
		}), "no class of"},
		{"fold key that does not checksum to its fingerprint", equiv(func(doc, ck map[string]any, classes, folds []any) {
			key, _ := base64.StdEncoding.DecodeString(fold(folds, 0)["key"].(string))
			key[len(key)-1] ^= 0xff
			fold(folds, 0)["key"] = base64.StdEncoding.EncodeToString(key)
		}), "does not match its state and fingerprint"},
		{"fold key under its class's wrong state flags", equiv(func(doc, ck map[string]any, classes, folds []any) {
			key, _ := base64.StdEncoding.DecodeString(fold(folds, 0)["key"].(string))
			key[0] ^= 1
			fold(folds, 0)["key"] = base64.StdEncoding.EncodeToString(key)
		}), "does not match its state and fingerprint"},
		{"fold key equal to a node key", equiv(func(doc, ck map[string]any, classes, folds []any) {
			f, n := fold(folds, 0), node(doc, 0)
			f["key"], f["fp"], f["into"] = n["key"], n["fp"], 0
		}), "repeats a key"},
		{"fold key equal to another fold's key", equiv(func(doc, ck map[string]any, classes, folds []any) {
			folds[1] = folds[0]
		}), "repeats a key"},
		{"class table on a default-tier checkpoint", equiv(func(doc, ck map[string]any, classes, folds []any) {
			delete(doc, "equiv")
		}), "carries a class table"},
	}
}

// TestLoadCorruptFiles drives Load through every rejection path and
// checks each failure names its defect.
func TestLoadCorruptFiles(t *testing.T) {
	for _, tc := range defectiveSpaces(t) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := search.Load(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("accepted a space file with a %s defect", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the defect (want substring %q)", err, tc.want)
			}
		})
	}
}

// asV1 rewrites a saved space as the version-1 document the first
// writers produced: no checkpoint section, no quarantine fields.
func asV1(t testing.TB, saved []byte) []byte {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(gunzip(saved), &doc); err != nil {
		t.Fatal(err)
	}
	doc["version"] = 1
	delete(doc, "checkpoint")
	v1, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return v1
}

// TestLoadReadsV1 checks the loader still accepts version-1 documents,
// which files written before the format grew checkpoints may hold.
func TestLoadReadsV1(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	var buf bytes.Buffer
	if err := search.Run(f, search.Options{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	w := gzip.NewWriter(&v1)
	w.Write(asV1(t, buf.Bytes()))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := search.Load(&v1)
	if err != nil {
		t.Fatalf("v1 document rejected: %v", err)
	}
	if loaded.Checkpoint != nil {
		t.Fatal("v1 document grew a checkpoint")
	}
	if loaded.Instance(loaded.OptimalCodeSize()) == nil {
		t.Fatal("v1 document does not replay")
	}
}

// foldSrc is a function whose equivalence-collapsed space folds from
// its first level on: every branch chaining of the nested conditional
// only respells a jump.
const foldSrc = `
int pick(int x, int y) {
    int r = 0;
    if (x == 0) { if (y == 0) { r = 1; } } else { r = 2; }
    return r;
}`

// equivCheckpoint is a valid equivalence-collapsed checkpoint that holds
// folds: foldSrc's pick capped at 5 nodes, as the cap abort wrote it
// (6 nodes, 3 folds).
func equivCheckpoint(t testing.TB) []byte {
	t.Helper()
	_, f := compileFunc(t, foldSrc, "pick")
	ckpt := filepath.Join(t.TempDir(), "pick.ckpt.space.gz")
	search.Run(f, search.Options{Equiv: true, MaxNodes: 5, CheckpointPath: ckpt})
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
