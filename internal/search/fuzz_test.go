package search_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/search"
)

// gunzip inflates as much of b as is there (a truncated stream still
// yields its prefix); nil when b is no gzip stream at all.
func gunzip(b []byte) []byte {
	gz, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return nil
	}
	doc, _ := io.ReadAll(gz)
	return doc
}

// rewritten is the space file b with the first old in its JSON
// document replaced by new, re-gzipped; b as it is when the document
// holds no old.
func rewritten(b []byte, old, new string) []byte {
	doc := gunzip(b)
	if !bytes.Contains(doc, []byte(old)) {
		return b
	}
	var out bytes.Buffer
	gz := gzip.NewWriter(&out)
	gz.Write(bytes.Replace(doc, []byte(old), []byte(new), 1))
	gz.Close()
	return out.Bytes()
}

// sha256Hex is the hex SHA-256 of b, the way a space file is named.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// spaceDocSeeds are the JSON documents FuzzLoad and FuzzLoadCanonical
// start from, all written here: a finished v2 space and the same space
// as a v1 document, a v3 equivalence-collapsed space, a mid-run
// checkpoint of either tier (the equiv one with its class table and
// folds), every row of the corrupt-file table that is a document at
// all, and the least documents Load accepts.
func spaceDocSeeds(f *testing.F) [][]byte {
	var docs [][]byte
	_, fn := compileFunc(f, smallSrc, "clamp")
	seed := func(r *search.Result) []byte {
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			f.Fatal(err)
		}
		docs = append(docs, gunzip(buf.Bytes()))
		return buf.Bytes()
	}
	docs = append(docs, asV1(f, seed(search.Run(fn, search.Options{}))))
	seed(search.Run(fn, search.Options{Equiv: true}))
	ctx, cancel := context.WithCancel(context.Background())
	ckpt := filepath.Join(f.TempDir(), "clamp.ckpt.space.gz")
	search.Run(fn, search.Options{Ctx: ctx, Verifier: cancelAfter(cancel, 9), CheckpointPath: ckpt})
	cancel()
	mid, err := search.LoadFile(ckpt)
	if err != nil || mid.Checkpoint == nil {
		f.Fatalf("no mid-run checkpoint to seed from (%v)", err)
	}
	seed(mid)
	docs = append(docs, gunzip(equivCheckpoint(f)))
	for _, tc := range defectiveSpaces(f) {
		if doc := gunzip(tc.data); len(doc) > 0 {
			docs = append(docs, doc)
		}
	}
	// The least Load accepts, small enough for byte mutations to land
	// on structure: one node, and one node with itself as frontier, over
	// the least valid root (one block, a return: Op 24).
	const root = `"root":{"Blocks":[{"ID":0,"Instrs":[{"Op":24}]}],"NextBlockID":1}`
	docs = append(docs, []byte(`{"version":1,`+root+`,"nodes":[{"key":"AA==","cf_key":""}]}`))
	docs = append(docs, []byte(`{"version":3,"func":"f","equiv":{"raw":1,"merged":0},`+root+`,"nodes":[{"key":"AA==","cf_key":"",`+
		`"edges":[{"Phase":98,"To":0}]}],"checkpoint":{"frontier":[0,0],"bodies":[{},{}],"saved_at_unix_ns":-1}}`))
	return docs
}

// FuzzLoad is the trust boundary of the space format: Load reads bytes
// this process did not write — a cache directory, a worker's upload, a
// file handed to spacedot. The input is the JSON document; the harness
// gzips it, so the fuzzer mutates structure instead of fighting the
// compressor (the gzip layer's own rejection paths are the first rows
// of the corrupt-file table). Whatever the document, Load returns an
// error or a Result that hashes, saves, loads back and hashes the same
// — never a panic, never a space whose identity depends on how often
// it was written — and a complete, un-aborted one saves as its
// canonical bytes: the SHA-256 of what Save writes is its CanonicalHash.
func FuzzLoad(f *testing.F) {
	for _, doc := range spaceDocSeeds(f) {
		f.Add(doc)
	}

	f.Fuzz(func(t *testing.T, doc []byte) {
		var in bytes.Buffer
		gz := gzip.NewWriter(&in)
		gz.Write(doc)
		gz.Close()
		r, err := search.Load(&in)
		if err != nil {
			return
		}
		want, err := r.CanonicalHash()
		if err != nil {
			t.Fatalf("a loaded space does not hash: %v", err)
		}
		var out bytes.Buffer
		if err := r.Save(&out); err != nil {
			t.Fatalf("a loaded space does not save: %v", err)
		}
		if got := sha256Hex(out.Bytes()); r.Checkpoint == nil && !r.Aborted && got != want {
			t.Fatalf("a complete space saves to bytes hashing %s, its CanonicalHash is %s", got, want)
		}
		back, err := search.Load(&out)
		if err != nil {
			t.Fatalf("a saved space does not load: %v", err)
		}
		if got, err := back.CanonicalHash(); err != nil || got != want {
			t.Fatalf("hash moved across Save and Load: %s, then %s (%v)", want, got, err)
		}
	})
}

// FuzzLoadCanonical holds LoadCanonical to Load and Save, which it
// stands in for on the coordinator: it fails exactly when Load fails,
// with Load's message, and otherwise returns what Save writes of Load's
// space. A canonical input is proved so without a render: the bytes
// returned are the input itself. The harness gzips the document at the
// level the input names (out of range: the default, Save's own), so
// that an upload compressed some other way — which decodes to the same
// space but is not its canonical bytes — is a mutation away.
func FuzzLoadCanonical(f *testing.F) {
	for _, doc := range spaceDocSeeds(f) {
		f.Add(doc, int8(gzip.DefaultCompression))
	}
	_, fn := compileFunc(f, smallSrc, "clamp")
	var canon bytes.Buffer
	if err := search.Run(fn, search.Options{}).Save(&canon); err != nil {
		f.Fatal(err)
	}
	doc := gunzip(canon.Bytes())
	f.Add(doc, int8(gzip.BestSpeed))
	f.Add(append(append([]byte(nil), doc...), `{"version":2}`...), int8(gzip.DefaultCompression))

	f.Fuzz(func(t *testing.T, doc []byte, level int8) {
		lvl := int(level)
		if lvl < gzip.HuffmanOnly || lvl > gzip.BestCompression {
			lvl = gzip.DefaultCompression
		}
		var in bytes.Buffer
		gz, _ := gzip.NewWriterLevel(&in, lvl)
		gz.Write(doc)
		gz.Close()
		up := in.Bytes()

		res, got, err := search.LoadCanonical(up)
		want, loadErr := search.Load(bytes.NewReader(up))
		if loadErr != nil {
			if res != nil || got != nil || err == nil || err.Error() != loadErr.Error() {
				t.Fatalf("Load fails with %q; LoadCanonical returned a space %v, %d bytes and error %v",
					loadErr, res != nil, len(got), err)
			}
			return
		}
		if res == nil || err != nil {
			t.Fatalf("Load accepts the space; LoadCanonical: %v", err)
		}
		var saved bytes.Buffer
		if err := want.Save(&saved); err != nil {
			t.Fatalf("a loaded space does not save: %v", err)
		}
		if !bytes.Equal(got, saved.Bytes()) {
			t.Fatalf("LoadCanonical returned %d bytes that are not what Save writes of Load's space (%d bytes)", len(got), saved.Len())
		}
		if bytes.Equal(up, saved.Bytes()) && &got[0] != &up[0] {
			t.Fatal("a canonical input was rendered again, not proved canonical")
		}
		var again bytes.Buffer
		if err := res.Save(&again); err != nil || !bytes.Equal(again.Bytes(), got) {
			t.Fatalf("LoadCanonical's space does not save to the bytes it returned (%v)", err)
		}
	})
}
