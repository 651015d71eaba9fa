package search_test

import (
	"bytes"
	"compress/gzip"
	"context"
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

// FuzzLoad is the trust boundary of the space format: Load reads bytes
// this process did not write — a cache directory, a worker's upload, a
// file handed to spacedot. The input is the JSON document; the harness
// gzips it, so the fuzzer mutates structure instead of fighting the
// compressor (the gzip layer's own rejection paths are the first rows
// of the corrupt-file table). Whatever the document, Load returns an
// error or a Result that hashes, saves, loads back and hashes the same
// — never a panic, never a space whose identity depends on how often
// it was written.
func FuzzLoad(f *testing.F) {
	// Seeds, all written here: a finished v2 space and the same space as
	// a v1 document, a v3 equivalence-collapsed space, a mid-run
	// checkpoint of either tier (the equiv one with its class table and
	// folds), and every row of the corrupt-file table that is a document
	// at all.
	_, fn := compileFunc(f, smallSrc, "clamp")
	seed := func(r *search.Result) []byte {
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(gunzip(buf.Bytes()))
		return buf.Bytes()
	}
	f.Add(asV1(f, seed(search.Run(fn, search.Options{}))))
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
	f.Add(gunzip(equivCheckpoint(f)))
	for _, tc := range defectiveSpaces(f) {
		if doc := gunzip(tc.data); len(doc) > 0 {
			f.Add(doc)
		}
	}
	// The least Load accepts, small enough for byte mutations to land
	// on structure: one node, and one node with itself as frontier, over
	// the least valid root (one block, a return: Op 24).
	const root = `"root":{"Blocks":[{"ID":0,"Instrs":[{"Op":24}]}],"NextBlockID":1}`
	f.Add([]byte(`{"version":1,` + root + `,"nodes":[{"key":"AA==","cf_key":""}]}`))
	f.Add([]byte(`{"version":3,"func":"f","equiv":{"raw":1,"merged":0},` + root + `,"nodes":[{"key":"AA==","cf_key":"",` +
		`"edges":[{"Phase":98,"To":0}]}],"checkpoint":{"frontier":[0,0],"bodies":[{},{}],"saved_at_unix_ns":-1}}`))

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
		back, err := search.Load(&out)
		if err != nil {
			t.Fatalf("a saved space does not load: %v", err)
		}
		if got, err := back.CanonicalHash(); err != nil || got != want {
			t.Fatalf("hash moved across Save and Load: %s, then %s (%v)", want, got, err)
		}
	})
}
