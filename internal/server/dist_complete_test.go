package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/base64"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/distcl"
	"repro/internal/rtl"
	"repro/internal/search"
)

// complete delivers body as worker's completion of asn under claim and
// returns the coordinator's status ("accepted", "duplicate") or its
// refusal.
func complete(cl *distcl.Client, worker string, asn distcl.Assignment, body []byte, claim string) (string, error) {
	var resp distcl.CompleteResponse
	_, err := cl.Call(context.Background(), distcl.PathComplete, distcl.CompleteRequest{
		WorkerID: worker, AssignmentID: asn.AssignmentID, Key: asn.Key,
		SpaceHash: claim, SpaceB64: base64.StdEncoding.EncodeToString(body),
	}, &resp)
	return resp.Status, err
}

// wantMismatch fails unless err is the coordinator's 400 "space hash
// mismatch".
func wantMismatch(t *testing.T, what string, err error) {
	t.Helper()
	se := &distcl.StatusError{}
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest || !strings.Contains(se.Msg, "space hash mismatch") {
		t.Errorf("%s: got %v, want 400 space hash mismatch", what, err)
	}
}

// pollAs takes the next assignment as worker.
func pollAs(t *testing.T, cl *distcl.Client, worker string) distcl.Assignment {
	t.Helper()
	var asn distcl.Assignment
	waitFor(t, worker+"'s assignment", func() bool {
		st, err := cl.Call(context.Background(), distcl.PathPoll, distcl.PollRequest{WorkerID: worker}, &asn)
		return err == nil && st == http.StatusOK
	})
	return asn
}

// saved is res as a worker of an older build uploaded it: a valid space
// document, but not the canonical bytes (the run's timing is kept).
func saved(t *testing.T, res *search.Result) []byte {
	t.Helper()
	return timed(t, canonicalBytes(t, res))
}

// recompressed is canon, a complete space's canonical bytes, gzipped
// again at level: the same document, but not the bytes Save writes.
func recompressed(t *testing.T, canon []byte, level int) []byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(canon))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w, _ := gzip.NewWriterLevel(&out, level)
	w.Write(doc)
	w.Close()
	return out.Bytes()
}

// TestWholeUploadIsHeldToItsCanonicalHash: the space is what the
// coordinator stores and serves, so its upload is held to the canonical
// hash of its decode. The SHA-256 of a non-canonical upload's bytes is
// refused; its canonical hash is accepted, and the stored entry is the
// canonical bytes. A non-canonical upload is one an older build wrote
// (the run's timing kept), or the canonical document compressed at
// another level — which only the recompression half of
// search.LoadCanonical's proof tells from the canonical bytes.
func TestWholeUploadIsHeldToItsCanonicalHash(t *testing.T) {
	full := search.Run(mustCompile(t, clampSrc, "clamp"), search.Options{})
	want, err := full.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	canon := canonicalBytes(t, full)
	for _, row := range []struct {
		name string
		up   []byte
	}{
		{"timed by an older build", saved(t, full)},
		{"recompressed at BestSpeed", recompressed(t, canon, gzip.BestSpeed)},
		{"recompressed at BestCompression", recompressed(t, canon, gzip.BestCompression)},
	} {
		t.Run(row.name, func(t *testing.T) {
			if hexSum(row.up) == want {
				t.Fatal("the upload is already canonical")
			}
			s, ts := newTestServer(t, Config{DistLeaseTTL: 30 * time.Second, DistPollWait: 200 * time.Millisecond})
			registerIdle(t, ts, "w1")
			cl := distcl.NewClient(distcl.Config{BaseURL: ts.URL, Timeout: 5 * time.Second})
			replies := postAsync(t, ts, srcBody(clampSrc))
			asn := pollAs(t, cl, "w1")
			if asn.CheckpointB64 != "" {
				t.Fatal("the whole space was dispatched with a starting document")
			}
			_, err := complete(cl, "w1", asn, row.up, hexSum(row.up))
			wantMismatch(t, "a whole space under the SHA-256 of its bytes", err)
			if status, err := complete(cl, "w1", asn, row.up, want); status != "accepted" {
				t.Fatalf("under its canonical hash: %q, %v; want accepted", status, err)
			}

			r := <-replies
			if r.status != http.StatusOK || r.doc["space_hash"] != want {
				t.Fatalf("the flight answered %d with space_hash %v, want 200 and %s", r.status, r.doc["space_hash"], want)
			}
			if !bytes.Equal(download(t, ts.URL, r.doc["key"].(string)), canon) {
				t.Error("the stored entry is not the canonical bytes")
			}
			if got := counter(s, "server.enumerations"); got != 0 {
				t.Errorf("server.enumerations = %d, want 0: the fleet ran it", got)
			}
		})
	}
}

// TestForeignUploadIsRefused: an upload is held to the flight's
// function and tier the way Enumerate holds a checkpoint slot
// (Result.Enumerates): name, root instance and tier. A clamp with
// another body, clamp's body under another name, and clamp's
// equivalence-tier space on a default-tier assignment are each complete
// and sent under their own canonical hash: the completion is refused
// with a 400 and settles nothing, a checkpoint of any of them is not
// mirrored into the key's space file, and the flight is still answered
// with its own space.
func TestForeignUploadIsRefused(t *testing.T) {
	const otherClamp = `int clamp(int x, int lo, int hi) { if (x > hi) return hi; if (x < lo) return lo; return x; }`
	fn := mustCompile(t, clampSrc, "clamp")
	own := search.Run(fn, search.Options{})
	want, err := own.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		fn   *rtl.Func
		opts search.Options
	}{
		{"another clamp", mustCompile(t, otherClamp, "clamp"), search.Options{}},
		{"clamp's body under another name", mustCompile(t, strings.Replace(clampSrc, "clamp", "clamp2", 1), "clamp2"), search.Options{}},
		{"the equivalence tier", fn, search.Options{Equiv: true}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{DistLeaseTTL: 30 * time.Second, DistPollWait: 200 * time.Millisecond})
			registerIdle(t, ts, "w1")
			cl := distcl.NewClient(distcl.Config{BaseURL: ts.URL, Timeout: 5 * time.Second})
			replies := postAsync(t, ts, srcBody(clampSrc))
			asn := pollAs(t, cl, "w1")
			s.dist.mu.Lock()
			a := s.dist.assignments[asn.AssignmentID]
			s.dist.mu.Unlock()

			capped := row.opts
			capped.MaxNodes = 3
			capped.CheckpointPath = filepath.Join(t.TempDir(), "clamp"+spaceSuffix)
			if r := search.Run(row.fn, capped); !r.Aborted {
				t.Fatal("the capped run finished")
			}
			ckpt, err := os.ReadFile(capped.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			s.dist.acceptCheckpoint(ckptUpload{a, "w1", base64.StdEncoding.EncodeToString(ckpt), asn.LeaseGen})
			if _, err := os.Stat(s.store.path(a.fl.key)); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("the foreign checkpoint was mirrored into the key's space file (stat: %v)", err)
			}

			foreign := search.Run(row.fn, row.opts)
			hash, err := foreign.CanonicalHash()
			if err != nil || hash == want {
				t.Fatalf("the foreign space hashes to %s (%v), the flight's to %s", hash, err, want)
			}
			status, err := complete(cl, "w1", asn, canonicalBytes(t, foreign), hash)
			se := &distcl.StatusError{}
			if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
				t.Errorf("the foreign completion: %q, %v; want a 400", status, err)
			}
			s.dist.mu.Lock()
			state := a.state
			s.dist.mu.Unlock()
			if state != stateAssigned {
				t.Errorf("the refused completion left the assignment %s, want %s", state, stateAssigned)
			}

			if status, err := complete(cl, "w1", asn, canonicalBytes(t, own), want); status != "accepted" {
				t.Fatalf("the flight's own space: %q, %v; want accepted", status, err)
			}
			if r := <-replies; r.status != http.StatusOK || r.doc["space_hash"] != want {
				t.Fatalf("the flight answered %d with space_hash %v, want 200 and %s", r.status, r.doc["space_hash"], want)
			}
		})
	}
}

// TestDeadLifeCompletion: a lessee that outlived its coordinator uploads
// its finished space under an assignment ID the new life never issued.
// If the new life is enumerating the key again, the completion settles
// that flight, held to the same checks as its own lessee's; a key
// nobody is enumerating, or a worker-side abort, is still an unknown
// assignment (404), and the flight's own lessee settles it.
func TestDeadLifeCompletion(t *testing.T) {
	full := search.Run(mustCompile(t, clampSrc, "clamp"), search.Options{})
	want, err := full.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	body := canonicalBytes(t, full)
	for _, row := range []struct {
		name    string
		key     func(live string) string
		aborted bool
		status  int // 0: accepted
	}{
		{"the live key", func(live string) string { return live }, false, 0},
		{"an unknown key", func(string) string { return strings.Repeat("0", 64) }, false, http.StatusNotFound},
		{"an aborted completion", func(live string) string { return live }, true, http.StatusNotFound},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{DistLeaseTTL: 30 * time.Second, DistPollWait: 200 * time.Millisecond})
			registerIdle(t, ts, "w1")
			cl := distcl.NewClient(distcl.Config{BaseURL: ts.URL, Timeout: 5 * time.Second})
			replies := postAsync(t, ts, srcBody(clampSrc))
			asn := pollAs(t, cl, "w1")

			var resp distcl.CompleteResponse
			_, err := cl.Call(context.Background(), distcl.PathComplete, distcl.CompleteRequest{
				WorkerID: "w0", AssignmentID: "a0", Key: row.key(asn.Key),
				SpaceHash: want, SpaceB64: base64.StdEncoding.EncodeToString(body),
				Aborted: row.aborted, AbortReason: "worker drained",
			}, &resp)
			if row.status == 0 {
				if resp.Status != "accepted" {
					t.Fatalf("the dead life's completion: %q, %v; want accepted", resp.Status, err)
				}
			} else {
				se := &distcl.StatusError{}
				if !errors.As(err, &se) || se.Status != row.status {
					t.Fatalf("the dead life's completion: %q, %v; want %d", resp.Status, err, row.status)
				}
				s.dist.mu.Lock()
				state := s.dist.assignments[asn.AssignmentID].state
				s.dist.mu.Unlock()
				if state != stateAssigned {
					t.Fatalf("the refused completion left the assignment %s, want %s", state, stateAssigned)
				}
				if status, err := complete(cl, "w1", asn, body, want); status != "accepted" {
					t.Fatalf("the lessee's own completion: %q, %v; want accepted", status, err)
				}
			}
			if r := <-replies; r.status != http.StatusOK || r.doc["space_hash"] != want {
				t.Fatalf("the flight answered %d with space_hash %v, want 200 and %s", r.status, r.doc["space_hash"], want)
			}
		})
	}
}
