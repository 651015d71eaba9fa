package server

import (
	"context"
	"encoding/base64"
	"errors"
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

// TestWholeUploadIsHeldToItsCanonicalHash: the space is what the
// coordinator stores and serves, so its upload is held to the canonical
// hash of its decode. The SHA-256 of a non-canonical upload's bytes is
// refused; its canonical hash is accepted, and the stored entry is the
// coordinator's own render.
func TestWholeUploadIsHeldToItsCanonicalHash(t *testing.T) {
	s, ts := newTestServer(t, Config{DistLeaseTTL: 30 * time.Second, DistPollWait: 200 * time.Millisecond})
	registerIdle(t, ts, "w1")
	cl := distcl.NewClient(distcl.Config{BaseURL: ts.URL, Timeout: 5 * time.Second})
	full := search.Run(mustCompile(t, clampSrc, "clamp"), search.Options{})
	want, err := full.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	up := saved(t, full)
	if hexSum(up) == want {
		t.Fatal("the upload is already canonical")
	}

	replies := make(chan map[string]any, 1)
	go func() {
		status, doc, _ := post(t, ts, srcBody(clampSrc))
		doc["status"] = status
		replies <- doc
	}()
	asn := pollAs(t, cl, "w1")
	if asn.CheckpointB64 != "" {
		t.Fatal("the whole space was dispatched with a starting document")
	}
	_, err = complete(cl, "w1", asn, up, hexSum(up))
	wantMismatch(t, "a whole space under the SHA-256 of its bytes", err)
	if status, err := complete(cl, "w1", asn, up, want); status != "accepted" {
		t.Fatalf("under its canonical hash: %q, %v; want accepted", status, err)
	}

	doc := <-replies
	if doc["status"] != http.StatusOK || doc["space_hash"] != want {
		t.Fatalf("the flight answered %v with space_hash %v, want 200 and %s", doc["status"], doc["space_hash"], want)
	}
	if hexSum(download(t, ts.URL, doc["key"].(string))) != want {
		t.Error("the stored entry is the upload, not the coordinator's render")
	}
	if got := counter(s, "server.enumerations"); got != 0 {
		t.Errorf("server.enumerations = %d, want 0: the fleet ran it", got)
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
