package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/distcl"
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

// TestPartNamedByItsBytes plays both shard holders of a split by hand.
// Each part is uploaded with its timing kept (saved), under the SHA-256
// of those bytes, which is not its canonical hash: the coordinator takes
// it, because a part is named by the bytes it arrived as, and the
// merged answer still hashes to the serial enumeration's. A part with
// one byte flipped, or sent under a stale claim (its canonical hash,
// what the coordinator used to require), is refused with a 400, and a
// re-delivered part is a duplicate. Parts are default-tier only: an
// equiv request is one whole-space assignment
// (TestWholeUploadIsHeldToItsCanonicalHash).
func TestPartNamedByItsBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ShardFanout: 2, DistLeaseTTL: 30 * time.Second, DistPollWait: 200 * time.Millisecond,
	})
	registerIdle(t, ts, "w1")
	registerIdle(t, ts, "w2")
	cl := distcl.NewClient(distcl.Config{BaseURL: ts.URL, Timeout: 5 * time.Second})
	want, err := search.Run(mustCompile(t, sumSrc, "sum"), search.Options{}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	replies := postAsync(t, ts, srcBody(sumSrc))

	for i, worker := range []string{"w1", "w2"} {
		asn := pollAs(t, cl, worker)
		seed, err := search.Load(bytes.NewReader(mustB64(t, asn.CheckpointB64)))
		if err != nil {
			t.Fatalf("part %d's starting document: %v", i, err)
		}
		part, err := search.Resume(seed, search.Options{})
		if err != nil || part.Aborted {
			t.Fatalf("part %d did not finish: %v", i, err)
		}
		up := saved(t, part)
		canon, err := part.CanonicalHash()
		if err != nil || hexSum(up) == canon {
			t.Fatalf("part %d's upload is already canonical (%v)", i, err)
		}
		if i == 0 {
			flipped := bytes.Clone(up)
			flipped[len(flipped)/2] ^= 1
			_, err := complete(cl, worker, asn, flipped, hexSum(up))
			wantMismatch(t, "a flipped byte", err)
			_, err = complete(cl, worker, asn, up, canon)
			wantMismatch(t, "a stale claim", err)
		}
		if status, err := complete(cl, worker, asn, up, hexSum(up)); status != "accepted" {
			t.Fatalf("part %d: %q, %v; want accepted", i, status, err)
		}
		if i == 0 {
			if status, err := complete(cl, worker, asn, up, hexSum(up)); status != "duplicate" {
				t.Errorf("re-delivered part: %q, %v; want duplicate", status, err)
			}
		}
	}

	r := <-replies
	if r.status != http.StatusOK || r.doc["space_hash"] != want {
		t.Fatalf("the flight answered %v with space_hash %v, want 200 and the serial hash %s",
			r.status, r.doc["space_hash"], want)
	}
	if hexSum(download(t, ts.URL, r.doc["key"].(string))) != want {
		t.Errorf("the stored space does not hash to the answer's space_hash")
	}
	for name, want := range map[string]int64{
		"dist.shard.merges": 1, "dist.shard.merge_failures": 0,
		"dist.shard.fallbacks": 0, "dist.local_fallbacks": 0, "server.enumerations": 1,
	} {
		if got := counter(s, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestWholeUploadIsHeldToItsCanonicalHash: the whole space is what the
// coordinator stores and serves, so its upload is still held to the
// canonical hash of its decode. The SHA-256 of a non-canonical upload's
// bytes, which would name a part, is refused; its canonical hash is
// accepted, and the stored entry is the coordinator's own render.
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
