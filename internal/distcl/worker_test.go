package distcl

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/mc"
	"repro/internal/mibench"
	"repro/internal/search"
)

const sumSrc = `
int a[16] = {5, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int sum(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) s += a[i];
    return s;
}`

// oneJobCoordinator is the coordinator's side of the protocol for one
// seeded assignment: it hands the job to the first poll, records what
// every heartbeat says about it, and takes the completion.
type oneJobCoordinator struct {
	job Assignment

	mu        sync.Mutex
	handedOut bool
	beats     []HeartbeatAssignment // the job's entry in each heartbeat, in order
	drained   bool                  // a draining heartbeat named the job
	done      chan CompleteRequest
}

func (c *oneJobCoordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reply := func(v any) { json.NewEncoder(w).Encode(v) } //nolint:errcheck // test server
	switch r.URL.Path {
	case PathRegister:
		reply(RegisterResponse{WorkerID: "w1", LeaseTTLMillis: 60, HeartbeatMillis: 20, PollWaitMillis: 50})
	case PathPoll:
		c.mu.Lock()
		first := !c.handedOut
		c.handedOut = true
		c.mu.Unlock()
		if first {
			reply(c.job)
			return
		}
		select { // an empty long poll
		case <-r.Context().Done():
		case <-time.After(50 * time.Millisecond):
		}
		w.WriteHeader(http.StatusNoContent)
	case PathHeartbeat:
		var req HeartbeatRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck // test server
		c.mu.Lock()
		for _, ha := range req.Assignments {
			if ha.AssignmentID == c.job.AssignmentID {
				c.beats = append(c.beats, ha)
				c.drained = c.drained || req.Draining
			}
		}
		c.mu.Unlock()
		reply(HeartbeatResponse{})
	case PathComplete:
		var req CompleteRequest
		json.NewDecoder(r.Body).Decode(&req) //nolint:errcheck // test server
		c.done <- req
		reply(CompleteResponse{Status: "accepted"})
	default: // deregister
		w.WriteHeader(http.StatusNoContent)
	}
}

// TestSeededAssignmentUploadsOnlyItsOwnProgress: a seeded assignment —
// every re-dispatch after an upload — starts with the coordinator's own
// document in its scratch slot. Heartbeats must not
// hand that document back (the coordinator would take the echo for
// progress and count the next re-dispatch as a recovery), and must
// never see it half-written: the entries stay empty until the engine
// has written a checkpoint of its own, and every upload is a loadable
// checkpoint further along than the seed.
func TestSeededAssignmentUploadsOnlyItsOwnProgress(t *testing.T) {
	prog, err := mc.Compile(sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("sum")
	want, err := search.Run(fn, search.Options{}).CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	// The seed is the resumable document a node cap leaves at its
	// checkpoint path.
	seedPath := filepath.Join(t.TempDir(), "seed.space.gz")
	search.Run(fn, search.Options{MaxNodes: 5, CheckpointPath: seedPath})
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := search.Load(bytes.NewReader(seed))
	if err != nil || warm.Checkpoint == nil || warm.Aborted {
		t.Fatalf("the capped run left no resumable document (%v)", err)
	}

	coord := &oneJobCoordinator{done: make(chan CompleteRequest, 1), job: Assignment{
		AssignmentID: "a1", Key: "k", Func: fn, LeaseGen: 1,
		CheckpointB64: base64.StdEncoding.EncodeToString(seed),
	}}
	ts := httptest.NewServer(coord)
	defer ts.Close()
	// Every application of phase c stalls, so the search outlives many
	// heartbeats and its level boundaries fall due for checkpoints.
	wk, err := NewWorker(WorkerConfig{
		Client:        fastClient(t, ts, Config{}),
		ScratchDir:    t.TempDir(),
		SearchWorkers: 2,
		DrainTimeout:  5 * time.Second,
		Faults:        faultinject.MustParse("hang=c:4ms"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() { stopped <- wk.Run(ctx) }()
	var completed CompleteRequest
	select {
	case completed = <-coord.done:
	case <-time.After(2 * time.Minute):
		t.Fatal("the assignment never completed")
	}
	cancel()
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	if completed.Aborted || completed.SpaceHash != want {
		t.Fatalf("completed aborted=%v hash %s, a plain run hashes %s", completed.Aborted, completed.SpaceHash, want)
	}
	uploaded, err := base64.StdEncoding.DecodeString(completed.SpaceB64)
	if sum := sha256.Sum256(uploaded); err != nil || hex.EncodeToString(sum[:]) != want {
		t.Fatalf("the uploaded space hashes to %x, not to the space_hash it goes under (%v)", sum, err)
	}

	coord.mu.Lock()
	defer coord.mu.Unlock()
	if len(coord.beats) == 0 || coord.beats[0].CheckpointB64 != "" {
		t.Fatalf("%d heartbeats named the assignment; the first must, and must carry no checkpoint", len(coord.beats))
	}
	uploads := 0
	for i, ha := range coord.beats {
		if ha.CheckpointB64 == "" {
			continue
		}
		uploads++
		b, err := base64.StdEncoding.DecodeString(ha.CheckpointB64)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(b, seed) {
			t.Fatalf("heartbeat %d echoed the seed back", i)
		}
		if up, err := search.Load(bytes.NewReader(b)); err != nil || len(up.Nodes) <= len(warm.Nodes) {
			t.Fatalf("heartbeat %d uploaded something that is not progress past the seed (%v)", i, err)
		}
	}
	if uploads == 0 {
		t.Fatal("no heartbeat uploaded a checkpoint, though the search wrote its own")
	}
}

// TestDrainUploadsTheFinalCheckpoint: a worker stopped mid-assignment
// cancels the run, whose abort path writes a final checkpoint into the
// scratch slot, and the drain heartbeat names the assignment and leaves
// the coordinator holding exactly that document, so a re-dispatch
// resumes where the worker stopped.
func TestDrainUploadsTheFinalCheckpoint(t *testing.T) {
	prog, err := mc.Compile(sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	coord := &oneJobCoordinator{done: make(chan CompleteRequest, 1),
		job: Assignment{AssignmentID: "a1", Key: "k", Func: prog.Func("sum"), LeaseGen: 1}}
	ts := httptest.NewServer(coord)
	defer ts.Close()
	scratch := t.TempDir()
	wk, err := NewWorker(WorkerConfig{
		Client:        fastClient(t, ts, Config{}),
		ScratchDir:    scratch,
		SearchWorkers: 2,
		DrainTimeout:  5 * time.Second,
		Faults:        faultinject.MustParse("hang=c:4ms"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() { stopped <- wk.Run(ctx) }()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		coord.mu.Lock()
		running := len(coord.beats) > 0
		coord.mu.Unlock()
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat named the assignment")
		}
	}
	cancel()
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord.done:
		t.Fatal("the assignment completed; it had to be stopped mid-space")
	default:
	}

	final, err := os.ReadFile(filepath.Join(scratch, "a1.g1.ckpt.space.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := search.Load(bytes.NewReader(final)); err != nil || r.Checkpoint == nil {
		t.Fatalf("the scratch slot does not hold a resumable checkpoint (%v)", err)
	}
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if !coord.drained {
		t.Fatal("the drain heartbeat did not name the stopped assignment")
	}
	var last []byte
	for _, ha := range coord.beats {
		if ha.CheckpointB64 != "" {
			if last, err = base64.StdEncoding.DecodeString(ha.CheckpointB64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(last, final) {
		t.Fatalf("the coordinator's last upload (%d bytes) is not the final checkpoint (%d bytes)", len(last), len(final))
	}
}

// TestCompletionRendersOnce: what a completion uploads is rendered once
// per assignment, and is always the bytes its hash was taken over. A
// checkpointing run's final write left the canonical bytes in the
// scratch file and their hash on the result, so the upload is that file
// under that hash and costs a read, no render (search.Rendered counts
// them). A finished space Enumerate found in the slot carries the hash
// of the file too, and is uploaded the same way. A run whose final
// write failed left no file: it is rendered here, once, and uploaded as
// the bytes that were hashed.
func TestCompletionRendersOnce(t *testing.T) {
	p, err := mibench.ByName("stringsearch")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fn := prog.Func("bmh_search")
	slot := filepath.Join(t.TempDir(), "a1.g1.ckpt.space.gz")
	if err := search.WriteFile(slot, search.Run(fn, search.Options{}).Save, true); err != nil {
		t.Fatal(err)
	}
	found, err := search.Enumerate(fn, search.Options{CheckpointPath: slot}, nil)
	if err != nil {
		t.Fatal(err)
	}
	failed := search.Run(fn, search.Options{CheckpointPath: filepath.Join(t.TempDir(), "a1.g1.ckpt.space.gz"),
		Faults: faultinject.MustParse("ckptfail=1000000")})
	for _, c := range []struct {
		name    string
		res     *search.Result
		renders int64
	}{
		{"checkpointed", search.Run(fn, search.Options{CheckpointPath: filepath.Join(t.TempDir(), "a1.g1.ckpt.space.gz")}), 0},
		{"found slot", found, 0},
		{"failed final write", failed, 1},
	} {
		res := c.res
		if res.Aborted || len(res.Nodes) < 1000 || (res.SpaceHash == "") != (c.renders > 0) {
			t.Fatalf("%s: aborted=%v, %d nodes, SpaceHash %q; want a finished space of 1,000 nodes or more, hashed iff a file holds it",
				c.name, res.Aborted, len(res.Nodes), res.SpaceHash)
		}
		want, err := res.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		before := search.Rendered()
		b, hash, err := finishedSpace(res)
		if err != nil {
			t.Fatal(err)
		}
		if renders := search.Rendered() - before; renders != c.renders {
			t.Errorf("%s: the completion rendered the space %d times, want %d", c.name, renders, c.renders)
		}
		if sum := sha256.Sum256(b); hash != want || hash != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: uploads %x under %s, the space's canonical hash is %s", c.name, sum, hash, want)
		}
	}
}
