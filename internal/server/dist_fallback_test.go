package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/distcl"
	"repro/internal/faultinject"
	"repro/internal/search"
)

// registerIdle joins a worker that never polls: live for the lease
// clock, useless to the dispatch queue.
func registerIdle(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	cl := distcl.NewClient(distcl.Config{BaseURL: ts.URL, Timeout: 5 * time.Second})
	var reg distcl.RegisterResponse
	if _, err := cl.Call(context.Background(), distcl.PathRegister, distcl.RegisterRequest{WorkerID: id}, &reg); err != nil {
		t.Fatal(err)
	}
}

// uploadFrom reports whether worker holds a lease it has uploaded
// progress under.
func uploadFrom(s *Server, worker string) bool {
	s.dist.mu.Lock()
	defer s.dist.mu.Unlock()
	for _, a := range s.dist.assignments {
		if a.worker == worker && a.ckptNodes > 0 {
			return true
		}
	}
	return false
}

// TestFleetFallbackEdges drives one flight down every edge that leaves
// the fleet path — decline, whole space → local — and the edges that do
// not, and requires each to answer exactly what a single node answers,
// to be counted under the documented name, and to leave nothing behind:
// no assignment in the table, no file in the cache directory that is not
// a key's entry or checkpoint.
func TestFleetFallbackEdges(t *testing.T) {
	const capped = `,"options":{"max_nodes":50}`
	rows := []struct {
		name string
		cfg  Config
		opts string // appended to the request body after the source
		// fleet brings up the row's workers; the func it returns (if
		// any) runs once the request is in flight.
		fleet func(t *testing.T, s *Server, ts *httptest.Server) (mid func())
		// want are exact counter values, atLeast lower bounds; untouched
		// lists prefixes under which no counter may have moved.
		want      map[string]int64
		atLeast   map[string]int64
		untouched []string
	}{
		{
			name: "no live worker runs locally",
			cfg:  Config{},
			fleet: func(*testing.T, *Server, *httptest.Server) func() {
				return nil
			},
			want:      map[string]int64{"server.enumerations": 1},
			untouched: []string{"dist."},
		},
		{
			name: "attempts exhausted resumes locally from the mirrored upload",
			cfg:  Config{DistMaxAttempts: 1, DistLeaseTTL: 600 * time.Millisecond, DistPollWait: 100 * time.Millisecond},
			fleet: func(t *testing.T, s *Server, ts *httptest.Server) func() {
				gate := &gatedTransport{}
				startWorker(t, ts, "w1", gate, faultinject.MustParse("hang=c:60ms"))
				waitFor(t, "w1 to register", func() bool { return fleetLive(s) == 1 })
				return func() {
					waitFor(t, "a checkpoint upload from w1", func() bool { return uploadFrom(s, "w1") })
					gate.dead.Store(true)
				}
			},
			want:    map[string]int64{"dist.local_fallbacks": 1},
			atLeast: map[string]int64{"server.enumerations.resumed": 1, `dist.lease_expiries{worker="w1"}`: 1},
		},
		{
			name: "max_nodes on the worker answers 422 without a local run",
			cfg:  Config{DistLeaseTTL: 2 * time.Second, DistPollWait: 100 * time.Millisecond},
			opts: capped,
			fleet: func(t *testing.T, s *Server, ts *httptest.Server) func() {
				startWorker(t, ts, "w1", nil, nil)
				waitFor(t, "w1 to register", func() bool { return fleetLive(s) == 1 })
				return nil
			},
			// No local run and no fallback: the abort is the answer.
			want: map[string]int64{`dist.completions{worker="w1"}`: 1, "server.enumerations": 0,
				"dist.local_fallbacks": 0},
		},
		{
			name: "a fleet thinned to one worker gets the whole space",
			cfg:  Config{DistLeaseTTL: 2 * time.Second, DistPollWait: 100 * time.Millisecond},
			fleet: func(t *testing.T, s *Server, ts *httptest.Server) func() {
				startWorker(t, ts, "w1", nil, nil)
				waitFor(t, "w1 to register", func() bool { return fleetLive(s) == 1 })
				return nil
			},
			want: map[string]int64{`dist.assignments{worker="w1"}`: 1, "server.enumerations": 0,
				"dist.local_fallbacks": 0},
		},
		{
			name: "a saturated dispatch queue declines to local",
			cfg:  Config{},
			fleet: func(t *testing.T, s *Server, ts *httptest.Server) func() {
				registerIdle(t, ts, "w1")
				registerIdle(t, ts, "w2")
				for len(s.dist.pending) < cap(s.dist.pending) {
					s.dist.pending <- &assignment{state: stateCanceled}
				}
				return nil
			},
			// Nothing was queued and nothing ran before the local run,
			// which starts from the root.
			want: map[string]int64{"server.enumerations": 1,
				"server.enumerations.resumed": 0, "dist.local_fallbacks": 0},
			untouched: []string{"dist.assignments"},
		},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			body := `{"source":` + jsonStr(sumSrc) + row.opts + `}`
			_, single := newTestServer(t, Config{})
			wantStatus, wantDoc, _ := post(t, single, body)

			s, ts := newTestServer(t, row.cfg)
			mid := row.fleet(t, s, ts)
			replies := postAsync(t, ts, body)
			if mid != nil {
				mid()
			}
			r := <-replies
			if r.status != wantStatus || r.doc["space_hash"] != wantDoc["space_hash"] || r.doc["error"] != wantDoc["error"] {
				t.Fatalf("answered %d %v %v, a single node answers %d %v %v", r.status, r.doc["space_hash"],
					r.doc["error"], wantStatus, wantDoc["space_hash"], wantDoc["error"])
			}

			counters := s.reg.Snapshot().Counters
			for name, want := range row.want {
				if got := counters[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			for name, want := range row.atLeast {
				if got := counters[name]; got < want {
					t.Errorf("%s = %d, want >= %d", name, got, want)
				}
			}
			for name, got := range counters {
				for _, prefix := range row.untouched {
					if strings.HasPrefix(name, prefix) && got != 0 {
						t.Errorf("%s = %d, want it untouched", name, got)
					}
				}
			}

			s.dist.mu.Lock()
			left := len(s.dist.assignments)
			s.dist.mu.Unlock()
			if left != 0 {
				t.Errorf("%d assignments left in the table", left)
			}
			for _, name := range dirNames(t, s.cfg.Dir) {
				key, ok := strings.CutSuffix(name, spaceSuffix)
				if !ok {
					key, ok = strings.CutSuffix(name, recordSuffix)
				}
				if !ok || !keyPattern.MatchString(key) {
					t.Errorf("cache dir holds %s, which is no key's space file or answer record", name)
				}
			}
		})
	}
}

// TestSettleIsOneTransition calls the completion transition on an
// assignment in each of its five states, with a space and with a
// worker-side abort. Only a live assignment takes the result and closes
// done; in particular a flight canceled while the worker's abort was on
// the wire stays canceled.
func TestSettleIsOneTransition(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	res := search.Run(mustCompile(t, negSrc, "neg"), search.Options{})
	for _, aborted := range []bool{false, true} {
		for state, want := range map[string]string{
			statePending:  "accepted",
			stateAssigned: "accepted",
			stateDone:     "duplicate",
			stateFailed:   "assignment no longer wanted",
			stateCanceled: "assignment no longer wanted",
		} {
			a := &assignment{state: state, done: make(chan struct{})}
			hash, reason := "h", ""
			if aborted {
				hash, reason = "", "max nodes"
			}
			if state == stateDone {
				a.hash, a.aborted = hash, aborted
			}
			s.dist.mu.Lock()
			status, herr := s.dist.settleLocked(a, res, nil, hash, aborted, reason)
			s.dist.mu.Unlock()
			if herr != nil {
				status = herr.msg
			}
			if status != want {
				t.Errorf("%s, aborted=%v: settled as %q, want %q", state, aborted, status, want)
			}
			closed := false
			select {
			case <-a.done:
				closed = true
			default:
			}
			if took := want == "accepted"; closed != took || (a.state == stateDone) != (took || state == stateDone) {
				t.Errorf("%s, aborted=%v: done closed=%v, state now %s", state, aborted, closed, a.state)
			}
			if want == "accepted" && (a.aborted != aborted || a.abortReason != reason || a.hash != hash) {
				t.Errorf("%s, aborted=%v: recorded aborted=%v reason=%q hash=%q", state, aborted, a.aborted, a.abortReason, a.hash)
			}
		}
	}

	// A finished assignment refuses a different result.
	a := &assignment{state: stateDone, hash: "h", done: make(chan struct{})}
	s.dist.mu.Lock()
	_, herr := s.dist.settleLocked(a, res, nil, "other", false, "")
	s.dist.mu.Unlock()
	if herr == nil || herr.status != http.StatusConflict {
		t.Errorf("conflicting completion settled as %+v, want 409", herr)
	}
}

// TestAssignmentIDsDoNotRepeatAcrossLives: a worker that outlives its
// coordinator still holds assignments of the dead life, and the first
// assignment of the next life must not answer to the same name — or the
// straggler's upload and completion would land on it.
func TestAssignmentIDsDoNotRepeatAcrossLives(t *testing.T) {
	var ids [2]string
	for i := range ids {
		s, ts := newTestServer(t, Config{})
		registerIdle(t, ts, "w1")
		a := s.dist.lease(&flight{})
		if a == nil {
			t.Fatal("nothing leased with a live worker and an empty queue")
		}
		ids[i] = a.id
		s.dist.withdraw(a)
	}
	if ids[0] == ids[1] {
		t.Fatalf("two coordinator lives both named their first assignment %s", ids[0])
	}
}
