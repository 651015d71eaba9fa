package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distcl"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// The dispatcher turns the server into a coordinator: enumeration
// flights that miss every cache tier are offered to a fleet of worker
// processes (cmd/spaced -worker) over the /v1/dist/* protocol instead
// of running on the local pool, each as one whole-space assignment in
// either tier. Work is pull-based — workers long-poll for assignments —
// and every assignment is covered by a lease renewed by the worker's
// heartbeats. A missed lease (crashed worker, dead TCP, partition)
// expires on the sweeper and the assignment is re-dispatched, seeded
// with the worker's last uploaded checkpoint, so a SIGKILL costs at
// most one heartbeat interval of enumeration. An assignment's
// checkpoints are mirrored into the flight key's space file, the one
// slot its local run, a later dispatch and the next coordinator life
// all resume from; the record the flight's publish writes beside it is
// what turns that file into an entry. With no workers registered the
// dispatcher declines every flight in one mutex acquisition and the
// server behaves exactly as a single node; a flight the fleet cannot
// serve runs locally. It does not split a space: the parts of a
// frontier split reconverge (DESIGN §14).

// assignment lease/lifecycle states.
const (
	statePending  = "pending"  // queued, waiting for a worker poll
	stateAssigned = "assigned" // leased to a worker
	stateDone     = "done"     // completed (space or worker-side abort)
	stateFailed   = "failed"   // attempts exhausted; flight falls back to local
	stateCanceled = "canceled" // flight went away (server drain)
)

// assignment is one leased unit of distributed work: one flight's whole
// space.
type assignment struct {
	id string
	fl *flight

	// All below guarded by dispatcher.mu.
	state      string
	worker     string // current lessee ("" while pending)
	attempts   int    // dispatches so far
	leaseUntil time.Time
	// leaseGen increments on every dispatch. Heartbeat entries carrying
	// an older generation are fenced off: a checkpoint upload that was
	// in flight (queued, or crawling through an httpslow link) when the
	// lease expired must not regress the watermark after a re-dispatch
	// — even a re-dispatch to the same worker.
	leaseGen int64

	// ckpt is the latest validated checkpoint upload, the document the
	// next dispatch is seeded with (nil before the first). ckptNodes is
	// its node count — the monotonicity watermark a later one must not
	// shrink below.
	ckpt      []byte
	ckptNodes int

	// done closes on transition to stateDone or stateFailed; the
	// fields below are immutable afterwards. hash is the accepted
	// completion's name — the idempotency key a duplicate delivery is
	// matched against: the canonical hash of the space, whose canonical
	// bytes canon holds.
	done        chan struct{}
	res         *search.Result
	canon       []byte
	hash        string
	aborted     bool
	abortReason string
}

// distWorker is the coordinator's view of one registered worker.
type distWorker struct {
	id       string
	state    string // "live", "draining", "dead"
	lastSeen time.Time
	// abandon accumulates assignment IDs the worker must stop working
	// on (reassigned elsewhere); delivered with its next heartbeat.
	abandon []string
}

// dispatcher owns the worker registry, the assignment table and the
// lease clock.
type dispatcher struct {
	s           *Server
	leaseTTL    time.Duration
	pollWait    time.Duration
	maxAttempts int

	mu          sync.Mutex
	workers     map[string]*distWorker
	assignments map[string]*assignment
	pending     chan *assignment
	nextWorker  atomic.Int64
	nextAssign  atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// ckptq feeds uploaded progress checkpoints to a single validator
	// goroutine. Validation decodes the whole space (search.Load), which
	// must never sit between a heartbeat's arrival and its response: a
	// worker's heartbeat loop is synchronous, so handler latency
	// stretches its renewal cadence and can expire a perfectly healthy
	// lease. One consumer keeps uploads ordered per assignment.
	ckptq chan ckptUpload

	// Per-worker labeled families: dispatches, completions received,
	// lease expiries, assignments lost (re-queued) and recoveries
	// (re-dispatches picked up with a checkpoint seed).
	assignVec    *telemetry.CounterVec
	completeVec  *telemetry.CounterVec
	heartbeatVec *telemetry.CounterVec
	expiryVec    *telemetry.CounterVec
	retryVec     *telemetry.CounterVec
	recoverVec   *telemetry.CounterVec
	staleVec     *telemetry.CounterVec
	workerGauge  *telemetry.GaugeVec
	inflight     *telemetry.Gauge
	fallbacks    *telemetry.Counter
}

func newDispatcher(s *Server) *dispatcher {
	d := &dispatcher{
		s:           s,
		leaseTTL:    s.cfg.DistLeaseTTL,
		pollWait:    s.cfg.DistPollWait,
		maxAttempts: s.cfg.DistMaxAttempts,
		workers:     make(map[string]*distWorker),
		assignments: make(map[string]*assignment),
		pending:     make(chan *assignment, 256),
		stop:        make(chan struct{}),
		ckptq:       make(chan ckptUpload, 256),

		assignVec:    s.reg.CounterVec("dist.assignments", "worker"),
		completeVec:  s.reg.CounterVec("dist.completions", "worker"),
		heartbeatVec: s.reg.CounterVec("dist.heartbeats", "worker"),
		expiryVec:    s.reg.CounterVec("dist.lease_expiries", "worker"),
		retryVec:     s.reg.CounterVec("dist.retries", "worker"),
		recoverVec:   s.reg.CounterVec("dist.recoveries", "worker"),
		staleVec:     s.reg.CounterVec("dist.stale_uploads", "worker"),
		workerGauge:  s.reg.GaugeVec("dist.workers", "state"),
		inflight:     s.reg.Gauge("dist.assignments_inflight"),
		fallbacks:    s.reg.Counter("dist.local_fallbacks"),
	}
	if d.leaseTTL <= 0 {
		d.leaseTTL = 10 * time.Second
	}
	if d.pollWait <= 0 {
		d.pollWait = 5 * time.Second
	}
	if d.maxAttempts <= 0 {
		d.maxAttempts = 3
	}
	// Workers outlive a coordinator restart, and a straggler's heartbeat
	// or completion for an assignment of the dead life must find no
	// assignment of that name in this one: start the ID counter at the
	// boot time rather than at zero.
	d.nextAssign.Store(time.Now().UnixNano())
	d.wg.Add(2)
	go d.sweeper()
	go d.accepter()
	return d
}

func (d *dispatcher) close() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// ckptUpload is one heartbeat-borne checkpoint waiting for validation.
// gen is the lease generation the upload arrived under; by the time
// the validator gets to it the lease may have expired and the work
// been re-dispatched, so acceptance re-checks it under the lock.
type ckptUpload struct {
	a        *assignment
	workerID string
	b64      string
	gen      int64
}

// accepter validates uploaded checkpoints off the heartbeat path.
func (d *dispatcher) accepter() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stop:
			return
		case u := <-d.ckptq:
			d.acceptCheckpoint(u)
		}
	}
}

// hbEvery is the heartbeat cadence workers are told to keep: a third
// of the lease, so two beats can be lost before the lease expires.
func (d *dispatcher) hbEvery() time.Duration { return d.leaseTTL / 3 }

// enumerate is the one way a flight reaches the fleet: lease its whole
// space as one assignment, await it, and take its result. handled=false
// means the flight should run locally: no live worker, a saturated
// dispatch queue, or attempts exhausted. Whatever the fleet got done is
// in the flight key's space file by then (the last upload, mirrored),
// so the local run resumes rather than restarts.
func (d *dispatcher) enumerate(fl *flight) (*search.Result, bool) {
	a := d.lease(fl)
	if a == nil {
		return nil, false
	}
	d.inflight.Add(1)
	defer d.inflight.Add(-1)
	d.s.logger.InfoContext(fl.ctx, "dist assignment queued",
		"assignment_id", a.id, "flight_id", fl.id, "func", fl.fn.Name)
	select {
	case <-a.done:
	case <-fl.ctx.Done():
		d.withdraw(a)
		return &search.Result{FuncName: fl.fn.Name, Aborted: true,
			AbortReason: fmt.Sprintf("canceled: %v", context.Cause(fl.ctx))}, true
	}
	// a is settled (done or failed), its fields immutable.
	d.mu.Lock()
	delete(d.assignments, a.id)
	d.mu.Unlock()
	switch {
	case a.state == stateDone && !a.aborted:
		fl.canon = a.canon // the canonical bytes handleDistComplete verified
		return a.res, true
	case a.state == stateDone:
		return &search.Result{FuncName: fl.fn.Name, Aborted: true, AbortReason: a.abortReason}, true
	default: // stateFailed
		d.fallbacks.Inc()
		d.s.logger.WarnContext(fl.ctx, "dist attempts exhausted, running locally",
			"assignment_id", a.id, "flight_id", fl.id)
		return nil, false
	}
}

// lease puts fl's assignment on the dispatch queue; nil reports that
// nothing was queued (no live worker, or the queue is saturated).
func (d *dispatcher) lease(fl *flight) *assignment {
	d.mu.Lock()
	if d.liveLocked() == 0 {
		d.mu.Unlock()
		return nil
	}
	a := &assignment{
		id:    "a" + strconv.FormatInt(d.nextAssign.Add(1), 10),
		fl:    fl,
		state: statePending,
		done:  make(chan struct{}),
	}
	d.assignments[a.id] = a
	d.mu.Unlock()
	select {
	case d.pending <- a:
		return a
	default:
		d.withdraw(a)
		return nil
	}
}

// withdraw takes a back from the fleet when its flight goes away
// (server drain) or it could not be queued: its current lessee is told
// to abandon at its next heartbeat, and late uploads and completions
// find the assignment canceled.
func (d *dispatcher) withdraw(a *assignment) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if a.state == statePending || a.state == stateAssigned {
		if w := d.workers[a.worker]; w != nil {
			w.abandon = append(w.abandon, a.id)
		}
		a.state = stateCanceled
	}
	delete(d.assignments, a.id)
}

// liveLocked counts the workers polls can be expected from.
func (d *dispatcher) liveLocked() int {
	live := 0
	for _, w := range d.workers {
		if w.state == "live" {
			live++
		}
	}
	return live
}

func (d *dispatcher) updateWorkerGaugesLocked() {
	counts := map[string]int64{"live": 0, "draining": 0, "dead": 0}
	for _, w := range d.workers {
		counts[w.state]++
	}
	for state, n := range counts {
		d.workerGauge.With(state).Set(n)
	}
}

// sweeper is the lease clock: four times per TTL it expires leases
// whose worker went silent, declares workers dead after two missed
// TTLs, and fails pending work no live worker is left to take.
func (d *dispatcher) sweeper() {
	defer d.wg.Done()
	tick := time.NewTicker(d.leaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			d.sweep(time.Now())
		}
	}
}

func (d *dispatcher) sweep(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, w := range d.workers {
		if w.state == "live" && now.Sub(w.lastSeen) > 2*d.leaseTTL {
			w.state = "dead"
			d.s.logger.Warn("dist worker declared dead", "worker_id", w.id,
				"silent_for_ms", now.Sub(w.lastSeen).Milliseconds())
		}
	}
	for _, a := range d.assignments {
		if a.state == stateAssigned && now.After(a.leaseUntil) {
			d.expiryVec.With(a.worker).Inc()
			d.s.logger.Warn("dist lease expired", "assignment_id", a.id,
				"worker_id", a.worker, "attempt", a.attempts)
			d.s.flights.add(flightRecord{Event: "lease-expire", FlightID: a.fl.id,
				AssignmentID: a.id, Worker: a.worker, Attempt: a.attempts})
			d.reassignLocked(a)
		}
	}
	if d.liveLocked() == 0 {
		// Nobody will ever poll; push pending flights to the local
		// fallback now instead of letting them wait out a request
		// deadline.
		for _, a := range d.assignments {
			if a.state == statePending {
				d.failLocked(a)
			}
		}
	}
	d.updateWorkerGaugesLocked()
}

// reassignLocked takes an assignment away from its worker and queues
// it for re-dispatch, or fails it over to the local pool once the
// attempt budget is spent. Callers hold d.mu.
func (d *dispatcher) reassignLocked(a *assignment) {
	if w := d.workers[a.worker]; w != nil {
		w.abandon = append(w.abandon, a.id)
		d.retryVec.With(a.worker).Inc()
	}
	a.worker = ""
	if a.attempts >= d.maxAttempts {
		d.failLocked(a)
		return
	}
	a.state = statePending
	select {
	case d.pending <- a:
	default:
		d.failLocked(a)
	}
}

func (d *dispatcher) failLocked(a *assignment) {
	if a.state == stateDone || a.state == stateFailed {
		return
	}
	a.state = stateFailed
	close(a.done)
}

// fleetSummary is the /v1/stats and /healthz view of the fleet.
type fleetSummary struct {
	WorkersLive         int                 `json:"workers_live"`
	WorkersDraining     int                 `json:"workers_draining"`
	WorkersDead         int                 `json:"workers_dead"`
	AssignmentsInFlight int                 `json:"assignments_in_flight"`
	Workers             []fleetWorkerStatus `json:"workers,omitempty"`
}

type fleetWorkerStatus struct {
	ID           string `json:"id"`
	State        string `json:"state"`
	LastSeenMS   int64  `json:"last_seen_ms"`
	Assignments  int    `json:"assignments"`
	AbandonQueue int    `json:"abandon_queue,omitempty"`
}

func (d *dispatcher) fleet() *fleetSummary {
	if d == nil {
		return nil
	}
	now := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.workers) == 0 && len(d.assignments) == 0 {
		return nil
	}
	fs := &fleetSummary{}
	perWorker := map[string]int{}
	for _, a := range d.assignments {
		if a.state == statePending || a.state == stateAssigned {
			fs.AssignmentsInFlight++
			if a.worker != "" {
				perWorker[a.worker]++
			}
		}
	}
	for _, w := range d.workers {
		switch w.state {
		case "live":
			fs.WorkersLive++
		case "draining":
			fs.WorkersDraining++
		default:
			fs.WorkersDead++
		}
		fs.Workers = append(fs.Workers, fleetWorkerStatus{
			ID: w.id, State: w.state,
			LastSeenMS:   now.Sub(w.lastSeen).Milliseconds(),
			Assignments:  perWorker[w.id],
			AbandonQueue: len(w.abandon),
		})
	}
	return fs
}

// --- protocol handlers -------------------------------------------------

func readDistBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(v); err != nil {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: "decoding request: " + err.Error()})
		return false
	}
	return true
}

func (s *Server) handleDistRegister(w http.ResponseWriter, r *http.Request) {
	d := s.dist
	var req distcl.RegisterRequest
	if !readDistBody(w, r, &req) {
		return
	}
	id := req.WorkerID
	if !validRequestID(id) {
		id = "w" + strconv.FormatInt(d.nextWorker.Add(1), 10)
	}
	d.mu.Lock()
	wk := d.workers[id]
	if wk == nil {
		wk = &distWorker{id: id}
		d.workers[id] = wk
	}
	wk.state = "live"
	wk.lastSeen = time.Now()
	d.updateWorkerGaugesLocked()
	d.mu.Unlock()
	s.logger.InfoContext(r.Context(), "dist worker registered", "worker_id", id, "jobs", req.Jobs)
	writeJSON(w, http.StatusOK, distcl.RegisterResponse{
		WorkerID:        id,
		LeaseTTLMillis:  d.leaseTTL.Milliseconds(),
		HeartbeatMillis: d.hbEvery().Milliseconds(),
		PollWaitMillis:  d.pollWait.Milliseconds(),
	})
}

func (s *Server) handleDistDeregister(w http.ResponseWriter, r *http.Request) {
	d := s.dist
	var req distcl.DeregisterRequest
	if !readDistBody(w, r, &req) {
		return
	}
	d.mu.Lock()
	if wk := d.workers[req.WorkerID]; wk != nil {
		delete(d.workers, req.WorkerID)
		for _, a := range d.assignments {
			if a.state == stateAssigned && a.worker == req.WorkerID {
				d.reassignLocked(a)
			}
		}
		d.updateWorkerGaugesLocked()
	}
	d.mu.Unlock()
	s.logger.InfoContext(r.Context(), "dist worker deregistered", "worker_id", req.WorkerID)
	w.WriteHeader(http.StatusNoContent)
}

// handleDistPoll long-polls for one assignment: 200 with the work, or
// 204 when pollWait elapses with nothing dispatchable.
func (s *Server) handleDistPoll(w http.ResponseWriter, r *http.Request) {
	d := s.dist
	var req distcl.PollRequest
	if !readDistBody(w, r, &req) {
		return
	}
	d.mu.Lock()
	wk := d.workers[req.WorkerID]
	if wk == nil {
		d.mu.Unlock()
		writeError(w, &httpError{status: http.StatusNotFound, msg: "unknown worker; re-register"})
		return
	}
	wk.lastSeen = time.Now()
	if wk.state != "live" {
		d.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	d.mu.Unlock()

	timer := time.NewTimer(d.pollWait)
	defer timer.Stop()
	for {
		select {
		case a := <-d.pending:
			if msg, ok := d.dispatch(a, req.WorkerID); ok {
				writeJSON(w, http.StatusOK, msg)
				return
			}
			continue // stale queue entry (canceled/failed meanwhile)
		case <-timer.C:
			w.WriteHeader(http.StatusNoContent)
			return
		case <-r.Context().Done():
			return
		case <-d.stop:
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// dispatch leases a to workerID and builds its wire message, seeded
// with the latest checkpoint some worker uploaded before losing the
// lease.
func (d *dispatcher) dispatch(a *assignment, workerID string) (*distcl.Assignment, bool) {
	d.mu.Lock()
	if a.state != statePending {
		d.mu.Unlock()
		return nil, false
	}
	a.state = stateAssigned
	a.worker = workerID
	a.attempts++
	a.leaseGen++
	a.leaseUntil = time.Now().Add(d.leaseTTL)
	attempt := a.attempts
	gen := a.leaseGen
	seed := a.ckpt
	if wk := d.workers[workerID]; wk != nil {
		// If this worker just lost the lease on a, the expiry queued a
		// stale abandon for it; a re-dispatch to the same worker must not
		// be killed by that leftover.
		for i, id := range wk.abandon {
			if id == a.id {
				wk.abandon = append(wk.abandon[:i], wk.abandon[i+1:]...)
				break
			}
		}
	}
	d.mu.Unlock()

	if seed == nil {
		// Nothing uploaded yet. An earlier life of the key (a coordinator
		// since restarted, a local request that drained) may have left a
		// checkpoint in its space file; recover from it rather than
		// re-enumerating.
		if b, err := d.s.store.readCkpt(a.fl.key); err == nil {
			seed = b
		}
	}
	no := a.fl.no
	msg := &distcl.Assignment{
		AssignmentID:        a.id,
		Key:                 string(a.fl.key),
		Func:                a.fl.fn,
		Options:             distcl.SearchOptions{Cap: no.Cap, MaxNodes: no.MaxNodes, Check: no.Check, Equiv: no.Equiv},
		SearchTimeoutMillis: d.s.cfg.SearchTimeout.Milliseconds(),
		LeaseGen:            gen,
	}
	if seed != nil {
		msg.CheckpointB64 = base64.StdEncoding.EncodeToString(seed)
		d.recoverVec.With(workerID).Inc()
	}
	d.assignVec.With(workerID).Inc()
	d.s.flights.add(flightRecord{Event: "dispatch", FlightID: a.fl.id,
		AssignmentID: a.id, Worker: workerID, Attempt: attempt})
	d.s.logger.Info("dist assignment dispatched", "assignment_id", a.id,
		"worker_id", workerID, "attempt", attempt, "resume", msg.CheckpointB64 != "")
	return msg, true
}

// handleDistHeartbeat renews the worker's leases, folds in progress
// checkpoints, and returns the assignments the worker must abandon.
func (s *Server) handleDistHeartbeat(w http.ResponseWriter, r *http.Request) {
	d := s.dist
	var req distcl.HeartbeatRequest
	if !readDistBody(w, r, &req) {
		return
	}
	now := time.Now()
	d.mu.Lock()
	wk := d.workers[req.WorkerID]
	if wk == nil {
		d.mu.Unlock()
		writeError(w, &httpError{status: http.StatusNotFound, msg: "unknown worker; re-register"})
		return
	}
	wk.lastSeen = now
	if req.Draining && wk.state == "live" {
		wk.state = "draining"
		s.logger.InfoContext(r.Context(), "dist worker draining", "worker_id", wk.id)
	}
	abandon := wk.abandon
	wk.abandon = nil
	d.updateWorkerGaugesLocked()

	var uploads []ckptUpload
	var stale int
	for _, ha := range req.Assignments {
		a := d.assignments[ha.AssignmentID]
		if a != nil && a.state == stateAssigned && a.worker == req.WorkerID &&
			ha.LeaseGen != a.leaseGen {
			// A report from an expired lease this worker once held on an
			// assignment it now holds again under a newer lease: the
			// whole entry is fenced off. Renewing from it would keep a
			// zombie lease alive, its checkpoint could regress the
			// watermark, and an abandon-by-ID would kill the *current*
			// run of the same assignment on this very worker.
			stale++
			continue
		}
		if a == nil || a.state != stateAssigned || a.worker != req.WorkerID {
			// Not this worker's to report anymore (reassigned after an
			// expiry it outlived, or already finished): tell it to stop.
			if a == nil || a.worker != req.WorkerID {
				abandon = append(abandon, ha.AssignmentID)
			}
			continue
		}
		a.leaseUntil = now.Add(d.leaseTTL)
		if ha.CheckpointB64 != "" {
			uploads = append(uploads, ckptUpload{a, req.WorkerID, ha.CheckpointB64, ha.LeaseGen})
		}
	}
	drainReassign := req.Draining
	d.mu.Unlock()

	d.heartbeatVec.With(req.WorkerID).Inc()
	if stale > 0 {
		d.staleVec.With(req.WorkerID).Add(int64(stale))
	}
	for _, u := range uploads {
		if drainReassign {
			// Final checkpoints from a draining worker must land before
			// the reassign below re-dispatches with a seed.
			d.acceptCheckpoint(u)
			continue
		}
		select {
		case d.ckptq <- u:
		default:
			d.acceptCheckpoint(u)
		}
	}
	if drainReassign {
		// The worker has stopped executing; its final checkpoints are
		// in. Put its leases back on the queue immediately instead of
		// waiting out the TTL.
		d.mu.Lock()
		for _, a := range d.assignments {
			if a.state == stateAssigned && a.worker == req.WorkerID {
				d.reassignLocked(a)
			}
		}
		d.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, distcl.HeartbeatResponse{Abandon: abandon})
}

// acceptCheckpoint validates one uploaded checkpoint — decodable, an
// enumeration of the flight's function in its tier, never shrinking —
// and makes it the assignment's recovery point, mirrored into the
// flight key's space file, unsealed, so a local fallback or the next
// coordinator life resumes from it too. Invalid uploads are dropped:
// the previous good checkpoint stands, and a torn httpdrop upload can
// never poison recovery. gen is the lease generation the upload was
// reported under; anything but the assignment's current generation is
// a fenced-off straggler — the state/worker re-check alone cannot catch
// a queued upload that outlived an expiry and a re-dispatch to the same
// worker.
func (d *dispatcher) acceptCheckpoint(u ckptUpload) {
	a, workerID, gen := u.a, u.workerID, u.gen
	b, err := base64.StdEncoding.DecodeString(u.b64)
	if err != nil {
		d.s.logger.Warn("dist checkpoint undecodable", "assignment_id", a.id,
			"worker_id", workerID, "err", err.Error())
		return
	}
	res, err := search.Load(bytes.NewReader(b))
	if err != nil {
		d.s.logger.Warn("dist checkpoint unloadable", "assignment_id", a.id,
			"worker_id", workerID, "err", err.Error())
		return
	}
	ours := res.Enumerates(a.fl.fn, a.fl.no.Equiv)
	d.mu.Lock()
	defer d.mu.Unlock()
	if a.state != stateAssigned || a.worker != workerID {
		return
	}
	if gen != a.leaseGen {
		d.staleVec.With(workerID).Inc()
		d.s.logger.Warn("dist checkpoint from stale lease dropped", "assignment_id", a.id,
			"worker_id", workerID, "upload_gen", gen, "lease_gen", a.leaseGen)
		return
	}
	if !ours || len(res.Nodes) < a.ckptNodes {
		d.s.logger.Warn("dist checkpoint rejected", "assignment_id", a.id,
			"worker_id", workerID, "func", res.FuncName, "nodes", len(res.Nodes),
			"watermark", a.ckptNodes)
		return
	}
	a.ckpt = b
	a.ckptNodes = len(res.Nodes)
	if err := d.s.store.writeCkpt(a.fl.key, b); err != nil {
		d.s.logger.Warn("dist checkpoint not mirrored to disk", "assignment_id", a.id,
			"err", err.Error())
	}
	d.s.logger.Info("dist checkpoint accepted", "assignment_id", a.id,
		"worker_id", workerID, "nodes", a.ckptNodes)
}

// handleDistComplete accepts a finished assignment. Completion is
// idempotent by content hash: re-delivery of the same space is
// acknowledged as a duplicate; a different hash for the same finished
// assignment is a conflict. A finished space under an assignment ID
// this life never issued — a lessee that outlived a dead coordinator
// life — settles the live assignment of its key, if the key is being
// enumerated again; the checks below hold it to that flight as they
// would its own lessee's.
func (s *Server) handleDistComplete(w http.ResponseWriter, r *http.Request) {
	d := s.dist
	var req distcl.CompleteRequest
	if !readDistBody(w, r, &req) {
		return
	}
	d.mu.Lock()
	a := d.assignments[req.AssignmentID]
	if a == nil && !req.Aborted {
		a = d.liveForKeyLocked(req.Key)
	}
	if wk := d.workers[req.WorkerID]; wk != nil {
		wk.lastSeen = time.Now()
	}
	d.mu.Unlock()
	if a == nil {
		writeError(w, &httpError{status: http.StatusNotFound, msg: "unknown assignment"})
		return
	}

	var res *search.Result
	var canon []byte
	if !req.Aborted {
		// Decode and verify outside the lock: the space must be complete,
		// an enumeration of the flight's function in its tier, and named
		// by a hash the coordinator took itself (the idempotency key).
		// The space is what gets stored, so what Save writes of it — its
		// canonical bytes — must hash to the claim; those bytes are what
		// publish puts. LoadCanonical proves a canonical upload so in one
		// overlapped pass, and it is stored as it arrived; anything else
		// falls back to Load and then Save.
		b, err := base64.StdEncoding.DecodeString(req.SpaceB64)
		if err != nil {
			writeError(w, &httpError{status: http.StatusBadRequest, msg: "undecodable space payload"})
			return
		}
		res, canon, err = search.LoadCanonical(b)
		if res == nil {
			writeError(w, &httpError{status: http.StatusBadRequest, msg: "unloadable space: " + err.Error()})
			return
		}
		if res.Checkpoint != nil || res.Aborted {
			writeError(w, &httpError{status: http.StatusBadRequest, msg: "space is not complete"})
			return
		}
		if !res.Enumerates(a.fl.fn, a.fl.no.Equiv) {
			writeError(w, &httpError{status: http.StatusBadRequest,
				msg: fmt.Sprintf("space is not an enumeration of the assignment's %q (equiv=%v)", a.fl.fn.Name, a.fl.no.Equiv)})
			return
		}
		if err != nil {
			writeError(w, &httpError{status: http.StatusBadRequest, msg: "unhashable space: " + err.Error()})
			return
		}
		if got := hexSum(canon); got != req.SpaceHash {
			writeError(w, &httpError{status: http.StatusBadRequest,
				msg: fmt.Sprintf("space hash mismatch: body %s, claimed %s", got, req.SpaceHash)})
			return
		}
	}
	d.mu.Lock()
	status, herr := d.settleLocked(a, res, canon, req.SpaceHash, req.Aborted, req.AbortReason)
	d.mu.Unlock()
	if herr != nil {
		writeError(w, herr)
		return
	}
	if status == "accepted" {
		d.completeVec.With(req.WorkerID).Inc()
		if req.Aborted {
			s.logger.InfoContext(r.Context(), "dist assignment aborted by worker",
				"assignment_id", a.id, "worker_id", req.WorkerID, "reason", req.AbortReason)
		} else {
			d.s.flights.add(flightRecord{Event: "complete", FlightID: a.fl.id,
				AssignmentID: a.id, Worker: req.WorkerID})
			s.logger.InfoContext(r.Context(), "dist assignment completed",
				"assignment_id", a.id, "worker_id", req.WorkerID, "space_hash", req.SpaceHash,
				"nodes", len(res.Nodes))
		}
	}
	writeJSON(w, http.StatusOK, distcl.CompleteResponse{Status: status})
}

// liveForKeyLocked returns the live (pending or leased) assignment of
// key's flight, or nil. Callers hold d.mu.
func (d *dispatcher) liveForKeyLocked(key string) *assignment {
	for _, a := range d.assignments {
		if string(a.fl.key) == key && (a.state == statePending || a.state == stateAssigned) {
			return a
		}
	}
	return nil
}

// settleLocked is the one completion transition: it decides, from a's
// state alone, what a worker's verified result (a complete space with
// its hash and canonical bytes, or a worker-side abort with its reason)
// does to a. A live
// assignment (pending or leased) takes it and closes done — "accepted";
// a finished one acknowledges the same result again as "duplicate" and
// refuses a different one; a failed or canceled one no longer wants
// any. Callers hold d.mu.
func (d *dispatcher) settleLocked(a *assignment, res *search.Result, canon []byte, hash string, aborted bool, reason string) (string, *httpError) {
	switch a.state {
	case stateDone:
		if a.aborted != aborted || a.hash != hash {
			return "", &httpError{status: http.StatusConflict,
				msg: "assignment already completed with a different result"}
		}
		return "duplicate", nil
	case stateFailed, stateCanceled:
		return "", &httpError{status: http.StatusNotFound, msg: "assignment no longer wanted"}
	}
	a.res, a.canon, a.hash = res, canon, hash
	a.aborted, a.abortReason = aborted, reason
	a.state = stateDone
	close(a.done)
	return "accepted", nil
}
