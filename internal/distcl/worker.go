package distcl

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Client talks to the coordinator (required).
	Client *Client
	// ID is the preferred worker identity; empty lets the coordinator
	// mint one.
	ID string
	// ScratchDir holds the worker's checkpoint files (required); one
	// file per in-flight assignment, removed when the assignment ends.
	ScratchDir string
	// Jobs is how many assignments run concurrently (default 1).
	Jobs int
	// SearchWorkers sets per-search parallelism (default NumCPU).
	SearchWorkers int
	// DrainTimeout bounds the shutdown sequence — final checkpoint
	// upload plus deregister (default 30s).
	DrainTimeout time.Duration
	// Faults injects deterministic failures into both the searches
	// (phase faults) and the worker's own lifecycle (workerdie); the
	// network directives live on the Client's plan. Nil injects
	// nothing.
	Faults *faultinject.Plan
	// Logger receives the worker's structured lifecycle events; nil
	// logs nothing.
	Logger *slog.Logger
	// Exit replaces os.Exit for the injected workerdie fault (tests).
	Exit func(code int)
}

// Worker is the pull-based execution agent of the distribution plane:
// it registers with the coordinator, long-polls for assignments, runs
// each as a checkpointing search, uploads progress with every
// heartbeat, and delivers finished spaces keyed by their canonical
// hash. On context cancellation it drains: in-flight searches stop at
// the next level boundary, their final checkpoints are uploaded, and
// the worker deregisters — nothing enumerated is lost.
type Worker struct {
	cfg    WorkerConfig
	client *Client
	logger *slog.Logger
	exit   func(int)

	id       string
	hbEvery  time.Duration
	pollWait time.Duration

	mu      sync.Mutex
	active  map[string]*run
	drained []HeartbeatAssignment // final checkpoints awaiting the drain heartbeat
}

// run is one in-flight assignment.
type run struct {
	a        *Assignment
	cancel   context.CancelCauseFunc
	ckptPath string

	mu sync.Mutex
	// uploadedCk is the SHA-256 of the last checkpoint the coordinator
	// has: the last one successfully uploaded, or the seed it sent.
	uploadedCk [sha256.Size]byte
	abandoned  bool
}

// errAbandoned cancels a run the coordinator told us to drop.
var errAbandoned = errors.New("distcl: assignment abandoned by coordinator")

// NewWorker creates a Worker; Run starts it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Client == nil {
		return nil, errors.New("distcl: WorkerConfig.Client is required")
	}
	if cfg.ScratchDir == "" {
		return nil, errors.New("distcl: WorkerConfig.ScratchDir is required")
	}
	if err := os.MkdirAll(cfg.ScratchDir, 0o755); err != nil {
		return nil, fmt.Errorf("distcl: scratch dir: %w", err)
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	logger := cfg.Logger
	if logger == nil {
		logger = telemetry.NopLogger()
	}
	exit := cfg.Exit
	if exit == nil {
		exit = os.Exit
	}
	return &Worker{
		cfg:    cfg,
		client: cfg.Client,
		logger: logger,
		exit:   exit,
		active: make(map[string]*run),
	}, nil
}

// Run registers, serves assignments until ctx is canceled, then drains
// and deregisters. It returns nil on a clean drain; a register that
// never succeeds returns the last error.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	w.logger.Info("worker registered", "worker_id", w.id,
		"heartbeat", w.hbEvery, "poll_wait", w.pollWait)

	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(ctx)
	}()

	var wg sync.WaitGroup
	sem := make(chan struct{}, w.cfg.Jobs)
poll:
	for {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break poll
		}
		a, err := w.poll(ctx)
		if err != nil {
			<-sem
			if ctx.Err() != nil {
				break poll
			}
			w.logger.Warn("poll failed", "err", err.Error())
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
				break poll
			}
			continue
		}
		if a == nil {
			<-sem
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			w.execute(ctx, a)
		}()
	}

	// Drain: the canceled ctx has already reached every search; they
	// abort at the next level boundary and write final checkpoints.
	wg.Wait()
	<-hbDone
	dctx, cancel := context.WithTimeout(context.Background(), w.cfg.DrainTimeout)
	defer cancel()
	w.heartbeat(dctx, true)
	if _, err := w.client.Call(dctx, PathDeregister, &DeregisterRequest{WorkerID: w.id}, nil); err != nil {
		w.logger.Warn("deregister failed", "err", err.Error())
	}
	w.logger.Info("worker drained", "worker_id", w.id)
	return nil
}

// register announces the worker, retrying (beyond the client's own
// retries) until the coordinator answers or ctx ends — a worker may
// start before its coordinator.
func (w *Worker) register(ctx context.Context) error {
	req := RegisterRequest{WorkerID: w.cfg.ID, Jobs: w.cfg.Jobs}
	if w.id != "" {
		req.WorkerID = w.id // re-registration keeps the identity stable
	}
	var lastErr error
	for {
		var resp RegisterResponse
		_, err := w.client.Call(ctx, PathRegister, &req, &resp)
		if err == nil {
			w.id = resp.WorkerID
			w.hbEvery = time.Duration(resp.HeartbeatMillis) * time.Millisecond
			w.pollWait = time.Duration(resp.PollWaitMillis) * time.Millisecond
			if w.hbEvery <= 0 {
				w.hbEvery = time.Second
			}
			if w.pollWait <= 0 {
				w.pollWait = 10 * time.Second
			}
			return nil
		}
		lastErr = err
		w.logger.Warn("register failed, will retry", "err", err.Error())
		select {
		case <-time.After(2 * time.Second):
		case <-ctx.Done():
			return fmt.Errorf("distcl: register: %w (last: %v)", ctx.Err(), lastErr)
		}
	}
}

// poll asks for one assignment; nil, nil means the long poll came back
// empty. An unknown-worker answer re-registers (coordinator restarted)
// and reports empty so the loop simply polls again.
func (w *Worker) poll(ctx context.Context) (*Assignment, error) {
	pctx, cancel := context.WithTimeout(ctx, w.pollWait+w.client.cfg.Timeout)
	defer cancel()
	var a Assignment
	status, err := w.client.Call(pctx, PathPoll, &PollRequest{WorkerID: w.id}, &a)
	if err != nil {
		if w.lostIdentity(err) {
			return nil, w.register(ctx)
		}
		return nil, err
	}
	if status == http.StatusNoContent || a.AssignmentID == "" {
		return nil, nil
	}
	return &a, nil
}

// lostIdentity reports a 404 from the coordinator — it does not know
// this worker anymore, typically after a restart.
func (w *Worker) lostIdentity(err error) bool {
	se := &StatusError{}
	return errors.As(err, &se) && se.Status == http.StatusNotFound
}

// heartbeatLoop renews leases every hbEvery until ctx ends. Each beat
// is also the workerdie fault's injection point: a budgeted plan kills
// the process here, mid-lease, with no drain — the crash the lease
// machinery exists to survive.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(w.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if w.cfg.Faults.WorkerDieFault() {
				w.logger.Error("injected workerdie fault: exiting without drain", "worker_id", w.id)
				w.exit(1)
				return
			}
			w.heartbeat(ctx, false)
		}
	}
}

// heartbeat sends one lease renewal carrying the latest checkpoint of
// every in-flight assignment whose file changed since its last
// successful upload, plus (when draining) the final checkpoints of
// already-stopped runs, and acts on the coordinator's abandon list.
func (w *Worker) heartbeat(ctx context.Context, draining bool) {
	req := HeartbeatRequest{WorkerID: w.id, Draining: draining}
	type pendingUpload struct {
		ru  *run
		sum [sha256.Size]byte
	}
	var uploads []pendingUpload
	w.mu.Lock()
	for _, ru := range w.active {
		ha := HeartbeatAssignment{AssignmentID: ru.a.AssignmentID, LeaseGen: ru.a.LeaseGen}
		if b, sum := ru.changedCheckpoint(); b != nil {
			ha.CheckpointB64 = base64.StdEncoding.EncodeToString(b)
			uploads = append(uploads, pendingUpload{ru, sum})
		}
		req.Assignments = append(req.Assignments, ha)
	}
	if draining {
		req.Assignments = append(req.Assignments, w.drained...)
		w.drained = nil
	}
	w.mu.Unlock()

	var resp HeartbeatResponse
	if _, err := w.client.Call(ctx, PathHeartbeat, &req, &resp); err != nil {
		w.logger.Warn("heartbeat failed", "err", err.Error())
		if w.lostIdentity(err) && !draining {
			if rerr := w.register(ctx); rerr != nil {
				w.logger.Warn("re-register failed", "err", rerr.Error())
			}
		}
		return
	}
	// Only a delivered heartbeat advances the upload watermark; a lost
	// one re-uploads the same checkpoint next beat.
	for _, u := range uploads {
		u.ru.mu.Lock()
		u.ru.uploadedCk = u.sum
		u.ru.mu.Unlock()
	}
	for _, id := range resp.Abandon {
		w.mu.Lock()
		ru := w.active[id]
		w.mu.Unlock()
		if ru != nil {
			w.logger.Info("abandoning assignment", "assignment_id", id)
			ru.mu.Lock()
			ru.abandoned = true
			ru.mu.Unlock()
			ru.cancel(errAbandoned)
		}
	}
}

// changedCheckpoint reads the run's checkpoint file and returns its
// bytes and content hash when it differs from what the coordinator has
// (uploadedCk); nil when unchanged or missing. The seed and the search
// both rename the file into place, so a readable file is always a
// complete document.
func (ru *run) changedCheckpoint() ([]byte, [sha256.Size]byte) {
	b, err := os.ReadFile(ru.ckptPath)
	sum := sha256.Sum256(b)
	ru.mu.Lock()
	defer ru.mu.Unlock()
	if err != nil || len(b) == 0 || sum == ru.uploadedCk {
		return nil, sum
	}
	return b, sum
}

// execute runs one assignment to completion, cancellation, or abort.
func (w *Worker) execute(ctx context.Context, a *Assignment) {
	logger := w.logger.With("assignment_id", a.AssignmentID, "key", a.Key, "func", a.Func.Name)
	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	// The scratch file is scoped to the lease generation: a re-dispatch
	// of an assignment this worker still runs must not share (or, on
	// cleanup, delete) the superseded run's checkpoint file.
	ru := &run{a: a, cancel: cancel,
		ckptPath: filepath.Join(w.cfg.ScratchDir,
			fmt.Sprintf("%s.g%d.ckpt.space.gz", a.AssignmentID, a.LeaseGen))}
	opts := search.Options{
		MaxSeqPerLevel: a.Options.Cap,
		MaxNodes:       a.Options.MaxNodes,
		Check:          a.Options.Check,
		Equiv:          a.Options.Equiv,
		Timeout:        time.Duration(a.SearchTimeoutMillis) * time.Millisecond,
		Ctx:            rctx,
		Workers:        w.cfg.SearchWorkers,
		Logger:         logger,
		Faults:         w.cfg.Faults,
		CheckpointPath: ru.ckptPath,
	}
	// Seeded before the heartbeat loop can see the run: a beat must
	// never read the scratch file half-written.
	ru.seed(logger)
	w.mu.Lock()
	old := w.active[a.AssignmentID]
	w.active[a.AssignmentID] = ru
	w.mu.Unlock()
	if old != nil {
		// The coordinator expired our lease on this assignment and then
		// handed it back: the old run's lease is gone, so its uploads
		// are fenced off anyway — stop burning CPU on it.
		logger.Info("superseding stale run of re-dispatched assignment")
		old.mu.Lock()
		old.abandoned = true
		old.mu.Unlock()
		old.cancel(errAbandoned)
	}
	defer func() {
		w.mu.Lock()
		if w.active[a.AssignmentID] == ru {
			delete(w.active, a.AssignmentID)
		}
		w.mu.Unlock()
	}()
	logger.Info("assignment started", "resume", a.CheckpointB64 != "")

	res, err := search.Enumerate(a.Func, opts, nil)
	if err != nil {
		// The seed is some other function's space: nothing this worker
		// can do with it. The lease expires and the coordinator decides.
		logger.Error("assignment not runnable", "err", err.Error())
		os.Remove(ru.ckptPath) //nolint:errcheck // best-effort scratch cleanup
		return
	}

	if res.Aborted && strings.HasPrefix(res.AbortReason, "canceled") {
		ru.mu.Lock()
		abandoned := ru.abandoned
		ru.mu.Unlock()
		if abandoned {
			os.Remove(ru.ckptPath) //nolint:errcheck // best-effort scratch cleanup
			logger.Info("assignment abandoned, checkpoint discarded")
			return
		}
		// Drain: the search's abort path wrote a final checkpoint;
		// queue it for the drain heartbeat so the coordinator can
		// re-dispatch from exactly where we stopped.
		ha := HeartbeatAssignment{AssignmentID: a.AssignmentID, LeaseGen: a.LeaseGen}
		if b, _ := ru.changedCheckpoint(); b != nil {
			ha.CheckpointB64 = base64.StdEncoding.EncodeToString(b)
		}
		w.mu.Lock()
		w.drained = append(w.drained, ha)
		w.mu.Unlock()
		logger.Info("assignment checkpointed for drain", "nodes", len(res.Nodes))
		return
	}

	req := CompleteRequest{WorkerID: w.id, AssignmentID: a.AssignmentID, Key: a.Key}
	if res.Aborted {
		req.Aborted, req.AbortReason = true, res.AbortReason
	} else {
		b, hash, err := finishedSpace(res)
		if err != nil {
			logger.Error("serializing finished space", "err", err.Error())
			return
		}
		req.SpaceB64 = base64.StdEncoding.EncodeToString(b)
		req.SpaceHash = hash
	}
	// Completion must outlive a drain signal that lands after the
	// search already finished: the result exists, deliver it.
	cctx, ccancel := context.WithTimeout(context.WithoutCancel(ctx), w.cfg.DrainTimeout)
	defer ccancel()
	var cresp CompleteResponse
	if _, err := w.client.Call(cctx, PathComplete, &req, &cresp); err != nil {
		// The lease will expire and the work be re-dispatched; the
		// scratch checkpoint stays for nothing, so drop it.
		logger.Warn("complete failed, lease will recover", "err", err.Error())
		os.Remove(ru.ckptPath) //nolint:errcheck // best-effort scratch cleanup
		return
	}
	os.Remove(ru.ckptPath) //nolint:errcheck // best-effort scratch cleanup
	logger.Info("assignment completed",
		"aborted", req.Aborted, "space_hash", req.SpaceHash, "status", cresp.Status)
}

// finishedSpace is what a completion uploads: the space's bytes and the
// hash they go under, always the SHA-256 of those very bytes. The
// search's final write, in either tier, left both — the scratch file
// and Result.SpaceHash — so nothing is rendered again. Any other finished
// space (a failed last write, a finished space the slot already held,
// which an older build may have written with its timing) is rendered
// here, once, canonically, and those bytes are hashed.
func finishedSpace(res *search.Result) (b []byte, hash string, err error) {
	if res.SpaceHash != "" {
		b, err = os.ReadFile(res.SpacePath)
		return b, res.SpaceHash, err
	}
	b, err = res.CanonicalBytes()
	sum := sha256.Sum256(b)
	return b, hex.EncodeToString(sum[:]), err
}

// seed puts the assignment's starting document (a frontier part, or the
// last checkpoint uploaded for this work before a re-dispatch) in the
// scratch slot, where search.Enumerate picks it up, and sets the upload
// watermark to it: it is the coordinator's own document, and a
// heartbeat echoing it back would pass for progress. A seed that cannot
// be written leaves the slot empty — a bad seed costs time, never
// correctness. Call before the run is published to the heartbeat loop.
func (ru *run) seed(logger *slog.Logger) {
	if ru.a.CheckpointB64 == "" {
		return
	}
	b, err := base64.StdEncoding.DecodeString(ru.a.CheckpointB64)
	if err == nil {
		write := func(w io.Writer) error { _, err := w.Write(b); return err }
		err = search.WriteFile(ru.ckptPath, write, false)
	}
	if err != nil {
		logger.Warn("cannot seed scratch checkpoint, starting fresh", "err", err.Error())
		return
	}
	ru.uploadedCk = sha256.Sum256(b)
}
