package server

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rtl"
	"repro/internal/telemetry"
)

// Pool errors, mapped to HTTP statuses by the handlers.
var (
	// errQueueFull sheds a request the bounded queue cannot absorb
	// (429 Too Many Requests + Retry-After).
	errQueueFull = errors.New("server: enumeration queue is full")
	// errDraining rejects work arriving after shutdown began (503).
	errDraining = errors.New("server: draining")
)

// flight is one in-progress resolution of a cache key — the unit of
// request coalescing. Every concurrent request for the same key joins
// the same flight, so the key is enumerated at most once no matter how
// many clients ask for it at the same moment.
type flight struct {
	key cacheKey
	fn  *rtl.Func
	no  normOptions

	// id names the flight in logs and the flight recorder ("f1", "f2",
	// …); leaderReq is the request ID that created it, so a coalesced
	// follower can report whose flight it rode.
	id        string
	leaderReq string

	// enqueuedAt is stamped on creation; startedAt when a worker picks
	// the flight up (their difference is the queue wait); finishedAt
	// just before done closes. Waiters read startedAt/finishedAt only
	// after done is closed.
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time

	// ctx cancels the flight's enumeration. It is derived from the
	// pool's base context and cancels only on server drain — never
	// because a waiter went away. The enumeration's lifetime belongs
	// to the flight, not to any request: a leader that disconnects
	// must not cancel the work a follower is (or will be) waiting on,
	// and a fully abandoned flight still runs to completion and lands
	// in the cache, where the inevitable retry finds it.
	ctx    context.Context
	cancel context.CancelCauseFunc

	// done closes when the flight has resolved; ent/cacheHow/err are
	// immutable afterwards.
	done     chan struct{}
	ent      entry
	cacheHow string // "mem", "disk" or "miss" — how the worker resolved it
	err      error
	status   int // HTTP status for err
	// publish is how long a miss took to hash and store its space.
	publish time.Duration

	// canon is a miss's canonical bytes where the path that produced it
	// (a fleet completion) already holds them, having verified the
	// worker's claim against them; the worker goroutine's own note, not
	// for waiters.
	canon []byte

	waiters int // guarded by pool.mu
}

// pool runs flights through a fixed set of workers fed by a bounded
// queue. Backpressure is explicit: when the queue is full, join sheds
// instead of blocking, so a burst degrades into fast 429s rather than
// unbounded memory growth and collapsing latency.
type pool struct {
	run func(*flight) // the server's runFlight

	mu       sync.Mutex
	flights  map[cacheKey]*flight
	queue    chan *flight
	draining bool

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc
	wg         sync.WaitGroup
	depthGauge func(int64)
	nextID     atomic.Int64
	workers    int
}

func newPool(workers, depth int, run func(*flight), depthGauge func(int64)) *pool {
	if workers <= 0 {
		workers = 2
	}
	if depth <= 0 {
		depth = 16
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	p := &pool{
		run:        run,
		flights:    make(map[cacheKey]*flight),
		queue:      make(chan *flight, depth),
		baseCtx:    ctx,
		baseCancel: cancel,
		depthGauge: depthGauge,
		workers:    workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for fl := range p.queue {
		p.depthGauge(int64(len(p.queue)))
		fl.startedAt = time.Now()
		p.run(fl)
	}
}

// join attaches the caller to the flight for key, creating and
// enqueueing one if none is in progress. It reports whether the caller
// coalesced onto an existing flight. reqID is the caller's request ID;
// when a new flight is created it becomes the flight's leader and the
// flight's context carries both IDs for the search engine's logs. The
// caller must balance every successful join with leave.
func (p *pool) join(key cacheKey, fn *rtl.Func, no normOptions, reqID string) (fl *flight, coalesced bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return nil, false, errDraining
	}
	if fl, ok := p.flights[key]; ok {
		fl.waiters++
		return fl, true, nil
	}
	fl = &flight{
		key:        key,
		fn:         fn,
		no:         no,
		id:         "f" + strconv.FormatInt(p.nextID.Add(1), 10),
		leaderReq:  reqID,
		enqueuedAt: time.Now(),
		done:       make(chan struct{}),
		waiters:    1,
	}
	fl.ctx, fl.cancel = context.WithCancelCause(p.baseCtx)
	fl.ctx = telemetry.WithFlightID(fl.ctx, fl.id)
	if reqID != "" {
		fl.ctx = telemetry.WithRequestID(fl.ctx, reqID)
	}
	select {
	case p.queue <- fl:
	default:
		fl.cancel(errQueueFull)
		return nil, false, errQueueFull
	}
	p.flights[key] = fl
	p.depthGauge(int64(len(p.queue)))
	return fl, false, nil
}

// leave detaches one waiter. The flight keeps running even when its
// last waiter leaves: canceling it would let a coalescing race leak
// the cancellation to a follower that joins between the leader's
// departure and the flight's retirement, and the finished space is
// about to be cached anyway — the retry that follows an abandoned
// request is exactly the request that profits from it.
func (p *pool) leave(fl *flight) {
	p.mu.Lock()
	fl.waiters--
	p.mu.Unlock()
}

// finish publishes the flight's resolution and retires it. The caller
// (runFlight) must have cached any produced result before this, so a
// later request either joins this flight or sees the cache — never a
// window where it would re-enumerate a key that just resolved.
func (p *pool) finish(fl *flight) {
	p.mu.Lock()
	delete(p.flights, fl.key)
	p.mu.Unlock()
	fl.finishedAt = time.Now()
	fl.cancel(nil)
	close(fl.done)
}

// queued reports the number of flights waiting for a worker.
func (p *pool) queued() int { return len(p.queue) }

// isDraining reports whether close has begun.
func (p *pool) isDraining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// flightCount reports the number of unresolved flights.
func (p *pool) flightCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.flights)
}

// close drains the pool: new joins are refused, queued and running
// flights are canceled (running searches checkpoint at the next
// attempt boundary), and close returns when every worker has retired.
func (p *pool) close() {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.draining = true
	close(p.queue)
	p.mu.Unlock()
	p.baseCancel(errDraining)
	p.wg.Wait()
}
