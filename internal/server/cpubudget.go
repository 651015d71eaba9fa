package server

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// cpuBudget is the shared CPU-token pool the enumeration flights draw
// their search parallelism from. Before PR 9 every flight ran its
// search with Workers = NumCPU while the pool ran several flights
// concurrently, so N flights × M workers oversubscribed GOMAXPROCS by
// N×; now a flight acquires tokens before enumerating and the total
// in use never exceeds the budget. A token is a runnable goroutine: a
// search at Workers = W keeps W of them busy, the flight's own
// included, since the goroutine that calls the engine evaluates and
// commits rather than waiting on a committer beside the workers.
//
// Acquisition is elastic rather than all-or-nothing: a flight asks for
// its preferred width and is granted whatever share (≥ 1 token) is
// free, blocking only when the pool is fully drawn down. That keeps a
// lone flight at full width, degrades gracefully to width-sharing
// under concurrency, and cannot deadlock the flight pool — every
// release wakes the waiters, and a canceled flight stops waiting and
// runs single-width (Workers = 1 costs no token: the flight's own
// pool goroutine is the one doing the work).
type cpuBudget struct {
	mu    sync.Mutex
	cond  *sync.Cond
	total int
	inUse int

	// waiting counts flights blocked in acquire; surfaced through the
	// gauge so /v1/stats shows queue pressure on the CPU pool itself,
	// not just on the flight queue.
	waiting int

	gInUse   *telemetry.Gauge
	gWaiting *telemetry.Gauge
	hWait    *telemetry.Histogram
}

// newCPUBudget sizes the pool. total ≤ 0 defaults to GOMAXPROCS — the
// actual parallelism ceiling of the process, which is what
// oversubscription is measured against.
func newCPUBudget(total int, reg *telemetry.Registry) *cpuBudget {
	if total <= 0 {
		total = runtime.GOMAXPROCS(0)
	}
	b := &cpuBudget{
		total:    total,
		gInUse:   reg.Gauge("server.cpu.inuse"),
		gWaiting: reg.Gauge("server.cpu.waiting"),
		hWait:    reg.Histogram("server.cpu.wait_ns"),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// acquire blocks until at least one token is free (or ctx is done) and
// takes min(want, free) tokens. It returns the grant and how long the
// caller waited; a zero grant means ctx canceled the wait and the
// caller should proceed single-width without a later release.
func (b *cpuBudget) acquire(ctx context.Context, want int) (got int, waited time.Duration) {
	if want <= 0 || want > b.total {
		want = b.total
	}
	start := time.Now()
	// Wake every waiter when the context dies so a canceled flight
	// does not sleep on the cond forever; AfterFunc costs nothing when
	// the context is never canceled.
	var stop func() bool
	if ctx != nil {
		stop = context.AfterFunc(ctx, func() {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		})
		defer stop()
	}
	b.mu.Lock()
	for b.inUse >= b.total {
		if ctx != nil && ctx.Err() != nil {
			b.mu.Unlock()
			return 0, time.Since(start)
		}
		b.waiting++
		b.gWaiting.Set(int64(b.waiting))
		b.cond.Wait()
		b.waiting--
		b.gWaiting.Set(int64(b.waiting))
	}
	got = b.total - b.inUse
	if got > want {
		got = want
	}
	b.inUse += got
	b.gInUse.Set(int64(b.inUse))
	b.mu.Unlock()
	waited = time.Since(start)
	b.hWait.Observe(int64(waited))
	return got, waited
}

// release returns a grant to the pool.
func (b *cpuBudget) release(got int) {
	if got <= 0 {
		return
	}
	b.mu.Lock()
	b.inUse -= got
	if b.inUse < 0 {
		panic("server: cpuBudget released more than acquired")
	}
	b.gInUse.Set(int64(b.inUse))
	b.mu.Unlock()
	b.cond.Broadcast()
}
