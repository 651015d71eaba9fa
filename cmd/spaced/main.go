// Command spaced serves exhaustive phase order enumeration over HTTP:
// POST a function (mini-C source or a MiBench corpus name) and search
// options to /v1/enumerate and it answers with the space summary,
// enumerating at most once per distinct (function, options) pair — a
// two-level content-addressed cache (in-memory LRU over a directory of
// space documents) serves repeats, and identical concurrent requests
// coalesce onto one enumeration.
//
//	spaced -addr localhost:8080 -cache ./spacecache -log json
//	curl -s localhost:8080/v1/enumerate -d '{"bench":"sha","func":"rotl"}'
//	curl -s localhost:8080/v1/space/<key> -o rotl.space.gz
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/debug/flights
//
// Every response carries an X-Request-ID (client-supplied or minted)
// that also tags the access-log line and any flight logs the request
// caused; /metrics serves the registry in the OpenMetrics text format
// and /v1/debug/flights replays the last -flights enumerate requests
// with queue-wait/enumerate/serialize timing splits.
//
// Served space files are cmd/explore -save output for the same function
// and options with the wall-clock fields zeroed: sha256sum of one is its
// space_hash, which is what spacedot -hash prints for either.
// Requests beyond the worker pool queue are shed with 429 +
// Retry-After. SIGTERM/SIGINT drain: new requests get 503, in-flight
// enumerations are canceled and checkpoint their partial spaces into
// the cache directory, and the next request of the same key resumes
// from the checkpoint instead of starting over.
//
// With -worker -join <url> the same binary runs as a member of a
// coordinator's fleet instead of serving HTTP: it registers, long-polls
// /v1/dist/* for assignments, heartbeats its leases with progress
// checkpoints, and uploads finished spaces keyed by canonical hash.
// A coordinator is just a normal spaced with workers joined — requests
// that miss the cache are dispatched to the fleet and fall back to
// local enumeration when no worker is live.
//
//	spaced -addr localhost:8080 -cache ./coordcache        # terminal 1
//	spaced -worker -join http://localhost:8080 -scratch w1 # terminal 2
//	spaced -worker -join http://localhost:8080 -scratch w2 # terminal 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/distcl"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run())
}

// fleetSearchWorkers resolves a fleet worker's per-search parallelism.
// An explicit -search-workers wins; otherwise the CPU count is split
// across the concurrent assignments (-jobs) so a worker process never
// oversubscribes itself the way jobs × NumCPU used to.
func fleetSearchWorkers(explicit, cpus, jobs int) int {
	if explicit > 0 {
		return explicit
	}
	if jobs < 1 {
		jobs = 1
	}
	w := cpus / jobs
	if w < 1 {
		w = 1
	}
	return w
}

func run() int {
	fs := flag.NewFlagSet("spaced", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address (host:0 picks a free port; see -ready-file)")
	cacheDir := fs.String("cache", "spacecache", "space cache directory")
	workers := fs.Int("workers", runtime.NumCPU(), "enumeration pool size")
	searchWorkers := fs.Int("search-workers", 0, "per-enumeration search parallelism cap; flights share a GOMAXPROCS CPU-token budget either way (0 = auto)")
	queue := fs.Int("queue", 16, "pending-enumeration queue depth; overflow is shed with 429")
	memEntries := fs.Int("mem", 64, "answers held in the in-memory LRU")
	deadline := fs.Duration("deadline", 60*time.Second, "default per-request wait when the client sets no deadline_ms")
	searchTimeout := fs.Duration("search-timeout", 0, "wall-time cap per enumeration (0 = unlimited)")
	grace := fs.Duration("grace", 15*time.Second, "shutdown grace period for draining and checkpointing")
	faults := fs.String("faults", "", "fault injection spec (falls back to $"+faultinject.EnvVar+")")
	readyFile := fs.String("ready-file", "", "write the bound address to this file once listening")
	logFormat := fs.String("log", "off", `structured request log format: "json", "text" or "off"`)
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	slowFlight := fs.Duration("slow-flight", 30*time.Second, "log a per-phase latency breakdown for enumerate requests slower than this (0 = never)")
	flightLogSize := fs.Int("flights", 128, "requests replayed by GET /v1/debug/flights")
	debugPprof := fs.Bool("debug-pprof", false, "serve net/http/pprof under /debug/pprof/")
	diskMax := fs.Int64("disk-max-bytes", 0, "disk cache budget; least-recently-used spaces are evicted above it (0 = unbounded)")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "coordinator: assignment lease; a worker silent this long is re-dispatched")
	pollWait := fs.Duration("poll-wait", 5*time.Second, "coordinator: how long a worker long-poll parks before answering 204")
	dispatchAttempts := fs.Int("dispatch-attempts", 3, "coordinator: dispatches per assignment before falling back to local enumeration")
	workerMode := fs.Bool("worker", false, "run as a fleet worker instead of serving HTTP (requires -join)")
	join := fs.String("join", "", "worker: coordinator base URL, e.g. http://localhost:8080")
	workerID := fs.String("worker-id", "", "worker: stable identity to register under (default: coordinator-minted)")
	scratch := fs.String("scratch", "", "worker: scratch directory for in-flight checkpoints (default: <cache>/worker-scratch)")
	jobs := fs.Int("jobs", 1, "worker: concurrent assignments")
	var tf telemetry.Flags
	tf.Register(fs)
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	session, err := tf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spaced:", err)
		return 1
	}
	defer session.Close() //nolint:errcheck // best-effort flush

	plan, err := faultinject.FromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spaced:", err)
		return 1
	}
	if *faults != "" {
		if plan, err = faultinject.Parse(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "spaced:", err)
			return 1
		}
	}

	reg := session.Registry
	if reg == nil {
		// /v1/stats serves counters whether or not -metrics is on.
		reg = telemetry.NewRegistry()
	}
	logger := telemetry.NewLogger(os.Stderr, *logFormat, telemetry.ParseLogLevel(*logLevel))

	if *workerMode {
		if *join == "" {
			fmt.Fprintln(os.Stderr, "spaced: -worker requires -join <coordinator url>")
			return 2
		}
		dir := *scratch
		if dir == "" {
			dir = *cacheDir + "/worker-scratch"
		}
		wk, err := distcl.NewWorker(distcl.WorkerConfig{
			Client: distcl.NewClient(distcl.Config{
				BaseURL: *join,
				Faults:  plan,
				Logger:  logger,
			}),
			ID:            *workerID,
			ScratchDir:    dir,
			Jobs:          *jobs,
			SearchWorkers: fleetSearchWorkers(*searchWorkers, *workers, *jobs),
			DrainTimeout:  *grace,
			Faults:        plan,
			Logger:        logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "spaced:", err)
			return 1
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		fmt.Fprintf(os.Stderr, "spaced: worker joining %s (scratch %s, %d jobs)\n", *join, dir, *jobs)
		if err := wk.Run(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "spaced:", err)
			return 1
		}
		return 0
	}

	srv, err := server.New(server.Config{
		Dir:             *cacheDir,
		MemEntries:      *memEntries,
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		SearchTimeout:   *searchTimeout,
		SearchWorkers:   *searchWorkers,
		Registry:        reg,
		Faults:          plan,
		Logger:          logger,
		SlowFlight:      *slowFlight,
		FlightLogSize:   *flightLogSize,
		EnablePprof:     *debugPprof,
		DiskMaxBytes:    *diskMax,
		DistLeaseTTL:    *leaseTTL,
		DistPollWait:    *pollWait,
		DistMaxAttempts: *dispatchAttempts,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spaced:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spaced:", err)
		return 1
	}
	if *readyFile != "" {
		if err := os.WriteFile(*readyFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "spaced:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "spaced: serving on http://%s (cache %s, %d workers, queue %d)\n",
		ln.Addr(), *cacheDir, *workers, *queue)

	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "spaced:", err)
		srv.Close()
		return 1
	case <-ctx.Done():
	}
	stop()

	// Drain: cancel in-flight enumerations first so they checkpoint
	// (srv.Close blocks until the workers retire), then let the HTTP
	// layer finish writing the resulting 503s.
	fmt.Fprintln(os.Stderr, "spaced: draining (in-flight enumerations checkpoint to the cache directory)")
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	select {
	case <-done:
	case <-graceCtx.Done():
		fmt.Fprintln(os.Stderr, "spaced: grace period expired with enumerations still draining")
		httpSrv.Close()
		return 1
	}
	if err := httpSrv.Shutdown(graceCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "spaced:", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "spaced: drained cleanly")
	return 0
}
