// Package server turns the exhaustive phase order enumeration into a
// service: an HTTP daemon that accepts enumeration requests (a mini-C
// source or a named MiBench corpus function plus search options), runs
// them through a bounded worker pool, and answers from a two-level
// content-addressed cache — an in-memory LRU of answers over a
// disk store of space documents, each with its answer beside it, keyed
// by the SHA-256 of the canonical function bytes and the normalized
// options.
//
// The cached files are the spaces' canonical bytes — what cmd/explore
// -save writes, wall-clock fields zeroed — so sha256sum of a served
// space is its space_hash, the value spacedot -hash prints.
// Identical concurrent requests coalesce onto one enumeration; a full
// queue sheds with 429 + Retry-After; shutdown checkpoints in-flight
// searches through the search engine's own machinery so their partial
// work resumes on the next request.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/distcl"
	"repro/internal/faultinject"
	"repro/internal/mc"
	"repro/internal/mibench"
	"repro/internal/rtl"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// Config configures a Server.
type Config struct {
	// Dir is the disk cache directory (required).
	Dir string
	// MemEntries bounds the in-memory LRU (default 64 answers).
	MemEntries int
	// Workers is the enumeration pool size (default 2).
	Workers int
	// QueueDepth bounds the pending-flight queue; a request that finds
	// it full is shed with 429 (default 16).
	QueueDepth int
	// DefaultDeadline bounds how long a request waits for its flight
	// when the client sets no deadline_ms (default 60s).
	DefaultDeadline time.Duration
	// SearchTimeout bounds each enumeration's wall time, independent of
	// request deadlines (0 = unlimited).
	SearchTimeout time.Duration
	// SearchWorkers caps one flight's search parallelism (0 = up to
	// GOMAXPROCS). Whatever the cap, flights draw their actual width
	// from a shared CPU-token budget of GOMAXPROCS tokens, so N
	// concurrent flights never run more than GOMAXPROCS search workers
	// in total; time spent waiting for a token is surfaced in
	// /v1/stats as server.cpu.wait_ns.
	SearchWorkers int
	// Registry receives the server and search instruments; when nil a
	// private registry is created so /v1/stats always has counters.
	Registry *telemetry.Registry
	// Faults injects deterministic failures into the enumerations for
	// robustness testing; nil injects nothing.
	Faults *faultinject.Plan
	// Logger receives the structured request and flight records (access
	// lines, slow-flight diagnostics, search progress). Nil logs
	// nothing.
	Logger *slog.Logger
	// SlowFlight, when positive, logs a per-phase latency breakdown for
	// any enumerate request slower than this threshold.
	SlowFlight time.Duration
	// FlightLogSize bounds the /v1/debug/flights ring buffer (default
	// 128 records).
	FlightLogSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// server's handler. Off by default: the profiles expose internals,
	// so the operator opts in per process.
	EnablePprof bool

	// DiskMaxBytes bounds the disk cache: when the published entries
	// exceed it, a publish sweeps the least-recently-used keys (never one
	// with in-flight readers) until the total fits again (0 =
	// unbounded). A fleet checkpoint mirrored into its key's
	// space file counts against the budget too, and so does a checkpoint
	// an earlier process left there; one the local engine is writing
	// counts once the key publishes.
	DiskMaxBytes int64

	// DistLeaseTTL is the distributed-assignment lease duration: a
	// worker that misses heartbeats for this long loses the assignment
	// to re-dispatch (default 10s). Workers are told to heartbeat at a
	// third of it.
	DistLeaseTTL time.Duration
	// DistPollWait bounds how long a worker's /v1/dist/poll blocks
	// waiting for work (default 5s).
	DistPollWait time.Duration
	// DistMaxAttempts bounds how many workers an assignment is tried
	// on before the flight falls back to local enumeration, resuming
	// from the last uploaded checkpoint (default 3).
	DistMaxAttempts int
	// Deprecated: ignored. The coordinator sends every flight to the
	// fleet as one whole-space assignment (DESIGN §14).
	ShardFanout int
}

// Server is the enumeration service.
type Server struct {
	cfg     Config
	reg     *telemetry.Registry
	logger  *slog.Logger
	mem     *memCache
	store   *diskStore
	pool    *pool
	cpu     *cpuBudget
	dist    *dispatcher
	stats   *spaceStats
	flights *flightLog
	handler http.Handler

	// Labeled request instruments, maintained by the middleware.
	// series/gauges cache the resolved per-combination handles so the
	// request path skips the vec key construction (see seriesFor).
	httpReqs     *telemetry.CounterVec
	httpDur      *telemetry.HistogramVec
	httpInFlight *telemetry.GaugeVec
	seriesMu     sync.RWMutex
	series       map[[2]string]reqSeries
	gauges       map[string]*telemetry.Gauge
	// cacheTier counts enumerate resolutions by tier
	// (mem/disk/miss/coalesced/corrupt); flightDur feeds the
	// Retry-After estimate with the mean flight latency.
	cacheTier *telemetry.CounterVec
	flightDur *telemetry.Histogram

	corpusOnce sync.Once
	corpus     map[string]*rtl.Func // "bench/func" and bare "func" when unambiguous
	corpusErr  error

	// beforeEnumerate, when non-nil, runs at the head of every flight's
	// worker execution — a test seam for holding a flight open while
	// concurrent requests pile onto it.
	beforeEnumerate func(*flight)
}

// New creates a Server caching under cfg.Dir.
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, errors.New("server: Config.Dir is required")
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 60 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	logger := cfg.Logger
	if logger == nil {
		logger = telemetry.NopLogger()
	}
	store, err := newDiskStore(cfg.Dir, cfg.DiskMaxBytes, reg.Gauge("cache_disk_bytes"))
	if err != nil {
		return nil, err
	}
	store.faults = cfg.Faults
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		logger:  logger,
		mem:     newMemCache(cfg.MemEntries),
		store:   store,
		stats:   newSpaceStats(),
		flights: newFlightLog(cfg.FlightLogSize),

		httpReqs:     reg.CounterVec("http.requests", "endpoint", "status"),
		httpDur:      reg.HistogramVec("http.request.duration_ns", "endpoint", "status"),
		httpInFlight: reg.GaugeVec("http.in_flight", "endpoint"),
		series:       make(map[[2]string]reqSeries),
		gauges:       make(map[string]*telemetry.Gauge),
		cacheTier:    reg.CounterVec("server.cache.requests", "cache_tier"),
		flightDur:    reg.Histogram("server.flight.duration_ns"),
	}
	depth := reg.Gauge("server.queue.depth")
	s.pool = newPool(cfg.Workers, cfg.QueueDepth, s.runFlight, depth.Set)
	s.cpu = newCPUBudget(0, reg)
	s.dist = newDispatcher(s)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/enumerate", s.handleEnumerate)
	mux.HandleFunc("GET /v1/space/{hash}", s.handleSpace)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/debug/flights", s.handleFlights)
	mux.HandleFunc("POST "+distcl.PathRegister, s.handleDistRegister)
	mux.HandleFunc("POST "+distcl.PathPoll, s.handleDistPoll)
	mux.HandleFunc("POST "+distcl.PathHeartbeat, s.handleDistHeartbeat)
	mux.HandleFunc("POST "+distcl.PathComplete, s.handleDistComplete)
	mux.HandleFunc("POST "+distcl.PathDeregister, s.handleDistDeregister)
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.withObservability(mux)
	return s, nil
}

// Handler returns the HTTP handler tree, wrapped in the observability
// middleware (request IDs, access log, labeled request metrics).
func (s *Server) Handler() http.Handler { return s.handler }

// Close drains the server: new requests are refused, in-flight
// enumerations are canceled and checkpoint themselves, and Close
// returns once every worker has retired.
func (s *Server) Close() {
	s.pool.close()
	s.dist.close()
}

// enumerateRequest is the POST /v1/enumerate body. Exactly one of
// Source or Bench/Func selects the function: Source compiles mini-C
// text (Func picks the function when the source defines several),
// Bench/Func names a MiBench corpus function.
type enumerateRequest struct {
	Bench   string `json:"bench,omitempty"`
	Func    string `json:"func,omitempty"`
	Source  string `json:"source,omitempty"`
	Options struct {
		Cap        int  `json:"cap,omitempty"`
		MaxNodes   int  `json:"max_nodes,omitempty"`
		Check      bool `json:"check,omitempty"`
		Equiv      bool `json:"equiv,omitempty"`
		DeadlineMS int  `json:"deadline_ms,omitempty"`
	} `json:"options"`
}

// enumerateResponse is the POST /v1/enumerate summary. Key addresses
// GET /v1/space/{key}; SpaceHash is the canonical space hash spacedot
// -hash reports for the same function and options.
type enumerateResponse struct {
	Func            string `json:"func"`
	Key             string `json:"key"`
	SpaceHash       string `json:"space_hash"`
	Nodes           int    `json:"nodes"`
	Edges           int    `json:"edges"`
	Leaves          int    `json:"leaves"`
	AttemptedPhases int    `json:"attempted_phases"`
	// EquivRaw and EquivMerged summarize the equivalence tier of a
	// space enumerated with options.equiv: raw-distinct instances
	// discovered and how many of them folded into an existing class
	// (nodes = EquivRaw - EquivMerged). Both are absent on spaces
	// enumerated without the tier.
	EquivRaw    int `json:"equiv_raw,omitempty"`
	EquivMerged int `json:"equiv_merged,omitempty"`
	// Cache reports how the request was satisfied: "mem", "disk",
	// "miss" (this request ran the enumeration) or "coalesced" (it
	// joined another request's in-progress flight).
	Cache     string `json:"cache"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; 0 omits the header
}

func (e *httpError) Error() string { return e.msg }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

func writeError(w http.ResponseWriter, he *httpError) {
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", he.retryAfter))
	}
	writeJSON(w, he.status, map[string]string{"error": he.msg})
}

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Counter("server.requests").Inc()
	ri := infoFrom(r.Context())
	resp, fl, err := s.enumerate(r, ri)
	if err != nil {
		he := &httpError{status: http.StatusInternalServerError, msg: err.Error()}
		errors.As(err, &he)
		writeError(w, he)
		s.recordFlight(r, ri, fl, he.status, he.msg, 0, time.Since(start))
		return
	}
	resp.ElapsedMS = time.Since(start).Milliseconds()
	serStart := time.Now()
	writeJSON(w, http.StatusOK, resp)
	s.recordFlight(r, ri, fl, http.StatusOK, "", time.Since(serStart), time.Since(start))
}

func (s *Server) enumerate(r *http.Request, ri *reqInfo) (*enumerateResponse, *flight, error) {
	var req enumerateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		return nil, nil, &httpError{status: http.StatusBadRequest, msg: "decoding request: " + err.Error()}
	}
	o := req.Options
	if o.Cap < 0 || o.MaxNodes < 0 {
		return nil, nil, &httpError{status: http.StatusBadRequest, msg: "options.cap and options.max_nodes must not be negative"}
	}
	no := normOptions{Cap: o.Cap, MaxNodes: o.MaxNodes, Check: o.Check, Equiv: o.Equiv}
	if no.Cap == defaultCap {
		no.Cap = 0
	}
	fn, err := s.resolve(&req)
	if err != nil {
		return nil, nil, err
	}
	key := requestKey(fn, no)

	// First level: the LRU of answers, without touching the pool at
	// all.
	if ent, ok := s.mem.get(key); ok {
		s.reg.Counter("server.cache.hit_mem").Inc()
		s.cacheTier.With("mem").Inc()
		ri.cache = "mem"
		return response(ent, "mem"), nil, nil
	}

	fl, coalesced, err := s.pool.join(key, fn, no, ri.id)
	switch {
	case errors.Is(err, errQueueFull):
		s.reg.Counter("server.shed").Inc()
		return nil, nil, &httpError{status: http.StatusTooManyRequests, msg: err.Error(),
			retryAfter: s.retryAfterEstimate()}
	case errors.Is(err, errDraining):
		return nil, nil, &httpError{status: http.StatusServiceUnavailable, msg: err.Error(), retryAfter: 5}
	case err != nil:
		return nil, nil, err
	}
	if coalesced {
		s.reg.Counter("server.coalesced").Inc()
		s.cacheTier.With("coalesced").Inc()
	}
	ri.flightID = fl.id
	ri.leaderReq = fl.leaderReq
	ri.coalesced = coalesced
	defer s.pool.leave(fl)

	deadline := s.cfg.DefaultDeadline
	if req.Options.DeadlineMS > 0 {
		deadline = time.Duration(req.Options.DeadlineMS) * time.Millisecond
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case <-fl.done:
	case <-timer.C:
		return nil, fl, &httpError{status: http.StatusGatewayTimeout,
			msg: fmt.Sprintf("enumeration still running after %v; retry to resume from its checkpoint", deadline), retryAfter: 1}
	case <-r.Context().Done():
		return nil, fl, &httpError{status: 499, msg: "client went away"}
	}
	how := fl.cacheHow
	if coalesced {
		how = "coalesced"
	}
	ri.cache = how
	ri.queueWait = fl.startedAt.Sub(fl.enqueuedAt)
	ri.enumerate = fl.finishedAt.Sub(fl.startedAt)
	ri.publish = fl.publish
	ri.checkpoint = fl.ent.checkpoint
	if fl.err != nil {
		status := fl.status
		if status == 0 {
			status = http.StatusInternalServerError
		}
		he := &httpError{status: status, msg: fl.err.Error()}
		if status == http.StatusServiceUnavailable {
			he.retryAfter = 1
		}
		return nil, fl, he
	}
	return response(fl.ent, how), fl, nil
}

// retryAfterEstimate converts the current backlog into the Retry-After
// a shed client receives: the queued flights plus the one just refused,
// spread across the workers, each costing the mean observed flight
// latency.
func (s *Server) retryAfterEstimate() int {
	return retryAfterSeconds(s.pool.queued(), s.flightDur.Mean(), s.pool.workers)
}

// retryAfterSeconds is the pure backoff arithmetic: ceil((queued+1) ×
// meanFlightNS / workers), clamped to [1, 60] seconds so an empty
// history still backs off a little and a deep backlog cannot demand an
// hour.
func retryAfterSeconds(queued int, meanFlightNS float64, workers int) int {
	est := float64(queued+1) * meanFlightNS / float64(max(workers, 1)) / float64(time.Second)
	return min(max(int(math.Ceil(est)), 1), 60)
}

// response is ent's answer as this request got it.
func response(ent entry, how string) *enumerateResponse {
	resp := ent.answer
	resp.Cache = how
	return &resp
}

// resolve turns the request into the function to enumerate.
func (s *Server) resolve(req *enumerateRequest) (*rtl.Func, error) {
	if req.Source != "" {
		if req.Bench != "" {
			return nil, &httpError{status: http.StatusBadRequest, msg: "source and bench are mutually exclusive"}
		}
		prog, err := mc.Compile(req.Source)
		if err != nil {
			return nil, &httpError{status: http.StatusBadRequest, msg: "compiling source: " + err.Error()}
		}
		if req.Func != "" {
			if f := prog.Func(req.Func); f != nil {
				return f, nil
			}
			return nil, &httpError{status: http.StatusNotFound,
				msg: fmt.Sprintf("source does not define %q", req.Func)}
		}
		if len(prog.Funcs) != 1 {
			return nil, &httpError{status: http.StatusBadRequest,
				msg: fmt.Sprintf("source defines %d functions; name one with \"func\"", len(prog.Funcs))}
		}
		return prog.Funcs[0], nil
	}
	if req.Func == "" {
		return nil, &httpError{status: http.StatusBadRequest, msg: "request needs source or bench/func"}
	}
	s.corpusOnce.Do(s.compileCorpus)
	if s.corpusErr != nil {
		return nil, &httpError{status: http.StatusInternalServerError, msg: s.corpusErr.Error()}
	}
	name := req.Func
	if req.Bench != "" {
		name = req.Bench + "/" + req.Func
	}
	fn, ok := s.corpus[name]
	if !ok {
		return nil, &httpError{status: http.StatusNotFound,
			msg: fmt.Sprintf("no corpus function %q", name)}
	}
	if fn == nil {
		return nil, &httpError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("%q names functions in several benchmarks; qualify it with \"bench\"", name)}
	}
	return fn, nil
}

// compileCorpus builds the MiBench name index once, lazily: the first
// corpus request pays the compile, source-only servers never do.
func (s *Server) compileCorpus() {
	funcs, err := mibench.AllFunctions()
	if err != nil {
		s.corpusErr = fmt.Errorf("server: compiling corpus: %w", err)
		return
	}
	s.corpus = make(map[string]*rtl.Func, 2*len(funcs))
	for _, tf := range funcs {
		s.corpus[tf.Bench+"/"+tf.Func.Name] = tf.Func
		if _, dup := s.corpus[tf.Func.Name]; dup {
			s.corpus[tf.Func.Name] = nil // ambiguous bare name
		} else {
			s.corpus[tf.Func.Name] = tf.Func
		}
	}
}

// runFlight resolves one flight on a pool worker. The cache levels are
// re-checked here — a flight created moments after an identical one
// resolved must find its result, not enumerate again — so a key is
// enumerated exactly once no matter how requests interleave.
func (s *Server) runFlight(fl *flight) {
	defer s.pool.finish(fl)
	defer s.flightDur.ObserveSince(fl.startedAt)
	if s.beforeEnumerate != nil {
		s.beforeEnumerate(fl)
	}
	if ent, ok := s.mem.get(fl.key); ok {
		s.reg.Counter("server.cache.hit_mem").Inc()
		s.cacheTier.With("mem").Inc()
		fl.ent, fl.cacheHow = ent, "mem"
		return
	}
	if ent, err := s.store.answer(fl.key); err == nil {
		s.reg.Counter("server.cache.hit_disk").Inc()
		s.cacheTier.With("disk").Inc()
		s.mem.add(fl.key, ent)
		fl.ent, fl.cacheHow = ent, "disk"
		return
	} else if !os.IsNotExist(err) {
		// A pair that does not check out is a miss, not an outage: the
		// enumeration below re-publishes it.
		s.cacheTier.With("corrupt").Inc()
		s.dropCorrupt(fl.ctx, fl.key, err)
	}
	s.reg.Counter("server.cache.miss").Inc()
	s.cacheTier.With("miss").Inc()
	fl.cacheHow = "miss"
	if fl.ctx.Err() != nil {
		fl.err = fmt.Errorf("canceled before enumeration: %w", context.Cause(fl.ctx))
		fl.status = http.StatusServiceUnavailable
		return
	}
	res, err := s.resolveFlight(fl)
	if err != nil {
		fl.err = err
		return
	}
	publishStart := time.Now()
	fl.err = s.publish(fl, res)
	fl.publish = time.Since(publishStart)
}

// publish admits fl's finished space and seals it in the disk store,
// rendering it at most once: what is stored is what is hashed. The
// engine's final write into the key's space file already did both
// (SpacePath, SpaceHash), in either tier, and so did Enumerate for a
// finished space it found there; publishing that file is writing its
// answer record. A fleet completion holds the canonical bytes
// handleDistComplete verified the worker's claim against — the upload
// as it arrived, when it was canonical — and those are put. A space
// neither wrote — one whose final write failed — is rendered here by
// Save, which writes a complete space's canonical bytes, and those
// bytes are hashed and put.
func (s *Server) publish(fl *flight, res *search.Result) (err error) {
	hash, canon := res.SpaceHash, fl.canon
	if hash == "" && canon == nil {
		var buf bytes.Buffer
		if err := res.Save(&buf); err != nil {
			return fmt.Errorf("rendering space: %w", err)
		}
		canon = buf.Bytes()
	}
	if canon != nil {
		hash = hexSum(canon)
	}
	s.admit(fl.key, res, hash, &fl.ent)
	if canon == nil {
		err = s.store.published(fl.key, fl.ent)
	} else {
		err = s.store.put(fl.key, canon, fl.ent)
	}
	if err != nil {
		// Served from memory anyway; the disk slot heals on a future
		// enumeration.
		s.reg.Counter("server.cache.write_errors").Inc()
	}
	return nil
}

// dropCorrupt removes k's entry and answer record, found damaged by the
// flight path or the /v1/stats fold, and says so once.
func (s *Server) dropCorrupt(ctx context.Context, k cacheKey, err error) {
	s.reg.Counter("server.cache.corrupt").Inc()
	s.store.remove(k)
	s.logger.WarnContext(ctx, "cache entry dropped", "key", string(k), "err", err.Error())
}

// resolveFlight produces fl's space: on the fleet when one is
// registered, locally otherwise. The fallback composes with recovery —
// a dispatch that exhausted its attempts has mirrored the fleet's last
// checkpoint into the key's space file, so the local run resumes rather
// than restarts, in either tier.
func (s *Server) resolveFlight(fl *flight) (*search.Result, error) {
	res, handled := s.dist.enumerate(fl)
	if !handled {
		var err error
		if res, err = s.runOrResume(fl); err != nil {
			return nil, fmt.Errorf("resuming checkpoint: %w", err)
		}
	}
	return s.finishFlight(fl, res)
}

// runOrResume enumerates fl's function under the flight's options,
// checkpointing into the key's space file and continuing what it holds
// (search.Enumerate owns what that may be). Whichever way a run on the
// slot came to a complete space, the space file holds it (SpacePath,
// SpaceHash) and runFlight publishes it by writing its answer record
// instead of encoding the space a second time. The error is
// search.Enumerate's.
func (s *Server) runOrResume(fl *flight) (*search.Result, error) {
	// Draw this flight's search parallelism from the shared CPU-token
	// budget instead of letting every flight default to NumCPU: the
	// sum across concurrent flights never exceeds GOMAXPROCS. A grant
	// of zero means the flight was canceled while waiting; it proceeds
	// single-width and the abort surfaces through the search itself.
	workers, _ := s.cpu.acquire(fl.ctx, s.cfg.SearchWorkers)
	defer s.cpu.release(workers)
	opts := search.Options{
		MaxSeqPerLevel: fl.no.Cap,
		MaxNodes:       fl.no.MaxNodes,
		Check:          fl.no.Check,
		Equiv:          fl.no.Equiv,
		Timeout:        s.cfg.SearchTimeout,
		Workers:        max(workers, 1),
		Ctx:            fl.ctx,
		Logger:         s.logger,
		Metrics:        s.reg,
		Faults:         s.cfg.Faults,
		CheckpointPath: s.store.path(fl.key),
	}
	return search.Enumerate(fl.fn, opts, func(start search.Start) {
		// A finished space found in the slot (a crash between the final
		// write and its answer record) is no enumeration; a checkpoint an
		// earlier drained or abandoned request left is a resumed one.
		if start != search.Found {
			s.reg.Counter("server.enumerations").Inc()
		}
		if start == search.Resumed {
			s.reg.Counter("server.enumerations.resumed").Inc()
		}
	})
}

// finishFlight maps an aborted enumeration to its HTTP failure.
func (s *Server) finishFlight(fl *flight, res *search.Result) (*search.Result, error) {
	if res.Aborted {
		reason := res.AbortReason
		if strings.HasPrefix(reason, "canceled") {
			fl.status = http.StatusServiceUnavailable
			return nil, fmt.Errorf("enumeration canceled (%v); partial space checkpointed for resume", context.Cause(fl.ctx))
		}
		fl.status = http.StatusUnprocessableEntity
		return nil, fmt.Errorf("enumeration aborted: %s", reason)
	}
	return res, nil
}

// admit computes the answer every request for a complete space gets
// and caches it in the LRU; the publish writes the same entry beside the
// space, which is what a later process answers from. The space itself
// is the caller's to drop (the interaction statistics read it back from
// the disk store, see handleStats). hash is res's canonical hash, which
// publish has from whoever rendered the space.
func (s *Server) admit(key cacheKey, res *search.Result, hash string, out *entry) {
	*out = entry{stats: res.Stats, checkpoint: res.CheckpointTime, answer: enumerateResponse{
		Func:            res.FuncName,
		Key:             string(key),
		SpaceHash:       hash,
		Nodes:           len(res.Nodes),
		Edges:           res.Stats.Edges,
		Leaves:          len(res.Leaves()),
		AttemptedPhases: res.AttemptedPhases,
	}}
	if eq := res.Equiv; eq != nil {
		out.answer.EquivRaw, out.answer.EquivMerged = eq.Raw, eq.Merged
	}
	s.mem.add(key, *out)
}

func (s *Server) handleSpace(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !keyPattern.MatchString(hash) {
		writeError(w, &httpError{status: http.StatusBadRequest, msg: "malformed space key"})
		return
	}
	f, rec, release, err := s.store.open(cacheKey(hash))
	if err != nil {
		writeError(w, &httpError{status: http.StatusNotFound, msg: "no cached space for that key"})
		return
	}
	defer release()
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", hash[:12]+spaceSuffix))
	// The record's SHA-256 of the stored bytes is the entity tag — for an
	// entry this build wrote, the space_hash itself — so ServeContent
	// answers If-None-Match with 304 and holds If-Range to it.
	w.Header().Set("ETag", `"`+rec.EntrySHA256+`"`)
	// ServeContent sends the file's size as Content-Length, so the body
	// is not chunked.
	http.ServeContent(w, r, "", time.Time{}, f)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{"status": "ok", "draining": false}
	if fs := s.dist.fleet(); fs != nil {
		// Degraded-but-serving is visible here: a probe sees dead
		// workers and recovering assignments while the endpoint stays
		// 200, because the coordinator still answers (fleet or local).
		body["fleet"] = fs
	}
	if s.pool.isDraining() {
		// 503 flips load-balancer checks the moment SIGTERM drain
		// begins; the body says why so a human probing the endpoint is
		// not left guessing.
		w.Header().Set("Retry-After", "5")
		body["status"], body["draining"] = "draining", true
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
