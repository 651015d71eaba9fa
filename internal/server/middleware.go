package server

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// reqInfo is the per-request annotation channel between the handlers
// and the middleware: the handler fills in how the request was
// resolved (cache tier, flight linkage, phase timings) and the
// middleware folds it into the access log line and the flight
// recorder after the handler returns. One goroutine owns a request,
// so the fields need no lock.
type reqInfo struct {
	id string // the request ID echoed in X-Request-ID

	cache     string // "mem", "disk", "miss", "coalesced" — empty off the enumerate path
	flightID  string // the flight that resolved it, when one ran
	leaderReq string // request ID that created the flight (differs when coalesced)
	coalesced bool

	queueWait time.Duration // flight creation → worker pickup
	enumerate time.Duration // worker pickup → flight resolution
	// checkpoint and publish are the parts of enumerate a miss spent
	// writing checkpoints and hashing + storing the finished space.
	checkpoint, publish time.Duration
}

type reqInfoKey struct{}

// infoFrom returns the request's annotation record; the middleware
// wraps every route, so there always is one.
func infoFrom(ctx context.Context) *reqInfo {
	return ctx.Value(reqInfoKey{}).(*reqInfo)
}

// routeLabel maps a request path onto the bounded endpoint label set
// used by the metric families. Anything unrecognized collapses into
// "other" so client-controlled paths can never mint new series.
func routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/enumerate":
		return "/v1/enumerate"
	case strings.HasPrefix(p, "/v1/space/"):
		return "/v1/space/{hash}"
	case p == "/v1/stats":
		return "/v1/stats"
	case p == "/v1/debug/flights":
		return "/v1/debug/flights"
	case strings.HasPrefix(p, "/v1/dist/"):
		return "/v1/dist"
	case p == "/healthz":
		return "/healthz"
	case p == "/metrics":
		return "/metrics"
	case strings.HasPrefix(p, "/debug/pprof"):
		return "/debug/pprof"
	default:
		return "other"
	}
}

// validRequestID accepts client-supplied X-Request-ID values that are
// safe to echo into logs and label-free record fields: short and from
// a conservative charset.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Request IDs are a random per-process prefix plus a counter: unique
// across restarts without paying an entropy read on every request.
var (
	ridPrefix  = func() (b [4]byte) { rand.Read(b[:]); return }() //nolint:errcheck // zero prefix degrades to counter-only IDs
	ridCounter atomic.Uint32
)

// newRequestID mints a 16-hex-character request ID.
func newRequestID() string {
	var b [8]byte
	copy(b[:4], ridPrefix[:])
	binary.BigEndian.PutUint32(b[4:], ridCounter.Add(1))
	var dst [16]byte
	hex.Encode(dst[:], b[:])
	return string(dst[:])
}

// statusWriter captures the status code and body size the handler
// produced, for the access log and the labeled request metrics. It
// embeds the request's reqInfo so the middleware pays one allocation
// for both.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	info   reqInfo
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// withObservability is the middleware chain: assign or propagate
// X-Request-ID, stamp the request context with the ID and the server
// logger, count in-flight requests per endpoint, record one labeled
// latency/status observation, and emit one structured access-log line
// per request, synchronously — it is in the sink when the handler
// returns. With no logger configured (the nop logger) Enabled is false
// and LogAttrs returns before looking at the attributes.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-ID")
		if !validRequestID(rid) {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-ID", rid)

		sw := &statusWriter{ResponseWriter: w}
		ri := &sw.info
		ri.id = rid
		ctx := context.WithValue(r.Context(), reqInfoKey{}, ri)
		ctx = telemetry.WithRequestScope(ctx, s.logger, rid)
		r = r.WithContext(ctx)

		endpoint := routeLabel(r)
		inFlight := s.gaugeFor(endpoint)
		inFlight.Add(1)
		defer inFlight.Add(-1)

		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}

		total := time.Since(start)
		rs := s.seriesFor(endpoint, httpStatusLabel(sw.status))
		rs.reqs.Inc()
		rs.dur.Observe(int64(total))

		// A fixed array on the stack: the line allocates nothing here.
		attrs := [8]slog.Attr{
			slog.String("method", r.Method),
			slog.String("route", endpoint),
			slog.Int("status", sw.status),
			slog.Int64("bytes", sw.bytes),
			slog.Int64("duration_ms", total.Milliseconds()),
		}
		n := 5
		if ri.cache != "" {
			attrs[n] = slog.String("cache", ri.cache)
			n++
		}
		if ri.flightID != "" {
			attrs[n] = slog.String("flight_id", ri.flightID)
			attrs[n+1] = slog.Int64("queue_wait_ms", ri.queueWait.Milliseconds())
			n += 2
		}
		s.logger.LogAttrs(ctx, slog.LevelInfo, "access", attrs[:n]...)
	})
}

// reqSeries is a cached pair of per-request metric handles for one
// endpoint×status combination. Both label values come from bounded
// mapping functions, so the cache (like the underlying vecs) stays
// bounded; caching the handles keeps the joined-key construction and
// the variadic With allocations off the request path.
type reqSeries struct {
	reqs *telemetry.Counter
	dur  *telemetry.Histogram
}

func (s *Server) seriesFor(endpoint, status string) reqSeries {
	key := [2]string{endpoint, status}
	s.seriesMu.RLock()
	rs, ok := s.series[key]
	s.seriesMu.RUnlock()
	if ok {
		return rs
	}
	rs = reqSeries{
		reqs: s.httpReqs.With(endpoint, status),
		dur:  s.httpDur.With(endpoint, status),
	}
	s.seriesMu.Lock()
	s.series[key] = rs
	s.seriesMu.Unlock()
	return rs
}

func (s *Server) gaugeFor(endpoint string) *telemetry.Gauge {
	s.seriesMu.RLock()
	g, ok := s.gauges[endpoint]
	s.seriesMu.RUnlock()
	if ok {
		return g
	}
	g = s.httpInFlight.With(endpoint)
	s.seriesMu.Lock()
	s.gauges[endpoint] = g
	s.seriesMu.Unlock()
	return g
}

// httpStatusLabel renders a status code as a metric label value.
func httpStatusLabel(status int) string {
	switch status {
	case 200:
		return "200"
	case 400:
		return "400"
	case 404:
		return "404"
	case 422:
		return "422"
	case 429:
		return "429"
	case 499:
		return "499"
	case 503:
		return "503"
	case 504:
		return "504"
	}
	// The handlers only produce the statuses above; anything else is
	// bucketed by class so the label set stays bounded.
	switch {
	case status >= 200 && status < 300:
		return "2xx"
	case status >= 300 && status < 400:
		return "3xx"
	case status >= 400 && status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// handleMetrics serves the registry snapshot in the OpenMetrics text
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.OpenMetricsContentType)
	telemetry.WriteOpenMetrics(w, s.reg.Snapshot()) //nolint:errcheck // client gone
}
