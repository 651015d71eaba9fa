package telemetry

import (
	"context"
	"io"
	"log/slog"
	"strings"
)

// Request-scoped structured logging.
//
// The serving path carries a *slog.Logger and the request/flight
// identifiers through the context; StampHandler re-reads them at
// record time so every log line emitted anywhere below a request —
// handler, pool worker, search engine — carries the same request_id
// the client received in X-Request-ID, without threading the IDs
// through every call signature.

type ctxKey int

const ctxKeyScope ctxKey = 0

// logScope bundles every request-scoped logging value under a single
// context key: the middleware attaches logger and request ID with one
// allocation, and StampHandler recovers both IDs with one context walk
// per record instead of one per field.
type logScope struct {
	logger   *slog.Logger
	reqID    string
	flightID string
}

func scopeFrom(ctx context.Context) *logScope {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKeyScope).(*logScope)
	return s
}

// withScope stores a copy of s, preserving value semantics for the
// caller's derived contexts.
func withScope(ctx context.Context, s logScope) context.Context {
	return context.WithValue(ctx, ctxKeyScope, &s)
}

// WithRequestScope returns a context carrying both the logger and the
// request identifier — the request-path spelling of WithLogger +
// WithRequestID, at one context allocation instead of two.
func WithRequestScope(ctx context.Context, l *slog.Logger, id string) context.Context {
	s := logScope{logger: l, reqID: id}
	if old := scopeFrom(ctx); old != nil {
		s.flightID = old.flightID
	}
	return withScope(ctx, s)
}

// WithLogger returns a context carrying l.
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	s := logScope{logger: l}
	if old := scopeFrom(ctx); old != nil {
		s.reqID, s.flightID = old.reqID, old.flightID
	}
	return withScope(ctx, s)
}

// LoggerFrom returns the context's logger, or a no-op logger when none
// (or a nil context) was attached — callers never need a nil check.
func LoggerFrom(ctx context.Context) *slog.Logger {
	if s := scopeFrom(ctx); s != nil && s.logger != nil {
		return s.logger
	}
	return NopLogger()
}

// WithRequestID returns a context carrying the request identifier.
func WithRequestID(ctx context.Context, id string) context.Context {
	s := logScope{reqID: id}
	if old := scopeFrom(ctx); old != nil {
		s.logger, s.flightID = old.logger, old.flightID
	}
	return withScope(ctx, s)
}

// RequestID returns the context's request identifier ("" when absent).
func RequestID(ctx context.Context) string {
	if s := scopeFrom(ctx); s != nil {
		return s.reqID
	}
	return ""
}

// WithFlightID returns a context carrying the flight identifier.
func WithFlightID(ctx context.Context, id string) context.Context {
	s := logScope{flightID: id}
	if old := scopeFrom(ctx); old != nil {
		s.logger, s.reqID = old.logger, old.reqID
	}
	return withScope(ctx, s)
}

// FlightID returns the context's flight identifier ("" when absent).
func FlightID(ctx context.Context) string {
	if s := scopeFrom(ctx); s != nil {
		return s.flightID
	}
	return ""
}

// StampHandler decorates a slog.Handler so every record is stamped
// with the request_id and flight_id found in the log call's context.
type StampHandler struct{ inner slog.Handler }

// NewStampHandler wraps h.
func NewStampHandler(h slog.Handler) *StampHandler { return &StampHandler{inner: h} }

// Enabled implements slog.Handler.
func (h *StampHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.inner.Enabled(ctx, level)
}

// Handle implements slog.Handler, stamping the context identifiers.
func (h *StampHandler) Handle(ctx context.Context, rec slog.Record) error {
	if s := scopeFrom(ctx); s != nil {
		if s.reqID != "" {
			rec.AddAttrs(slog.String("request_id", s.reqID))
		}
		if s.flightID != "" {
			rec.AddAttrs(slog.String("flight_id", s.flightID))
		}
	}
	return h.inner.Handle(ctx, rec)
}

// WithAttrs implements slog.Handler.
func (h *StampHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &StampHandler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h *StampHandler) WithGroup(name string) slog.Handler {
	return &StampHandler{inner: h.inner.WithGroup(name)}
}

// nopHandler drops every record without formatting it.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nopLogger = slog.New(nopHandler{})

// NopLogger returns a logger that discards everything (Enabled is
// false, so callers pay no formatting cost).
func NopLogger() *slog.Logger { return nopLogger }

// NewLogger builds a request-stamping structured logger writing to w.
// Format is "json" (one JSON object per line, the access-log format
// obs tooling greps) or "text" (logfmt-ish, for humans); "off" or an
// unknown format returns the no-op logger.
func NewLogger(w io.Writer, format string, level slog.Level) *slog.Logger {
	var h slog.Handler
	switch strings.ToLower(format) {
	case "json":
		h = slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	case "text":
		h = slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
	default:
		return NopLogger()
	}
	return slog.New(NewStampHandler(h))
}

// ParseLogLevel maps a -log-level flag value to a slog.Level
// (defaulting to Info for unknown spellings).
func ParseLogLevel(s string) slog.Level {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}
