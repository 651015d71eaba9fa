package server

import (
	"net/http"
	"sync"
	"time"
)

// flightRecord is one completed enumerate request as the flight
// recorder replays it: who asked, which flight resolved it, where the
// time went. A coalesced follower's LeaderRequestID names the request
// whose flight it attached to, so a latency complaint can be traced
// to the enumeration that actually ran.
type flightRecord struct {
	RequestID string `json:"request_id,omitempty"`
	FlightID  string `json:"flight_id,omitempty"`
	Func      string `json:"func,omitempty"`
	Cache     string `json:"cache,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	// Event distinguishes distribution-plane records ("dispatch",
	// "lease-expire", "complete") from the default request records
	// (empty Event);
	// AssignmentID/Worker/Attempt carry the dist context so a recovery
	// can be replayed from the ring alone.
	Event        string `json:"event,omitempty"`
	AssignmentID string `json:"assignment_id,omitempty"`
	Worker       string `json:"worker,omitempty"`
	Attempt      int    `json:"attempt,omitempty"`
	// LeaderRequestID is the request that created the flight. For a
	// coalesced follower it differs from RequestID; for the leader the
	// two match.
	LeaderRequestID string `json:"leader_request_id,omitempty"`
	Status          int    `json:"status"`
	Error           string `json:"error,omitempty"`

	// EnumerateMS spans worker pickup to flight resolution, so on a miss
	// it contains CheckpointMS (the engine's checkpoint writes, the last
	// of which is the entry itself), PublishMS (the answer record, after
	// a render and put into the disk store when no final write left the
	// space in place).
	QueueWaitMS  int64 `json:"queue_wait_ms"`
	EnumerateMS  int64 `json:"enumerate_ms"`
	CheckpointMS int64 `json:"checkpoint_ms"`
	PublishMS    int64 `json:"publish_ms"`
	SerializeMS  int64 `json:"serialize_ms"`
	TotalMS      int64 `json:"total_ms"`
}

// flightLog is the fixed-size ring the flight recorder replays from.
// Appends overwrite the oldest record; snapshot returns newest first.
type flightLog struct {
	mu   sync.Mutex
	buf  []flightRecord
	next int // index of the slot the next append overwrites
	full bool
}

func newFlightLog(size int) *flightLog {
	if size <= 0 {
		size = 128
	}
	return &flightLog{buf: make([]flightRecord, size)}
}

// add appends one record.
func (l *flightLog) add(rec flightRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf[l.next] = rec
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
}

// snapshot returns the recorded flights newest first.
func (l *flightLog) snapshot() []flightRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.buf)
	}
	out := make([]flightRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// handleFlights serves GET /v1/debug/flights: the last N enumerate
// requests with their timing splits, newest first.
func (s *Server) handleFlights(w http.ResponseWriter, r *http.Request) {
	flights := s.flights.snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": len(s.flights.buf),
		"count":    len(flights),
		"flights":  flights,
	})
}

// recordFlight folds one finished enumerate request into the ring and,
// when the flight ran longer than the slow-flight threshold, emits the
// slow-flight diagnostic carrying the enumeration's own statistics.
func (s *Server) recordFlight(r *http.Request, ri *reqInfo, fl *flight, status int, errMsg string, serialize, total time.Duration) {
	rec := flightRecord{
		RequestID:       ri.id,
		FlightID:        ri.flightID,
		Cache:           ri.cache,
		Coalesced:       ri.coalesced,
		LeaderRequestID: ri.leaderReq,
		Status:          status,
		Error:           errMsg,
		QueueWaitMS:     ri.queueWait.Milliseconds(),
		EnumerateMS:     ri.enumerate.Milliseconds(),
		CheckpointMS:    ri.checkpoint.Milliseconds(),
		PublishMS:       ri.publish.Milliseconds(),
		SerializeMS:     serialize.Milliseconds(),
		TotalMS:         total.Milliseconds(),
	}
	if fl != nil {
		rec.Func = fl.fn.Name
	}
	s.flights.add(rec)

	if s.cfg.SlowFlight > 0 && total >= s.cfg.SlowFlight {
		attrs := []any{
			"flight_id", ri.flightID,
			"cache", ri.cache,
			"status", status,
			"queue_wait_ms", rec.QueueWaitMS,
			"enumerate_ms", rec.EnumerateMS,
			"checkpoint_ms", rec.CheckpointMS,
			"publish_ms", rec.PublishMS,
			"serialize_ms", rec.SerializeMS,
			"total_ms", rec.TotalMS,
		}
		if fl != nil {
			st := fl.ent.stats // zeros when the flight produced no space
			attrs = append(attrs,
				"func", fl.fn.Name,
				"attempts", st.Attempts,
				"active", st.Active,
				"dormant", st.Dormant,
				"merged", st.Merged,
				"levels", st.Levels,
				"expand_ms", time.Duration(st.ExpandNS).Milliseconds(),
				"statekey_ms", time.Duration(st.StateKeyNS).Milliseconds(),
			)
		}
		s.logger.WarnContext(r.Context(), "slow flight", attrs...)
	}
}
