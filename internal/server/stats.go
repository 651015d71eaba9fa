package server

import (
	"net/http"
	"os"
	"sync"

	"repro/internal/analysis"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// spaceStats folds the spaces in the disk store into the paper's
// phase-interaction statistics (Tables 4-6), each cache key counted
// once: handleStats loads and folds the keys it has not seen yet.
type spaceStats struct {
	mu   sync.Mutex
	seen map[cacheKey]bool
	x    *analysis.Interactions

	// Corpus-wide equivalence-tier totals over the spaces that were
	// enumerated with options.equiv (zero when none were).
	equivSpaces int
	equivRaw    int
	equivMerged int
}

func newSpaceStats() *spaceStats {
	return &spaceStats{seen: make(map[cacheKey]bool), x: analysis.NewInteractions()}
}

func (ss *spaceStats) accumulate(k cacheKey, r *search.Result) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.seen[k] {
		return
	}
	ss.seen[k] = true
	// A cyclic equivalence-collapsed space cannot be folded into the
	// Tables 4-6 weighting; its collapse totals still count.
	ss.x.Accumulate(r)
	if r.Equiv != nil {
		ss.equivSpaces++
		ss.equivRaw += r.Equiv.Raw
		ss.equivMerged += r.Equiv.Merged
	}
}

// statsResponse is the GET /v1/stats body: the telemetry snapshot
// (server.* and search.* instruments) plus the interaction
// probabilities over the entries on disk — this process's and earlier
// ones'. A miss whose disk write failed (server.cache.write_errors) is
// served from memory but not tabulated until a later enumeration
// stores it.
type statsResponse struct {
	telemetry.Snapshot
	Spaces int      `json:"spaces"`
	Phases []string `json:"phases"`
	// Equiv summarizes the equivalence tier across every cached space
	// enumerated with options.equiv: raw instances discovered, how many
	// folded into an existing class, and the corpus-wide collapse
	// ratio folded/raw. Absent when no cached space used the tier.
	Equiv *equivSummary `json:"equiv,omitempty"`
	// Fleet reports the distributed-enumeration plane: registered
	// workers by state and assignments in flight. Absent when no
	// worker has ever registered.
	Fleet  *fleetSummary `json:"fleet,omitempty"`
	Tables struct {
		Enabling           [][]float64 `json:"enabling"`
		Disabling          [][]float64 `json:"disabling"`
		Independence       [][]float64 `json:"independence"`
		StartProbabilities []float64   `json:"start_probabilities"`
	} `json:"tables"`
}

// equivSummary is the GET /v1/stats "equiv" object.
type equivSummary struct {
	Spaces        int     `json:"spaces"`
	Raw           int     `json:"raw"`
	Merged        int     `json:"merged"`
	CollapseRatio float64 `json:"collapse_ratio"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// The one place spaces are folded: no request pays for the tables,
	// a stats read pays once per new key.
	if keys, err := s.store.keys(); err == nil {
		for _, k := range keys {
			s.stats.mu.Lock()
			seen := s.stats.seen[k]
			s.stats.mu.Unlock()
			if seen {
				continue
			}
			if _, err := s.store.record(k); err != nil {
				continue // no entry: a space in progress, neither folded nor dropped
			}
			res, err := s.store.load(k)
			switch {
			case err == nil:
				s.stats.accumulate(k, res)
			case !os.IsNotExist(err): // not merely evicted since keys() listed it
				s.dropCorrupt(r.Context(), k, err)
			}
		}
	}

	var resp statsResponse
	resp.Snapshot = s.reg.Snapshot()
	resp.Fleet = s.dist.fleet()
	s.stats.mu.Lock()
	resp.Spaces = len(s.stats.seen)
	if s.stats.equivSpaces > 0 {
		eq := &equivSummary{Spaces: s.stats.equivSpaces, Raw: s.stats.equivRaw, Merged: s.stats.equivMerged}
		if eq.Raw > 0 {
			eq.CollapseRatio = float64(eq.Merged) / float64(eq.Raw)
		}
		resp.Equiv = eq
	}
	resp.Tables.Enabling = s.stats.x.Enabling()
	resp.Tables.Disabling = s.stats.x.Disabling()
	resp.Tables.Independence = s.stats.x.Independence()
	resp.Tables.StartProbabilities = s.stats.x.StartProbabilities()
	s.stats.mu.Unlock()
	for _, p := range analysis.PhaseIDs {
		resp.Phases = append(resp.Phases, string(p))
	}
	writeJSON(w, http.StatusOK, resp)
}
