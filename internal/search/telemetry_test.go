package search_test

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/rtl"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// TestRunCanceled checks Options.Ctx cancellation: a pre-canceled
// context aborts before any level is evaluated, and Run still returns
// a well-formed result (so a deferred metrics writer can flush).
func TestRunCanceled(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := search.Run(f, search.Options{Ctx: ctx})
	if !r.Aborted {
		t.Fatal("pre-canceled search did not abort")
	}
	if !strings.Contains(r.AbortReason, "canceled") {
		t.Errorf("abort reason %q does not mention cancellation", r.AbortReason)
	}
	if len(r.Nodes) != 1 {
		t.Errorf("canceled search enumerated %d nodes, want only the root", len(r.Nodes))
	}
	if r.Elapsed <= 0 {
		t.Error("canceled search did not record elapsed time")
	}
}

// TestRunCanceledMidway cancels from inside the Verifier hook, which
// runs on a worker mid-enumeration: the abort must be cooperative (no
// panic, no hang) and the partially evaluated chunk must be discarded
// rather than merged into the space.
func TestRunCanceledMidway(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	full := search.Run(f, search.Options{})
	if full.Aborted {
		t.Fatalf("baseline enumeration aborted: %s", full.AbortReason)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	r := search.Run(f, search.Options{
		Ctx: ctx,
		Verifier: func(*rtl.Func) error {
			if seen.Add(1) == 10 {
				cancel()
			}
			return nil
		},
	})
	if !r.Aborted || !strings.Contains(r.AbortReason, "canceled") {
		t.Fatalf("midway cancel: aborted=%v reason=%q", r.Aborted, r.AbortReason)
	}
	if len(r.Nodes) >= len(full.Nodes) {
		t.Errorf("canceled run has %d nodes, full run %d: nothing was cut short",
			len(r.Nodes), len(full.Nodes))
	}
	// The truncated result must still be structurally sound: every edge
	// targets a node that actually made it into the table.
	for _, n := range r.Nodes {
		for _, e := range n.Edges {
			if e.To < 0 || e.To >= len(r.Nodes) {
				t.Fatalf("node %d has edge to %d outside %d-node table", n.ID, e.To, len(r.Nodes))
			}
		}
	}
}

// books reads the registry's side of an enumeration's counts.
func books(reg *telemetry.Registry) map[string]int64 {
	out := make(map[string]int64)
	c := reg.Snapshot().Counters
	for _, k := range []string{"nodes", "edges", "attempts", "active", "dormant", "merged", "quarantined"} {
		out[k] = c["search."+k]
	}
	return out
}

// owed is what the registry must hold for the work between from (nil: a
// run from scratch) and to: the difference of their Stats and node
// counts.
func owed(from, to *search.Result) map[string]int64 {
	var zero search.Result
	if from == nil {
		from = &zero
	}
	a, b := from.Stats, to.Stats
	return map[string]int64{
		"nodes":       int64(len(to.Nodes) - len(from.Nodes)),
		"edges":       int64(b.Edges - a.Edges),
		"attempts":    int64(b.Attempts - a.Attempts),
		"active":      int64(b.Active - a.Active),
		"dormant":     int64(b.Dormant - a.Dormant),
		"merged":      int64(b.Merged - a.Merged),
		"quarantined": int64(b.Quarantined - a.Quarantined),
	}
}

// levelRecords hands fn the integer attributes of every "level
// complete" record, on the goroutine that logs it (the one that called
// Run).
type levelRecords struct {
	slog.Handler
	fn func(map[string]int64)
}

func (h levelRecords) Handle(_ context.Context, rec slog.Record) error {
	if rec.Message == "level complete" {
		m := make(map[string]int64)
		rec.Attrs(func(a slog.Attr) bool {
			if a.Value.Kind() == slog.KindInt64 {
				m[a.Key] = a.Value.Int64()
			}
			return true
		})
		h.fn(m)
	}
	return nil
}

// TestRunTelemetry holds the invariant the engine's accounting rests
// on: the committer's RunStats is the only copy of the counts, and the
// registry is fed the difference at every level boundary and when the
// run ends. So at each "level complete" record the registry already
// agrees with the record; after a run — complete at either width, or
// cut short mid-level — it equals Result.Stats and len(Nodes); after a
// Resume it holds the resumed run's own work only; and Stats does not
// depend on the width.
func TestRunTelemetry(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	faults := faultinject.MustParse("panic=c") // some quarantines to count
	var byWidth []*search.Result
	for _, workers := range []int{1, 4} {
		reg := telemetry.NewRegistry()
		levels := 0
		log := slog.New(levelRecords{slog.NewTextHandler(io.Discard, nil), func(rec map[string]int64) {
			levels++
			s := reg.Snapshot()
			for attr, got := range map[string]int64{
				"nodes":         s.Counters["search.nodes"],
				"dormant":       s.Counters["search.dormant"],
				"merged":        s.Counters["search.merged"],
				"level":         s.Gauges["search.level"],
				"next_frontier": s.Gauges["search.frontier"],
			} {
				if got != rec[attr] {
					t.Errorf("workers=%d, level %d complete: registry has %d for %s, the record says %d",
						workers, rec["level"], got, attr, rec[attr])
				}
			}
		}})
		r := search.Run(f, search.Options{Workers: workers, Metrics: reg, Logger: log, Faults: faults})
		if r.Aborted {
			t.Fatalf("aborted: %s", r.AbortReason)
		}
		if levels != r.Stats.Levels+1 {
			t.Errorf("workers=%d: %d level records for depth %d", workers, levels, r.Stats.Levels)
		}
		if got, want := books(reg), owed(nil, r); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: registry %v, result %v", workers, got, want)
		}
		if h := reg.Snapshot().Histograms["search.expand.duration_ns"]; h.Count != int64(r.AttemptedPhases) {
			t.Errorf("workers=%d: %d expand observations for %d attempts", workers, h.Count, r.AttemptedPhases)
		}
		// Stats must agree with itself: attempts partition by outcome,
		// and every active attempt is an edge that either discovered a
		// node or merged into one; a quarantine is an edge and a node.
		st := r.Stats
		if st.Attempts != r.AttemptedPhases || st.Active+st.Dormant+st.Quarantined != st.Attempts {
			t.Errorf("attempts %d (result %d) != active %d + dormant %d + quarantined %d",
				st.Attempts, r.AttemptedPhases, st.Active, st.Dormant, st.Quarantined)
		}
		if st.Edges != st.Active+st.Quarantined || st.Edges != (len(r.Nodes)-1)+st.Merged {
			t.Errorf("edges %d, active %d, quarantined %d, merged %d, nodes %d do not add up",
				st.Edges, st.Active, st.Quarantined, st.Merged, len(r.Nodes))
		}
		if st.Dormant == 0 || st.Merged == 0 || st.Quarantined == 0 {
			t.Errorf("a count never fired: %+v", st)
		}
		if st.ExpandNS <= 0 || st.StateKeyNS <= 0 {
			t.Errorf("timing fields not populated with metrics on: expand=%d statekey=%d",
				st.ExpandNS, st.StateKeyNS)
		}
		byWidth = append(byWidth, r)
	}
	a, b := byWidth[0].Stats, byWidth[1].Stats
	a.ExpandNS, a.StateKeyNS, b.ExpandNS, b.StateKeyNS = 0, 0, 0, 0
	if a != b {
		t.Errorf("Stats depend on the width:\nworkers=1 %+v\nworkers=4 %+v", a, b)
	}

	// Cut short mid-level: the level in hand is partly committed, and
	// only the final flush can have told the registry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ckpt := filepath.Join(t.TempDir(), "sum.ckpt.space.gz")
	reg := telemetry.NewRegistry()
	cut := search.Run(f, search.Options{Workers: 1, Metrics: reg, Faults: faults,
		Ctx: ctx, Verifier: cancelAfter(cancel, 9), CheckpointPath: ckpt})
	if !cut.Aborted {
		t.Fatal("the cancel came too late to cut the run short")
	}
	if got, want := books(reg), owed(nil, cut); !reflect.DeepEqual(got, want) {
		t.Errorf("canceled mid-level: registry %v, result %v", got, want)
	}

	// Resumed from the last boundary: the registry is owed what the
	// resumed run adds, not what the checkpoint already counted.
	mid, err := search.LoadFile(ckpt)
	if err != nil || mid.Checkpoint == nil {
		t.Fatalf("no checkpoint to resume (%v)", err)
	}
	if owed(mid, cut)["active"] == 0 {
		t.Fatal("the canceled run committed nothing past its last boundary: the final flush went untested")
	}
	before := *mid
	reg = telemetry.NewRegistry()
	done, err := search.Resume(mid, search.Options{Workers: 4, Metrics: reg, Faults: faults})
	if err != nil || done.Aborted {
		t.Fatalf("resume: %v, aborted=%v", err, done.Aborted)
	}
	if got, want := books(reg), owed(&before, done); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed: registry %v, the resumed run's own work %v", got, want)
	}
	whole := byWidth[0].Stats
	whole.ExpandNS, whole.StateKeyNS = done.Stats.ExpandNS, done.Stats.StateKeyNS
	if done.Stats != whole || len(done.Nodes) != len(byWidth[0].Nodes) {
		t.Errorf("resumed Stats %+v (%d nodes), uninterrupted %+v (%d nodes)",
			done.Stats, len(done.Nodes), whole, len(byWidth[0].Nodes))
	}
}

// TestRunStatsWithoutMetrics: the counting side of RunStats is filled
// on every run; only the timing fields are gated on a registry.
func TestRunStatsWithoutMetrics(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	r := search.Run(f, search.Options{})
	st := r.Stats
	if st.Attempts == 0 || st.Active == 0 || st.Dormant == 0 {
		t.Fatalf("bare run left Stats counts empty: %+v", st)
	}
	if st.Active+st.Dormant != st.Attempts {
		t.Errorf("active %d + dormant %d != attempts %d", st.Active, st.Dormant, st.Attempts)
	}
	if st.ExpandNS != 0 || st.StateKeyNS != 0 {
		t.Errorf("bare run measured timings: expand=%d statekey=%d (hot path should be untimed)",
			st.ExpandNS, st.StateKeyNS)
	}
	if st.Levels == 0 || st.MaxFrontier == 0 || st.NodesExpanded == 0 {
		t.Errorf("level accounting empty: %+v", st)
	}
}

// TestStatsSurviveSerialization: a resumable checkpoint keeps the run's
// provenance — elapsed time and timed stats survive Load and Save,
// since Resume adds to them — and a saved complete space carries none
// of it: its bytes are the canonical ones.
func TestStatsSurviveSerialization(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	path := filepath.Join(t.TempDir(), "sum.ckpt.space.gz")
	search.Run(f, search.Options{Ctx: ctx, Verifier: cancelAfter(cancel, 25), CheckpointPath: path, Metrics: telemetry.NewRegistry()})
	ckpt, err := search.LoadFile(path)
	if err != nil || ckpt.Checkpoint == nil {
		t.Fatalf("no resumable checkpoint (%v)", err)
	}
	if ckpt.Elapsed <= 0 || ckpt.Stats.ExpandNS <= 0 || ckpt.Stats.StateKeyNS <= 0 {
		t.Errorf("the checkpoint lost its timing: elapsed %v, %+v", ckpt.Elapsed, ckpt.Stats)
	}
	roundTrip := func(r *search.Result) *search.Result {
		t.Helper()
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := search.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	if back := roundTrip(ckpt); back.Stats != ckpt.Stats || back.Elapsed != ckpt.Elapsed {
		t.Fatalf("a checkpoint's stats did not survive Save and Load:\nsaved  %v %+v\nloaded %v %+v",
			ckpt.Elapsed, ckpt.Stats, back.Elapsed, back.Stats)
	}

	done := search.Run(f, search.Options{Metrics: telemetry.NewRegistry()})
	back := roundTrip(done)
	want := done.Stats
	want.ExpandNS, want.StateKeyNS = 0, 0
	if back.Elapsed != 0 || back.Stats != want {
		t.Fatalf("a saved complete space kept wall-clock fields: elapsed %v\nsaved  %+v\nloaded %+v", back.Elapsed, done.Stats, back.Stats)
	}
	if done.Stats.ExpandNS <= 0 {
		t.Error("the timed run measured nothing")
	}
}
