package search_test

import (
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/search"
	"repro/internal/telemetry"
)

// TestRunLogsLevelBoundaries checks the Options.Logger contract: a
// flight-ID-stamped logger receives one record per completed level,
// each carrying the flight ID planted on Options.Ctx.
func TestRunLogsLevelBoundaries(t *testing.T) {
	_, f := compileFunc(t, smallSrc, "clamp")
	var b strings.Builder
	log := telemetry.NewLogger(&b, "json", slog.LevelDebug)
	ctx := telemetry.WithFlightID(context.Background(), "f42")

	r := search.Run(f, search.Options{Ctx: ctx, Logger: log})
	if r.Aborted {
		t.Fatalf("aborted: %s", r.AbortReason)
	}

	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var levels int
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] != "level complete" {
			continue
		}
		levels++
		if rec["flight_id"] != "f42" {
			t.Fatalf("level record missing flight ID: %v", rec)
		}
		if rec["fn"] != "clamp" {
			t.Fatalf("level record missing fn: %v", rec)
		}
		for _, k := range []string{"level", "frontier", "attempts", "nodes", "dormant", "merged", "elapsed"} {
			if _, ok := rec[k]; !ok {
				t.Fatalf("level record missing %q: %v", k, rec)
			}
		}
	}
	if levels == 0 {
		t.Fatalf("no level-boundary records in %d lines:\n%s", len(lines), b.String())
	}
	// Levels are 0-indexed: a clean run that reached depth d logged
	// boundary records for levels 0..d inclusive.
	if levels != r.Stats.Levels+1 {
		t.Fatalf("logged %d level boundaries, search reached depth %d", levels, r.Stats.Levels)
	}
}

// TestRunLogsAbort checks that an aborted run logs the reason.
func TestRunLogsAbort(t *testing.T) {
	_, f := compileFunc(t, sumSrc, "sum")
	var b strings.Builder
	log := telemetry.NewLogger(&b, "json", slog.LevelDebug)
	r := search.Run(f, search.Options{MaxNodes: 10, Logger: log})
	if !r.Aborted {
		t.Fatal("expected node-cap abort")
	}
	if !strings.Contains(b.String(), `"msg":"search aborted"`) {
		t.Fatalf("no abort record in log:\n%s", b.String())
	}
	if !strings.Contains(b.String(), r.AbortReason) {
		t.Fatalf("abort record does not carry the reason %q:\n%s", r.AbortReason, b.String())
	}
}
