package search

import (
	"testing"
	"time"
)

// TestCheckpointDue pins the periodic cadence rule as a pure function
// of the work at risk and the last write's cost.
func TestCheckpointDue(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		name             string
		atRisk, lastCost time.Duration
		want             bool
	}{
		{"no write yet, under the floor", 99 * ms, 0, false},
		{"no write yet, at the floor", 100 * ms, 0, true},
		{"cheap write, under the floor", 50 * ms, 1 * ms, false},
		{"cheap write, floor decides", 100 * ms, 11 * ms, true},
		{"just under the ratio", 9*40*ms - 1, 40 * ms, false},
		{"exactly at the ratio", 9 * 40 * ms, 40 * ms, true},
		{"cost grew tenfold, old interval no longer enough", 9 * 40 * ms, 400 * ms, false},
		{"cost grew tenfold, interval grew with it", 9 * 400 * ms, 400 * ms, true},
		{"minutes-long write", time.Hour, 7 * time.Minute, false},
	} {
		if got := checkpointDue(tc.atRisk, tc.lastCost); got != tc.want {
			t.Errorf("%s: checkpointDue(%v, %v) = %v, want %v", tc.name, tc.atRisk, tc.lastCost, got, tc.want)
		}
	}
}
