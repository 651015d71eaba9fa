package repro

import (
	"bytes"
	"os"
	"testing"
)

// docCeilings are the most lines each long document may have. They
// only go down: a change that shortens a document lowers its ceiling
// to the new length, and one that needs room makes it by cutting
// narrative that no longer describes the code. ROADMAP's target is
// DESIGN.md at 1,200 lines and EXPERIMENTS.md at 700.
var docCeilings = map[string]int{
	"DESIGN.md":      1970,
	"EXPERIMENTS.md": 2292,
	"README.md":      366,
}

// TestDocBudgets fails when a document outgrows its ceiling.
func TestDocBudgets(t *testing.T) {
	for name, ceiling := range docCeilings {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(raw, []byte("\n")); n > ceiling {
			t.Errorf("%s has %d lines, over its ceiling of %d: cut stale narrative to make room", name, n, ceiling)
		}
	}
}
