package telemetry

import (
	"flag"
	"net/http"
	"path/filepath"
	"testing"
)

// TestSessionFlags drives the CLI glue end to end: flag registration,
// Start, recording, and the Close flush of the metrics file.
func TestSessionFlags(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")

	var fl Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fl.Register(fs)
	if err := fs.Parse([]string{"-metrics", metrics, "-progress"}); err != nil {
		t.Fatal(err)
	}
	s, err := fl.Start()
	if err != nil {
		t.Fatal(err)
	}
	if s.Registry == nil || !s.Progress {
		t.Fatalf("session did not materialize instruments: %+v", s)
	}
	s.Registry.Counter("search.nodes").Add(7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap, err := ReadSnapshotFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["search.nodes"] != 7 {
		t.Errorf("metrics file counters = %v", snap.Counters)
	}
}

// TestSessionPprof confirms the -pprof endpoint serves both the pprof
// index and the expvar registry dump.
func TestSessionPprof(t *testing.T) {
	fl := Flags{PprofAddr: "127.0.0.1:0"}
	s, err := fl.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Registry.Counter("probe").Inc()

	base := "http://" + s.ln.Addr().String()
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
