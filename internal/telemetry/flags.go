package telemetry

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"
)

// Flags is the shared observability flag block of the CLIs
// (cmd/explore, cmd/vpocc, cmd/probcc, cmd/spaced): -metrics, -progress
// and -pprof behave identically everywhere.
type Flags struct {
	MetricsPath string
	Progress    bool
	PprofAddr   string
}

// Register installs the flag block on fs.
func (fl *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&fl.MetricsPath, "metrics", "", "write a metrics snapshot (counters, gauges, histograms) to this JSON file on exit")
	fs.BoolVar(&fl.Progress, "progress", false, "log one line per completed search level to stderr")
	fs.StringVar(&fl.PprofAddr, "pprof", "", "serve net/http/pprof (profiles and the runtime execution trace) and /debug/vars (registry dump) on this address, e.g. localhost:6060")
}

// Session owns the instruments a CLI run collects into. Registry is
// nil when neither -metrics nor -pprof is set, which the instrumented
// packages treat as telemetry-disabled — the hot paths then pay only
// nil checks. Progress asks the command to hand its searches a logger
// on stderr (NewLogger "text"): the engine logs one record per
// completed level.
type Session struct {
	Registry *Registry
	Progress bool

	flags Flags
	ln    net.Listener
	srv   *http.Server
}

// expvarOnce guards expvar.Publish, which panics on duplicate names;
// a process opens at most one pprof-serving session.
var expvarOnce sync.Once

// Start materializes the instruments the flags ask for and, with
// -pprof, begins serving the profiling endpoints. Always returns a
// usable Session (possibly with nil instruments).
func (fl *Flags) Start() (*Session, error) {
	s := &Session{flags: *fl, Progress: fl.Progress}
	if fl.MetricsPath != "" || fl.PprofAddr != "" {
		s.Registry = NewRegistry()
	}
	if fl.PprofAddr != "" {
		reg := s.Registry
		expvarOnce.Do(func() {
			expvar.Publish("telemetry", expvar.Func(func() any { return reg.Snapshot() }))
		})
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/vars", expvar.Handler())
		ln, err := net.Listen("tcp", fl.PprofAddr)
		if err != nil {
			return nil, fmt.Errorf("telemetry: -pprof %s: %w", fl.PprofAddr, err)
		}
		s.ln = ln
		s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go s.srv.Serve(ln) //nolint:errcheck // closed by Session.Close
		fmt.Fprintf(os.Stderr, "telemetry: pprof and /debug/vars on http://%s/debug/pprof/\n", ln.Addr())
	}
	return s, nil
}

// Close flushes the metrics file and stops the pprof server. Deferred
// right after Start so interrupted runs (context cancellation, Ctrl-C
// routed through signal.NotifyContext) still persist what they
// measured.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var first error
	if s.flags.MetricsPath != "" && s.Registry != nil {
		if err := s.Registry.Snapshot().WriteFile(s.flags.MetricsPath); err != nil {
			first = err
		} else {
			fmt.Fprintf(os.Stderr, "telemetry: metrics snapshot written to %s\n", s.flags.MetricsPath)
		}
	}
	if s.srv != nil {
		if err := s.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
