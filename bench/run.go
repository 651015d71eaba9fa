package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is what the command line (or the test) asks of one run.
type config struct {
	workload string
	seed     int64
	seconds  float64 // budget of the whole run, set-up included; at least one round always runs
	trace    bool
	workDir  string // scratch root inside the checkout
	sz       sizes
}

// run is the state one workload run shares with its passes and probes.
type run struct {
	cfg  config
	man  *manifest
	corp corpus
	rng  *rand.Rand
	tr   *tracer
	root *span
	dir  string // this run's scratch directory, removed by close

	nproc int
	// width is how many threads the timed load keeps busy: the search
	// width of an in-process call and of a served flight, and the number
	// of mem-hit clients. It is one fewer than the CPUs, because each of
	// those has a partner that runs beside it (the engine's committer,
	// the server's side of a request), and a load of more threads than
	// CPUs times the scheduler of a shared host, not the program.
	width     int
	round     int             // index of the round being run, for the report's rows
	reference []time.Duration // every reference walk timed, see reference.go
	small     []string        // the small set
	attempted int             // operations attempted, for the failure share
	failed    int
	failures  []string // first few reasons, for the report
	notes     []string // per-function detail rows
	dirSeq    int
}

func newRun(cfg config) (*run, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, dir: dir, nproc: runtime.GOMAXPROCS(0), rng: rand.New(rand.NewSource(cfg.seed))}
	r.width = max(1, r.nproc-1)
	if cfg.trace {
		r.tr = newTracer()
		r.root = r.tr.begin(nil, "bench", "run:"+cfg.workload, "")
	}
	return r, nil
}

func (r *run) close() { os.RemoveAll(r.dir) }

// tempDir makes a fresh directory under the run's scratch directory.
func (r *run) tempDir(label string) (string, error) {
	r.dirSeq++
	d := filepath.Join(r.dir, fmt.Sprintf("%s-%d", label, r.dirSeq))
	return d, os.MkdirAll(d, 0o755)
}

// prepare is the part of set-up every workload shares: compile the
// corpus and load the manifest.
func (r *run) prepare(parent *span) error {
	sp := r.tr.begin(parent, "mc", "mibench.AllFunctions", "")
	corp, err := compileCorpus()
	sp.end()
	if err != nil {
		return err
	}
	man, err := loadManifest()
	if err != nil {
		return err
	}
	r.corp, r.man = corp, man
	r.small, err = man.smallSet(r.cfg.sz.small)
	return err
}

// op counts one operation toward the failure share; a non-nil err is a
// failure and its reason is kept for the report.
func (r *run) op(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

// rowf adds one timed request to the report's per-function rows: the
// latency as measured and the factor it is scaled by.
func (r *run) rowf(route, name string, equiv bool, s sample, attempts int) {
	r.notes = append(r.notes, fmt.Sprintf("round %-3d %-10s %-28s %-7s %9.2f ms  x %.3f  %7d attempts", r.round, route, name, tierName(equiv), ms(s.lat), s.scale, attempts))
}

// workload is one of the four named passes. setup is everything before
// the first timed request and is called sizes.setups times (the last
// call's state is the one rounds use); round is one closed-loop pass.
type workload interface {
	setup(r *run, parent *span) error
	round(r *run, parent *span) (roundStats, error)
	// layers runs, after the traced round, the probes of the layers this
	// workload exercises and reads the round's server into rep.
	layers(r *run, parent *span, traced roundStats, rep *report) error
}

// sample is one timed request: its latency as measured, and the factor
// the reference walk before it gives for this moment of the host (see
// reference.go). The end-to-end metrics are built from nominal times,
// the per-layer ones, which are compared with unscaled probes, from
// measured ones.
type sample struct {
	lat   time.Duration
	scale float64
}

func (s sample) nominal() float64 { return float64(s.lat) * s.scale }

// latencyBy is one pass's sample per function name.
type latencyBy map[string]sample

// sum is the pass's wall time as measured: with one closed-loop client,
// first call to last return minus the harness's own checking between
// requests.
func (l latencyBy) sum() time.Duration {
	var t time.Duration
	for _, s := range l {
		t += s.lat
	}
	return t
}

// roundStats is what one round contributes to the end-to-end metrics.
type roundStats struct {
	wall     time.Duration // whole round, for pacing
	def      latencyBy     // default-tier set (F5 or G3)
	defAlloc uint64        // bytes the process allocated during that pass
	equiv    latencyBy     // equiv requests
	small    []latencyBy   // one per pass of the small set
	warm     *warmStats    // serve_warm only
}

// warmStats is the mem-hit loop and the space downloads of one round.
type warmStats struct {
	memLat      []time.Duration
	memWall     time.Duration
	genOverhead time.Duration // per request, harness time outside send→last byte
	getBytes    int64
	getWall     time.Duration
	diskHitSet  time.Duration
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "enumerate":
		return &enumerateWorkload{}, nil
	case "serve_cold":
		return &serveColdWorkload{}, nil
	case "serve_warm":
		return &serveWarmWorkload{}, nil
	case "fleet_shard":
		return &fleetWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"enumerate", "serve_cold", "serve_warm", "fleet_shard"}

// measured is a finished run's raw material for the report.
type measured struct {
	setups []time.Duration
	rounds []roundStats
}

// measure runs set-up sizes.setups times, then rounds until the budget
// is spent. The budget covers the whole run, set-up included. A round
// starts only if the longest round so far still fits, so a run ends
// near --seconds rather than a round past it.
func (r *run) measure(w workload) (*measured, error) {
	m := &measured{}
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < r.cfg.sz.setups; i++ {
		scale := r.hostScale()
		sp := r.tr.begin(r.root, "bench", "setup", "")
		t0 := time.Now()
		err := w.setup(r, sp)
		m.setups = append(m.setups, time.Duration(sample{time.Since(t0), scale}.nominal()))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	var longest time.Duration
	for r.round = 0; r.round < r.cfg.sz.maxRounds; r.round++ {
		if r.round > 0 && time.Since(start)+longest > budget {
			break
		}
		sp := r.tr.begin(r.root, "bench", fmt.Sprintf("round:%d", r.round), "")
		t0 := time.Now()
		rs, err := w.round(r, sp)
		rs.wall = time.Since(t0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r.round, err)
		}
		longest = max(longest, rs.wall)
		m.rounds = append(m.rounds, rs)
		if r.cfg.trace {
			break // the traced pass is one round; probes take the rest of the run
		}
	}
	return m, nil
}

// settle collects garbage before a timed pass, so the pass starts from
// the same heap whatever ran before it (the previous pass's results,
// the gate's hashing) and does not pay for collecting it.
func settle() { runtime.GC() }
