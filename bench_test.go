// Package repro's benchmark harness regenerates every table and figure
// of the paper's evaluation. Each benchmark prints or measures the
// artifact named in its comment; EXPERIMENTS.md records the outputs of
// a full run next to the paper's numbers.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The heavyweight exhaustive enumerations (full Table 3) live behind
// the cmd/explore tool; the benchmarks here use bounded searches so a
// full -bench=. pass finishes in minutes.
package repro

import (
	"bytes"
	"fmt"
	"io"
	bigint "math/big"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/driver"
	"repro/internal/genetic"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mc"
	"repro/internal/mibench"
	"repro/internal/opt"
	"repro/internal/randprog"
	"repro/internal/rtl"
	"repro/internal/search"
)

// benchFunc compiles one benchmark function fresh for each use.
func benchFunc(b *testing.B, bench, fn string) *rtl.Func {
	b.Helper()
	p, err := mibench.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	f := prog.Func(fn)
	if f == nil {
		b.Fatalf("no function %s in %s", fn, bench)
	}
	return f
}

// table3Cases is a representative slice of the corpus: small, medium
// and loop-heavy functions whose full spaces enumerate quickly. The
// complete Table 3 comes from cmd/explore.
var table3Cases = []struct{ bench, fn string }{
	{"bitcount", "bit_count"},
	{"bitcount", "ntbl_bitcnt"},
	{"dijkstra", "enqueue"},
	{"fft", "fix_sin"},
	{"sha", "rotl"},
	{"stringsearch", "bmh_search"},
	{"jpeg", "get_code"},
}

// BenchmarkSearchRun measures end-to-end exhaustive enumeration
// throughput on the representative corpus: the denominator of every
// feasibility claim in the paper. Allocations are reported because the
// enumeration is memory-bound at scale — the two-tier identical-
// instance index and the clone pool exist to keep this benchmark's
// bytes/op flat as spaces grow. attempts/op is the work actually done,
// so ns/op ÷ attempts/op is the per-attempt cost. This is the
// while-you-work view; the recorded numbers are the `enumerate`
// workload's in bench/baseline.json (`make bench`).
//
// Workers follows GOMAXPROCS, so `go test -cpu 1,2,4,8,16 -bench
// SearchRun` sweeps the parallel engine's scaling in one invocation;
// the harness reports the same ratio as search.width_speedup. The
// enumerated space is byte-identical at every width.
func BenchmarkSearchRun(b *testing.B) {
	for _, c := range table3Cases {
		c := c
		b.Run(c.fn, func(b *testing.B) {
			f := benchFunc(b, c.bench, c.fn)
			b.ReportAllocs()
			var attempts, nodes int
			for i := 0; i < b.N; i++ {
				r := search.Run(f, search.Options{Workers: runtime.GOMAXPROCS(0)})
				attempts = r.AttemptedPhases
				nodes = len(r.Nodes)
			}
			b.ReportMetric(float64(attempts), "attempts/op")
			b.ReportMetric(float64(nodes), "instances")
		})
	}
}

// BenchmarkTable3Enumerate regenerates Table 3 rows: one exhaustive
// phase order space enumeration per iteration. Reported metrics are
// the row's key statistics.
func BenchmarkTable3Enumerate(b *testing.B) {
	for _, c := range table3Cases {
		c := c
		b.Run(c.fn, func(b *testing.B) {
			f := benchFunc(b, c.bench, c.fn)
			var st search.Stats
			for i := 0; i < b.N; i++ {
				r := search.Run(f, search.Options{MaxNodes: 200000})
				st = search.ComputeStats(r)
			}
			b.ReportMetric(float64(st.FnInstances), "instances")
			b.ReportMetric(float64(st.AttemptedPhases), "attempted")
			b.ReportMetric(float64(st.MaxActiveLen), "maxlen")
			b.ReportMetric(st.PctDiff, "codesize-%diff")
		})
	}
}

// enumerateOnce caches one enumerated space for the analysis
// benchmarks.
var cachedSpace *search.Result

func space(b *testing.B) *search.Result {
	b.Helper()
	if cachedSpace == nil {
		f := benchFunc(b, "bitcount", "bit_count")
		cachedSpace = search.Run(f, search.Options{})
	}
	return cachedSpace
}

// BenchmarkTable4Enabling regenerates the enabling-probability matrix
// of Table 4 from an enumerated space.
func BenchmarkTable4Enabling(b *testing.B) {
	r := space(b)
	b.ResetTimer()
	var m [][]float64
	for i := 0; i < b.N; i++ {
		x := analysis.NewInteractions()
		x.Accumulate(r)
		m = x.Enabling()
	}
	reportNonzero(b, m)
}

// BenchmarkTable5Disabling regenerates the disabling-probability
// matrix of Table 5.
func BenchmarkTable5Disabling(b *testing.B) {
	r := space(b)
	b.ResetTimer()
	var m [][]float64
	for i := 0; i < b.N; i++ {
		x := analysis.NewInteractions()
		x.Accumulate(r)
		m = x.Disabling()
	}
	reportNonzero(b, m)
}

// BenchmarkTable6Independence regenerates the independence matrix of
// Table 6.
func BenchmarkTable6Independence(b *testing.B) {
	r := space(b)
	b.ResetTimer()
	var m [][]float64
	for i := 0; i < b.N; i++ {
		x := analysis.NewInteractions()
		x.Accumulate(r)
		m = x.Independence()
	}
	reportNonzero(b, m)
}

func reportNonzero(b *testing.B, m [][]float64) {
	n := 0
	for _, row := range m {
		for _, v := range row {
			if v > 0 {
				n++
			}
		}
	}
	b.ReportMetric(float64(n), "nonzero-cells")
}

// BenchmarkTable7Batch measures the old batch compiler over the whole
// suite: the left half of Table 7.
func BenchmarkTable7Batch(b *testing.B) {
	funcs, err := mibench.AllFunctions()
	if err != nil {
		b.Fatal(err)
	}
	d := machine.StrongARM()
	var attempted, active int
	for i := 0; i < b.N; i++ {
		attempted, active = 0, 0
		for _, tf := range funcs {
			f := tf.Func.Clone()
			res := driver.Batch(f, d)
			attempted += res.Attempted
			active += res.Active
		}
	}
	b.ReportMetric(float64(attempted)/float64(len(funcs)), "attempted/func")
	b.ReportMetric(float64(active)/float64(len(funcs)), "active/func")
}

// table7Probs mines probabilities once for the Table 7 benchmarks.
var table7Probs *driver.Probabilities

func probsFor(b *testing.B) *driver.Probabilities {
	b.Helper()
	if table7Probs == nil {
		x := analysis.NewInteractions()
		x.Accumulate(space(b))
		f := benchFunc(b, "sha", "rotl")
		x.Accumulate(search.Run(f, search.Options{}))
		table7Probs = driver.FromInteractions(x)
	}
	return table7Probs
}

// BenchmarkTable7Probabilistic measures the Figure 8 probabilistic
// compiler over the whole suite: the right half of Table 7. Comparing
// its attempted/func and ns/op against BenchmarkTable7Batch gives the
// paper's headline compile-time ratio.
func BenchmarkTable7Probabilistic(b *testing.B) {
	funcs, err := mibench.AllFunctions()
	if err != nil {
		b.Fatal(err)
	}
	probs := probsFor(b)
	d := machine.StrongARM()
	b.ResetTimer()
	var attempted, active int
	for i := 0; i < b.N; i++ {
		attempted, active = 0, 0
		for _, tf := range funcs {
			f := tf.Func.Clone()
			res := driver.Probabilistic(f, d, probs)
			attempted += res.Attempted
			active += res.Active
		}
	}
	b.ReportMetric(float64(attempted)/float64(len(funcs)), "attempted/func")
	b.ReportMetric(float64(active)/float64(len(funcs)), "active/func")
}

// BenchmarkFig1NaiveSpace evaluates the naive attempted-space size of
// Figure 1 (and the 15^32 worst case quoted in the introduction).
func BenchmarkFig1NaiveSpace(b *testing.B) {
	var digits int
	for i := 0; i < b.N; i++ {
		digits = len(search.NaiveSpaceSize(15, 32).String())
	}
	b.ReportMetric(float64(digits), "digits")
}

// BenchmarkFig2DormantPruning counts the dormant-pruned search tree of
// Figure 2 to depth 4 and reports how far below the naive 15^1..15^4
// space it falls.
func BenchmarkFig2DormantPruning(b *testing.B) {
	f := benchFunc(b, "bitcount", "bit_count")
	var pruned *bigint.Int
	for i := 0; i < b.N; i++ {
		pruned = search.DormantPrunedCount(f, 4, search.Options{})
	}
	prunedF, _ := new(bigint.Float).SetInt(pruned).Float64()
	naiveF, _ := new(bigint.Float).SetInt(search.NaiveSpaceTotal(15, 4)).Float64()
	b.ReportMetric(prunedF, "pruned-tree-nodes")
	b.ReportMetric(naiveF, "naive-sequences")
}

// BenchmarkFig4DAGCollapse enumerates a space and reports the collapse
// from attempted sequences to distinct instances — the tree-to-DAG
// effect of Figure 4.
func BenchmarkFig4DAGCollapse(b *testing.B) {
	f := benchFunc(b, "bitcount", "bit_count")
	var r *search.Result
	for i := 0; i < b.N; i++ {
		r = search.Run(f, search.Options{})
	}
	b.ReportMetric(float64(r.AttemptedPhases), "attempted")
	b.ReportMetric(float64(len(r.Nodes)), "instances")
	b.ReportMetric(float64(r.AttemptedPhases)/float64(len(r.Nodes)), "collapse-factor")
}

// BenchmarkFig6PrefixSharing compares the naive sequence evaluation of
// Figure 6(a) — reload the unoptimized function and replay the whole
// prefix for every evaluation — against the in-memory prefix-sharing
// evaluation of Figure 6(b). The paper reports the enhancements win a
// factor of 5 to 10.
func BenchmarkFig6PrefixSharing(b *testing.B) {
	f := benchFunc(b, "bitcount", "bit_count")
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.Run(f, search.Options{NaiveReplay: true})
		}
	})
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			search.Run(f, search.Options{})
		}
	})
}

// BenchmarkInterpreter measures the RTL interpreter on a whole
// benchmark program, the substrate for Table 7's dynamic counts.
func BenchmarkInterpreter(b *testing.B) {
	for _, name := range []string{"bitcount", "sha", "stringsearch"} {
		name := name
		b.Run(name, func(b *testing.B) {
			p, err := mibench.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := p.Compile()
			if err != nil {
				b.Fatal(err)
			}
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := interp.Run(prog, p.Driver, p.DriverArgs...)
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "dyn-instrs")
		})
	}
}

// BenchmarkAblationWorkers measures the search's worker scaling — the
// design choice of evaluating a level's attempts on a pool.
func BenchmarkAblationWorkers(b *testing.B) {
	f := benchFunc(b, "dijkstra", "enqueue")
	for _, w := range []int{1, 2, 4, 8, 16} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				search.Run(f, search.Options{Workers: w})
			}
		})
	}
}

// BenchmarkAblationPhaseCost profiles each phase's standalone cost on
// a mid-sized function (with register assignment included on first
// use), explaining where enumeration time goes.
func BenchmarkAblationPhaseCost(b *testing.B) {
	base := benchFunc(b, "stringsearch", "bmh_search")
	d := machine.StrongARM()
	for _, p := range opt.All() {
		p := p
		b.Run(string(p.ID()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := base.Clone()
				st := opt.State{SApplied: true, KApplied: true}
				opt.Attempt(f, &st, p, d)
			}
		})
	}
}

// BenchmarkBatchCompile measures end-to-end batch compilation of one
// whole program.
func BenchmarkBatchCompile(b *testing.B) {
	p, err := mibench.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	d := machine.StrongARM()
	for i := 0; i < b.N; i++ {
		prog, err := p.Compile()
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range prog.Funcs {
			driver.Batch(f, d)
		}
	}
}

// batchOrders are alternative fixed phase orders for the ablation: the
// paper's premise is that no single order suits every function, so
// different fixed orders should land on measurably different code.
var batchOrders = map[string][]byte{
	"default":        nil, // driver.BatchOrder
	"selection-last": {'o', 'b', 'c', 'k', 'h', 'l', 'q', 'g', 'n', 'i', 'j', 'r', 'u', 's'},
	"cf-first":       {'o', 'b', 'i', 'j', 'r', 'u', 's', 'c', 'k', 'h', 'l', 'q', 'g', 'n'},
	"loops-early":    {'o', 's', 'k', 'l', 'g', 'j', 'b', 'c', 'h', 'q', 'n', 'i', 'r', 'u'},
}

// BenchmarkAblationBatchOrder measures total suite code size under
// alternative fixed phase orders — the premise of the whole paper
// (Section 1: "a single order of optimization phases does not produce
// optimal code for every application").
func BenchmarkAblationBatchOrder(b *testing.B) {
	funcs, err := mibench.AllFunctions()
	if err != nil {
		b.Fatal(err)
	}
	d := machine.StrongARM()
	for name, order := range batchOrders {
		name, order := name, order
		b.Run(name, func(b *testing.B) {
			saved := driver.BatchOrder
			if order != nil {
				driver.BatchOrder = order
			}
			defer func() { driver.BatchOrder = saved }()
			total := 0
			for i := 0; i < b.N; i++ {
				total = 0
				for _, tf := range funcs {
					f := tf.Func.Clone()
					driver.Optimize(f, d)
					total += f.NumInstrs()
				}
			}
			b.ReportMetric(float64(total), "total-code-size")
		})
	}
}

// BenchmarkGeneticSearch measures the GA (plain and probability-biased)
// on a function whose optimum the exhaustive search knows.
func BenchmarkGeneticSearch(b *testing.B) {
	f := benchFunc(b, "bitcount", "bit_count")
	exact := search.Run(f, search.Options{})
	x := analysis.NewInteractions()
	x.Accumulate(exact)
	probs := driver.FromInteractions(x)
	optimum := float64(exact.OptimalCodeSize().NumInstrs)
	b.Run("plain", func(b *testing.B) {
		var gap float64
		for i := 0; i < b.N; i++ {
			res := genetic.Search(f, genetic.Options{Generations: 25, Seed: int64(i)})
			gap = res.BestFitness - optimum
		}
		b.ReportMetric(gap, "gap-from-optimum")
	})
	b.Run("biased", func(b *testing.B) {
		var gap float64
		for i := 0; i < b.N; i++ {
			res := genetic.Search(f, genetic.Options{Generations: 25, Seed: int64(i), Probabilities: probs})
			gap = res.BestFitness - optimum
		}
		b.ReportMetric(gap, "gap-from-optimum")
	})
}

// BenchmarkUploadVerify times the coordinator's check of a whole fleet
// upload — a worker's canonical bytes — two ways: decoding the space
// and rendering it again (Load, then Save into a buffer), and
// search.LoadCanonical, which proves the upload canonical in one
// overlapped pass, its re-encode streamed into the comparison. The save
// row is the render alone, what a worker's final write and every cache
// entry cost: Save of the space into a discarding writer. get_code is
// the fleet_shard workload's timed default-tier request, fdct_pass its
// equivalence-tier one. The checkpoint-load row is Load of
// sha_transform's resumable document capped at 1,500 nodes, frontier
// rebuild included: what the coordinator pays per heartbeat upload and
// Enumerate per resumed slot. EXPERIMENTS.md records the numbers; -cpu 1
// shows the pass with nothing to overlap.
func BenchmarkUploadVerify(b *testing.B) {
	for _, c := range []struct {
		bench, fn string
		equiv     bool
	}{
		{"jpeg", "get_code", false},
		{"jpeg", "fdct_pass", true},
	} {
		var canon bytes.Buffer
		if err := search.Run(benchFunc(b, c.bench, c.fn), search.Options{Equiv: c.equiv}).Save(&canon); err != nil {
			b.Fatal(err)
		}
		up := canon.Bytes()
		if !c.equiv {
			res, err := search.Load(bytes.NewReader(up))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(c.fn+"/save", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := res.Save(io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(c.fn+"/load+save", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.Load(bytes.NewReader(up))
				if err != nil {
					b.Fatal(err)
				}
				var out bytes.Buffer
				if err := res.Save(&out); err != nil || !bytes.Equal(out.Bytes(), up) {
					b.Fatalf("Save did not give the upload back (%v)", err)
				}
			}
		})
		b.Run(c.fn+"/loadcanonical", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, got, err := search.LoadCanonical(up)
				if err != nil || !bytes.Equal(got, up) {
					b.Fatalf("LoadCanonical did not give the upload back (%v)", err)
				}
			}
		})
	}
	path := filepath.Join(b.TempDir(), "sha.sha_transform.space.gz")
	search.Run(benchFunc(b, "sha", "sha_transform"), search.Options{MaxNodes: 1500, CheckpointPath: path})
	ckpt, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sha_transform/checkpoint-load", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(ckpt)), "file-bytes")
		for i := 0; i < b.N; i++ {
			if res, err := search.Load(bytes.NewReader(ckpt)); err != nil || res.Checkpoint == nil {
				b.Fatalf("the capped run's checkpoint does not load as one (%v)", err)
			}
		}
	})
}

// BenchmarkSlotPeakHeap measures what a checkpoint slot adds to a large
// space's peak heap: sha_main, the corpus's largest space, enumerated
// without and with Options.CheckpointPath, heap in use (HeapInuse)
// sampled every 20 ms and its peak reported. sha_main writes one
// checkpoint, its final write, which renders the complete space while
// the whole result is still live. Run it with -benchtime 1x;
// EXPERIMENTS.md records the numbers.
func BenchmarkSlotPeakHeap(b *testing.B) {
	f := benchFunc(b, "sha", "sha_main")
	for _, slot := range []bool{false, true} {
		b.Run(fmt.Sprintf("slot=%v", slot), func(b *testing.B) {
			var peak uint64
			for i := 0; i < b.N; i++ {
				var opts search.Options
				if slot {
					opts.CheckpointPath = filepath.Join(b.TempDir(), "sha.sha_main.space.gz")
				}
				runtime.GC()
				peak = max(peak, peakHeapInuse(func() { search.Run(f, opts) }))
			}
			b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
		})
	}
}

// BenchmarkLongFunction is the long row (ROADMAP item 7): the engine,
// at one worker and capped at 300 instances, on two generated
// functions (randprog seeds 5 and 36) far longer than anything in the
// corpus. It reports what an attempt costs, and that cost per 100
// instructions of the root, which is what tells a per-attempt cost
// linear in the function from one that is not; EXPERIMENTS.md records
// the corpus's rows beside it.
func BenchmarkLongFunction(b *testing.B) {
	for _, seed := range []int64{5, 36} {
		p := randprog.New(seed, randprog.Config{})
		prog, err := mc.Compile(p.Source)
		if err != nil {
			b.Fatal(err)
		}
		f := prog.Func(p.Entry)
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			attempts, instrs := 0, 0
			for i := 0; i < b.N; i++ {
				r := search.Run(f, search.Options{Workers: 1, MaxNodes: 300})
				attempts += r.AttemptedPhases
				instrs = r.Nodes[0].NumInstrs
			}
			us := float64(b.Elapsed().Microseconds()) / float64(attempts)
			b.ReportMetric(float64(instrs), "instrs")
			b.ReportMetric(us, "us/attempt")
			b.ReportMetric(100*us/float64(instrs), "us/100instrs")
		})
	}
}

// peakHeapInuse runs f and returns the most heap in use sampled every
// 20 ms while it ran, and once when it returned.
func peakHeapInuse(f func()) uint64 {
	sample := func(peak uint64) uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return max(peak, ms.HeapInuse)
	}
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var p uint64
		for {
			select {
			case <-done:
				peak <- p
				return
			case <-tick.C:
				p = sample(p)
			}
		}
	}()
	f()
	last := sample(0)
	close(done)
	return max(<-peak, last)
}
