package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness has to
// agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestDeclarationsMatchBenchmarkFile holds the harness's metric tables
// and workload names in step with BENCHMARK.json.
func TestDeclarationsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", names, workloadNames)
	}
	check := func(kind string, file []benchmarkMetric, defs []metricDef, bounds bool) {
		want := make(map[string]benchmarkMetric, len(file))
		for _, m := range file {
			want[m.Name] = m
		}
		if len(want) != len(defs) {
			t.Errorf("%s: BENCHMARK.json names %d metrics, the harness declares %d", kind, len(want), len(defs))
		}
		for _, d := range defs {
			m, ok := want[d.Name]
			if !ok {
				t.Errorf("%s: %s is not in BENCHMARK.json", kind, d.Name)
				continue
			}
			if m.Unit != d.Unit || m.Better != d.Better || (bounds && m.Bound != d.Bound) {
				t.Errorf("%s: %s is %+v in BENCHMARK.json, %+v in the harness", kind, d.Name, m, d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndDefs, true)
	check("per_layer", bf.PerLayer, perLayerDefs, false)
}

// TestTinyPass runs every workload at the tiny size, untraced and
// traced, through the same code the benchmark runs, and checks the
// contract's last line: exactly the declared metrics, each finite (and
// the end-to-end ones non-zero), no failed operation.
func TestTinyPass(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := wl + "/end_to_end"
			declared := bf.EndToEnd
			if traced {
				name, declared = wl+"/per_layer", bf.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				rep, err := runWorkload(config{workload: wl, seed: 7, trace: traced, workDir: dir, sz: tinySizes},
					filepath.Join(dir, "trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				rep.print(&out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(last) != 4 {
					t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", keysOf(last))
				}
				var line contractLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", line.Correct, line.Attempted, line.Failed, rep.Failures)
				}
				if len(line.Metrics) != len(declared) {
					t.Errorf("%d metrics printed, BENCHMARK.json declares %d", len(line.Metrics), len(declared))
				}
				for _, d := range declared {
					mv, ok := line.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not printed", d.Name)
					case mv.Unit != d.Unit:
						t.Errorf("%s printed in %q, declared in %q", d.Name, mv.Unit, d.Unit)
					case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
						t.Errorf("%s = %v", d.Name, mv.Value)
					case !traced && mv.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", d.Name, mv.Value)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestGateRejectsWrongAnswer: a hash, node count or attempt count that
// differs from the manifest is a failed operation.
func TestGateRejectsWrongAnswer(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	good := m.Spaces["jpeg/get_code"]["default"]
	if err := m.check("jpeg/get_code", false, good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []spaceID{
		{Hash: "0" + good.Hash[1:], Nodes: good.Nodes, Attempts: good.Attempts},
		{Hash: good.Hash, Nodes: good.Nodes + 1, Attempts: good.Attempts},
		{Hash: good.Hash, Nodes: good.Nodes, Attempts: good.Attempts - 1},
	} {
		if m.check("jpeg/get_code", false, bad) == nil {
			t.Errorf("gate accepted %+v", bad)
		}
	}
	if m.check("no/such", false, good) == nil {
		t.Error("gate accepted a function the manifest does not list")
	}
}

func TestSummarizeKeepsTenSamplesBeyondThePercentile(t *testing.T) {
	sample := func(n int) []time.Duration {
		d := make([]time.Duration, n)
		for i := range d {
			d[i] = time.Duration(i+1) * time.Microsecond
		}
		return d
	}
	for _, tc := range []struct {
		n     int
		highP float64
	}{{16, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {30000, 0.999}, {150000, 0.9999}} {
		got := summarize(sample(tc.n))
		if got.HighP != tc.highP || got.N != tc.n {
			t.Errorf("n=%d: highest percentile %v, want %v", tc.n, got.HighP, tc.highP)
		}
	}
	if _, ok := percentile(sample(999), 0.99); ok {
		t.Error("p99 of 999 samples has fewer than ten beyond it")
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin(nil, "bench", "root", "")
	a := tr.begin(root, "server", "a", "")
	b := tr.begin(root, "server", "b", "")
	root.StartUS, root.EndUS = 0, 100
	a.StartUS, a.EndUS = 10, 60 // a and b overlap on 40..60
	b.StartUS, b.EndUS = 40, 90
	tr.finish()
	if root.SelfUS != 20 {
		t.Errorf("root self time %d us, want 20", root.SelfUS)
	}
	if a.SelfUS != 50 || b.SelfUS != 50 {
		t.Errorf("leaf self times %d, %d, want 50, 50", a.SelfUS, b.SelfUS)
	}
}

func TestParseOpenMetricsSumsLabelSets(t *testing.T) {
	body := []byte("# TYPE dist_heartbeats counter\n" +
		"dist_heartbeats_total{worker=\"w1\"} 3\n" +
		"dist_heartbeats_total{worker=\"w2\"} 4\n" +
		"cache_disk_bytes 1024\n" +
		"server_cpu_wait_ns_bucket{le=\"1023\"} 2\n" +
		"server_cpu_wait_ns_sum 1500\n# EOF\n")
	samples, err := parseOpenMetrics(body)
	if err != nil {
		t.Fatal(err)
	}
	sc := &serverScrape{samples: samples}
	if got := sc.counter("dist.heartbeats"); got != 7 {
		t.Errorf("dist.heartbeats = %v, want 7", got)
	}
	if got := sc.gauge("cache_disk_bytes"); got != 1024 {
		t.Errorf("cache_disk_bytes = %v, want 1024", got)
	}
	if got := sc.histSum("server.cpu.wait_ns"); got != 1500 {
		t.Errorf("server.cpu.wait_ns sum = %v, want 1500", got)
	}
}
