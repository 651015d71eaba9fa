package telemetry

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer drives counters, gauges and histograms from
// many goroutines; run under -race this doubles as the data-race
// proof for the lock-free recording paths.
func TestConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 10_000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("hammer.count")
			h := reg.Histogram("hammer.hist")
			gauge := reg.Gauge("hammer.gauge")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(int64(i))
				gauge.Set(int64(i))
			}
		}(g)
	}
	wg.Wait()

	if got := reg.Counter("hammer.count").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	s := reg.Snapshot()
	h := s.Histograms["hammer.hist"]
	if h.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", h.Count, goroutines*perG)
	}
	wantSum := int64(goroutines) * int64(perG) * int64(perG-1) / 2
	if h.Sum != wantSum {
		t.Errorf("histogram sum = %d, want %d", h.Sum, wantSum)
	}
	var inBuckets int64
	for _, b := range h.Buckets {
		inBuckets += b.Count
	}
	if inBuckets != h.Count {
		t.Errorf("bucket total = %d, want %d", inBuckets, h.Count)
	}
}

// TestNilInstruments proves the nil-receiver no-op contract the hot
// paths rely on.
func TestNilInstruments(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(3)
	reg.Gauge("x").Set(3)
	reg.Histogram("x").Observe(3)
	reg.Histogram("x").ObserveSince(time.Now())
	if got := reg.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	s := reg.Snapshot()
	if len(s.Counters) != 0 {
		t.Errorf("nil registry snapshot has counters: %v", s.Counters)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 4, 1023, 1024} {
		h.Observe(v)
	}
	s := reg.Snapshot().Histograms["h"]
	// 0→pow0, 1→pow1, {2,3}→pow2, 4→pow3, 1023→pow10, 1024→pow11.
	want := []Bucket{{0, 1}, {1, 1}, {2, 2}, {3, 1}, {10, 1}, {11, 1}}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("buckets = %v, want %v", s.Buckets, want)
	}
}

func sampleSnapshots() []Snapshot {
	mk := func(seed int64) Snapshot {
		reg := NewRegistry()
		reg.Counter("a").Add(seed)
		reg.Counter("b").Add(seed * 7)
		reg.Gauge("g").Set(seed * 3 % 11)
		h := reg.Histogram("h")
		for i := int64(0); i < seed; i++ {
			h.Observe(i * seed)
		}
		return reg.Snapshot()
	}
	return []Snapshot{mk(3), mk(17), mk(40)}
}

// TestMergeAssociativity checks (a·b)·c == a·(b·c) and a·b == b·a for
// Snapshot.Merge, which phasestats relies on when folding an arbitrary
// number of per-run metric files in glob order.
func TestMergeAssociativity(t *testing.T) {
	ss := sampleSnapshots()
	a, b, c := ss[0], ss[1], ss[2]
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if !reflect.DeepEqual(left, right) {
		t.Errorf("merge not associative:\n(a·b)·c = %+v\na·(b·c) = %+v", left, right)
	}
	ab, ba := a.Merge(b), b.Merge(a)
	if !reflect.DeepEqual(ab, ba) {
		t.Errorf("merge not commutative:\na·b = %+v\nb·a = %+v", ab, ba)
	}
	if got, want := left.Counters["a"], int64(3+17+40); got != want {
		t.Errorf("merged counter a = %d, want %d", got, want)
	}
	if left.Histograms["h"].Count != 3+17+40 {
		t.Errorf("merged histogram count = %d", left.Histograms["h"].Count)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshots()[1]
	path := filepath.Join(t.TempDir(), "m.json")
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, s)
	}
}
