// Package telemetry is the zero-dependency observability layer of the
// reproduction: lock-cheap counters, gauges and log₂-bucketed duration
// histograms collected in a Registry (plain and labeled), its JSON
// snapshot and OpenMetrics renderings, request-scoped slog plumbing,
// and the flag block the CLIs share.
//
// The paper's headline claim — that exhaustive phase order enumeration
// is *feasible* — is an empirical statement about where time and space
// go: nodes expanded, dormant prunes, identical-instance merges,
// per-phase cost. This package is the measurement substrate that lets
// the search, the phase engine, the compilers and the verifier report
// those quantities without taking a dependency on anything outside the
// standard library.
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge or
// *Histogram are no-ops, so hot paths instrument unconditionally and
// pay only a nil check when telemetry is off.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (frontier size, current level).
type Gauge struct{ v atomic.Int64 }

// Set stores n. No-op on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n. No-op on a nil receiver.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// numBuckets covers every int64: bucket 0 counts exact zeros (and
// negatives, which durations never produce), bucket i counts values v
// with 2^(i-1) <= v < 2^i.
const numBuckets = 64

// Histogram is a log₂-bucketed distribution. Observations are a single
// atomic add per bucket plus count/sum, so concurrent workers hammer it
// without a lock.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	if i >= numBuckets {
		i = numBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Mean returns the live arithmetic mean of the observations (0 when
// empty or on a nil receiver). Count and sum are read separately, so
// under concurrent observation the mean is approximate — fine for the
// load estimates it feeds.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// Registry holds named instruments. Registration takes a mutex;
// recording on the returned instruments is lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil, which is itself a valid no-op instrument.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Bucket is one non-empty histogram cell. Pow is the upper-bound
// exponent: the cell counts values v with 2^(Pow-1) <= v < 2^Pow
// (Pow 0 counts exact zeros).
type Bucket struct {
	Pow   int   `json:"pow"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the serializable state of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the arithmetic mean of the observations, or 0 when
// empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of a registry, the unit the
// -metrics flag writes and phasestats -from-metrics aggregates.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Safe to call while
// recording continues; each instrument is read atomically (the
// snapshot as a whole is not one atomic cut, which aggregation
// tolerates).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Pow: i, Count: n})
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// Merge combines two snapshots: counters and histogram cells add,
// gauges keep the larger magnitude reading (a high-water semantics
// that is commutative and associative, unlike last-writer-wins).
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	abs := func(v int64) int64 {
		if v < 0 {
			return -v
		}
		return v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range o.Gauges {
		if cur, ok := out.Gauges[k]; !ok || abs(v) > abs(cur) || (abs(v) == abs(cur) && v > cur) {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v
	}
	for k, v := range o.Histograms {
		out.Histograms[k] = mergeHist(out.Histograms[k], v)
	}
	return out
}

func mergeHist(a, b HistogramSnapshot) HistogramSnapshot {
	cells := map[int]int64{}
	for _, c := range a.Buckets {
		cells[c.Pow] += c.Count
	}
	for _, c := range b.Buckets {
		cells[c.Pow] += c.Count
	}
	out := HistogramSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	pows := make([]int, 0, len(cells))
	for p := range cells {
		pows = append(pows, p)
	}
	sort.Ints(pows)
	for _, p := range pows {
		out.Buckets = append(out.Buckets, Bucket{Pow: p, Count: cells[p]})
	}
	return out
}

// WriteFile writes the snapshot as indented JSON.
func (s Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encoding snapshot: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadSnapshotFile reads a snapshot written by WriteFile.
func ReadSnapshotFile(path string) (Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("telemetry: decoding %s: %w", path, err)
	}
	return s, nil
}
