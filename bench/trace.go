package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans are
// recorded from the harness's side of the boundary only; the program
// under test is not instrumented by this file.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Request string `json:"request_id,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	SelfUS  int64  `json:"self_us"`
	// Calls > 0 marks an aggregate: the span stands for that many calls
	// whose summed duration is EndUS-StartUS, laid out back to back
	// inside the parent. Per-call spans would outnumber and outweigh
	// the 5 µs calls they describe.
	Calls int `json:"calls,omitempty"`

	tr *tracer
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, so untraced runs pay a nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(parent *span, layer, name, request string) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Layer: layer, Request: request, tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.StartUS = time.Since(t.epoch).Microseconds()
	return s
}

func (s *span) end() {
	if s != nil {
		s.EndUS = time.Since(s.tr.epoch).Microseconds()
	}
}

// aggregate records calls back-to-back calls of total duration d as one
// child of parent, starting where the previous aggregate child ended.
func (t *tracer) aggregate(parent *span, layer, name string, calls int, d time.Duration, offset *time.Duration) {
	if t == nil || parent == nil {
		return
	}
	s := t.begin(parent, layer, name, parent.Request)
	s.StartUS = parent.StartUS + offset.Microseconds()
	s.EndUS = s.StartUS + d.Microseconds()
	s.Calls = calls
	*offset += d
}

// finish computes every span's self time: its duration minus the part
// of its interval that its children cover (children of one parent may
// run in parallel, so their intervals are merged before subtracting).
func (t *tracer) finish() {
	kids := make(map[int][]*span)
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, s := range t.spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].StartUS < ch[j].StartUS })
		covered, edge := int64(0), s.StartUS
		for _, c := range ch {
			lo, hi := max(c.StartUS, edge), min(c.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfUS = s.EndUS - s.StartUS - covered
	}
}

// selfByLayer sums self time per layer, in milliseconds.
func (t *tracer) selfByLayer() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Layer] += float64(s.SelfUS) / 1e3
	}
	return out
}

func (t *tracer) write(path string, meta map[string]any) error {
	doc := map[string]any{"meta": meta, "self_ms_by_layer": t.selfByLayer(), "spans": t.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
