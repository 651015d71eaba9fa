package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median of values; 0 for none.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the q-quantile of v by linear interpolation between
// order statistics; 0 for none. v is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// latencies summarizes a latency sample the way every timing here is
// reported: the median, the highest percentile that still has at
// least ten samples beyond it, and the sample count.
type latencies struct {
	N     int
	P50   time.Duration
	High  time.Duration // 0 when no percentile above the median qualifies
	HighP float64       // e.g. 0.99; 0 when High is 0
}

// enoughBeyond reports whether at least ten of n samples lie beyond
// the p-percentile (with a tolerance for 1-p not being exact in binary).
func enoughBeyond(n int, p float64) bool { return float64(n)*(1-p) >= 10-1e-9 }

var percentileLadder = []float64{0.9999, 0.999, 0.99, 0.9}

func summarize(d []time.Duration) latencies {
	out := latencies{N: len(d)}
	if len(d) == 0 {
		return out
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out.P50 = s[(len(s)-1)/2]
	for _, p := range percentileLadder {
		if enoughBeyond(len(s), p) {
			out.High, out.HighP = s[int(p*float64(len(s)-1))], p
			break
		}
	}
	return out
}

// percentile is the p-percentile of d, where a metric's name fixes p
// (mem_hit_p99_us); ok is false when fewer than ten samples lie beyond
// it.
func percentile(d []time.Duration, p float64) (v time.Duration, ok bool) {
	if !enoughBeyond(len(d), p) {
		return 0, false
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(p*float64(len(s)-1))], true
}

func (l latencies) String() string {
	if l.High == 0 {
		return fmt.Sprintf("p50 %v (n=%d)", l.P50, l.N)
	}
	return fmt.Sprintf("p50 %v  p%g %v (n=%d)", l.P50, l.HighP*100, l.High, l.N)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sumDur(d []time.Duration) time.Duration {
	var t time.Duration
	for _, x := range d {
		t += x
	}
	return t
}
