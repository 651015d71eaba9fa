package main

import (
	"syscall"
	"time"
)

// The hosts this benchmark runs on are a few cores of a shared
// machine, and how fast such a host runs memory-bound code drifts: over
// a quarter of an hour the same in-process enumeration was seen to slow
// by 30-45% and recover, while an arithmetic loop in registers kept its
// speed throughout. Two sets of runs of the same commit then differ by
// more than any regression bound, and so do the halves of one set.
//
// So every timed request is preceded by a reference walk, a fixed
// number of reads and writes at pseudo-random places of referenceBytes
// of memory that touches none of the program's code, and the request's
// time is scaled by what the walk took against referenceNominal:
// reported times are those of a host on which the walk takes its
// nominal time, which is roughly this host in its usual state.
// Interleaved with enumerations for 23 minutes, the scaled time's
// spread over 30 s windows was 5% where the measured time's was 22%;
// README.md has the measurement.
const (
	referenceBytes   = 32 << 20
	referenceSteps   = 3_000_000
	referenceNominal = 40 * time.Millisecond
)

// referenceMem lies outside the Go heap, so that it does not count
// toward the collector's pacing: 32 MiB more live heap would make the
// measured program collect less often than it does on its own.
var referenceMem = func() []byte {
	b, err := syscall.Mmap(-1, 0, referenceBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		b = make([]byte, referenceBytes)
	}
	referenceWalk(b) // fault every page in before the first timed walk
	return b
}()

var referenceSink uint64

// referenceWalk reads and writes referenceSteps pseudo-random places of
// mem. It allocates nothing and calls nothing.
func referenceWalk(mem []byte) {
	x, sum := uint64(88172645463325252), uint64(0)
	mask := uint64(len(mem) - 1)
	for i := 0; i < referenceSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		mem[j] += byte(x)
		sum += uint64(mem[(j*7+1)&mask])
	}
	referenceSink += sum
}

// hostScale times one reference walk and returns the factor a latency
// measured right after it is multiplied by.
func (r *run) hostScale() float64 {
	start := time.Now()
	referenceWalk(referenceMem)
	took := time.Since(start)
	r.reference = append(r.reference, took)
	return float64(referenceNominal) / float64(took)
}
