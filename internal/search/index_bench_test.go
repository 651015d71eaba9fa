package search

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/fingerprint"
)

// synthKeys builds n deterministic pseudo-canonical keys of roughly
// realistic size (a few hundred bytes, like a mid-sized function's
// encoding) together with their honest fingerprints.
func synthKeys(n int) ([][]byte, []fingerprint.FP) {
	keys := make([][]byte, n)
	fps := make([]fingerprint.FP, n)
	for i := range keys {
		k := make([]byte, 256)
		seed := uint64(i)*0x9E3779B97F4A7C15 + 1
		for j := 0; j < len(k); j += 8 {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			binary.LittleEndian.PutUint64(k[j:], seed)
		}
		keys[i] = k
		var sum uint32
		for _, b := range k {
			sum += uint32(b)
		}
		fps[i] = fingerprint.FP{Count: len(k) / 16, ByteSum: sum, CRC: crc32.ChecksumIEEE(k)}
	}
	return keys, fps
}

// BenchmarkDedupIndex measures the one-map index in isolation, the
// operation a worker performs once per active attempt. "miss" resolves
// fresh keys, each parking its slot (the new-node path); "hit" resolves
// keys whose slots are already there (the duplicate-merge path),
// however long ago they were parked.
func BenchmarkDedupIndex(b *testing.B) {
	const n = 4096
	keys, fps := synthKeys(n)
	const flags = byte(0x05)

	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d := newDedupIndex()
			for j, k := range keys {
				if p := d.resolve(flags, fps[j], k); p.id >= 0 {
					b.Fatalf("resolve(%d) found a committed slot in an empty index", j)
				}
			}
		}
		b.ReportMetric(float64(n), "probes/op")
	})

	b.Run("hit", func(b *testing.B) {
		d := newDedupIndex()
		for i, k := range keys {
			d.insert(string(flags)+string(k), fps[i], i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, k := range keys {
				if p := d.resolve(flags, fps[j], k); p.id != int32(j) {
					b.Fatalf("resolve(%d) = %+v", j, p)
				}
			}
		}
		b.ReportMetric(float64(n), "probes/op")
		b.ReportMetric(float64(d.retainedBytes()), "retained-bytes")
	})
}
