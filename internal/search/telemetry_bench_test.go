package search_test

import (
	"testing"

	"repro/internal/mc"
	"repro/internal/rtl"
	"repro/internal/search"
	"repro/internal/telemetry"
)

// The observability acceptance bar is that an enumeration feeding a
// registry stays within a few percent of a bare one. Compare:
//
//	go test ./internal/search/ -bench BenchmarkRun -benchtime 10x

func benchFunc(b *testing.B) *rtl.Func {
	b.Helper()
	prog, err := mc.Compile(sumSrc)
	if err != nil {
		b.Fatal(err)
	}
	return prog.Func("sum")
}

func benchRun(b *testing.B, opts func() search.Options) {
	f := benchFunc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := search.Run(f, opts())
		if r.Aborted {
			b.Fatalf("aborted: %s", r.AbortReason)
		}
	}
}

func BenchmarkRunBare(b *testing.B) {
	benchRun(b, func() search.Options { return search.Options{} })
}

func BenchmarkRunMetrics(b *testing.B) {
	benchRun(b, func() search.Options {
		return search.Options{Metrics: telemetry.NewRegistry()}
	})
}
