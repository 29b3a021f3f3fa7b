package repro

// Serving-pipeline suite (benchjson -suite load): BenchmarkServePipeline
// pushes a run through the full serve.New stack, stage histograms
// included, and BenchmarkHistogramRecord isolates the record primitive
// every stage calls. The macro percentile numbers for real HTTP load
// come from cmd/patternletbench, not this file.

import (
	"context"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// BenchmarkServePipeline runs one cheap deterministic patternlet through
// admission, queue, worker and execute on a plain single-node server over
// the shipped catalog. Its stage histograms (five RecordSince calls and
// their time.Now reads per run) are part of the measured cost.
func BenchmarkServePipeline(b *testing.B) {
	s := serve.New(collection.Default, serve.WithWorkers(4))
	b.Cleanup(func() { s.Shutdown(context.Background()) })
	ex := s.Executor()
	req := serve.ExecRequest{Key: "reduction2.omp", Opts: core.RunOptions{NumTasks: 4}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Execute(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramRecord measures the record path every stage pays:
// the bucket index plus three atomics, and RecordSince with its
// time.Now read on top, measured separately because the clock, not the
// histogram, dominates it.
func BenchmarkHistogramRecord(b *testing.B) {
	var h telemetry.Histogram
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Record(int64(i))
		}
	})
	b.Run("enabled-since", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			h.RecordSince(start)
		}
	})
}
