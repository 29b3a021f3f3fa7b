// The alignment macro-workload benchmark suite (`make bench-json
// SUITE=align`): the serial oracle against the three parallel drivers at
// several sizes, plus the virtual-core speedup model. Wall-clock numbers
// show the drivers' overhead over the oracle, not a speedup: the recorded
// runs had 2 cores under 4 ranks or threads plus the runtimes' helpers;
// the model-speedup metric (internal/vtime, the repo's convention for
// scalability claims) shows the wavefront's parallel shape — near-linear
// until the anti-diagonal width caps it.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/align"
	"repro/internal/vtime"
)

// alignSizes spans a cache-resident matrix to the n >= 1024 scale the
// speedup claims are recorded at.
var alignSizes = []int{256, 1024, 2048}

func alignCfg(n int) align.Config {
	return align.Config{N: n, Seed: 42, Block: 64}
}

func BenchmarkAlignSerial(b *testing.B) {
	for _, n := range alignSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := align.Serial(alignCfg(n)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAlignWavefront(b *testing.B) {
	for _, n := range alignSizes {
		for _, threads := range []int{1, 4} {
			cfg := alignCfg(n)
			// The vtime model gives the speedup this thread count would
			// reach on real cores; reported alongside the measured
			// wall-clock so the BENCH file carries both.
			sched, err := vtime.Simulate(align.ModelTasks(cfg), threads)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("n=%d/threads=%d", n, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := align.Wavefront(cfg, threads); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(sched.Speedup(), "model-speedup")
			})
		}
	}
}

func BenchmarkAlignPipeline(b *testing.B) {
	for _, n := range alignSizes {
		for _, np := range []int{1, 4} {
			cfg := alignCfg(n)
			b.Run(fmt.Sprintf("n=%d/np=%d", n, np), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := align.Pipeline(cfg, np); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAlignHybrid(b *testing.B) {
	for _, n := range alignSizes {
		cfg := alignCfg(n)
		b.Run(fmt.Sprintf("n=%d/np=2x2", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := align.Hybrid(cfg, 2, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlignModelSpeedup reports only the virtual-core model across
// a core sweep — the data behind the speedup-shape figure (cmd/figures).
func BenchmarkAlignModelSpeedup(b *testing.B) {
	cfg := alignCfg(2048)
	tasks := align.ModelTasks(cfg)
	for _, cores := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=2048/cores=%d", cores), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				sched, err := vtime.Simulate(tasks, cores)
				if err != nil {
					b.Fatal(err)
				}
				speedup = sched.Speedup()
			}
			b.ReportMetric(speedup, "model-speedup")
		})
	}
}
