// Package repro's root benchmark harness: one benchmark (or benchmark
// family) per table/figure in the paper's evaluation, as indexed in
// DESIGN.md §4. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics:
//   - Figure 19 benches report vmakespan (virtual-time makespan) so the
//     O(t) vs O(lg t) shape is visible even on one hardware core;
//   - Figure 30 benches report ns/deposit for atomic vs critical;
//   - the lab benches report model-speedup from the virtual-core model.
package repro

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exemplars"
	"repro/internal/matrix"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/psort"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/vtime"
)

// ---------------------------------------------------------------------------
// Figure 19: Reduction pattern — sequential O(t) vs tree O(lg t) combining.

// BenchmarkFigure19VirtualTime reports the virtual-time makespan of
// combining t local values sequentially vs as a tree, on t virtual cores.
func BenchmarkFigure19VirtualTime(b *testing.B) {
	for _, t := range []int{8, 64, 512} {
		b.Run("seq/t="+itoa(t), func(b *testing.B) {
			var makespan int64
			for i := 0; i < b.N; i++ {
				s, err := vtime.Simulate(vtime.ReductionChain(t, 1), t)
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			b.ReportMetric(float64(makespan), "vmakespan")
		})
		b.Run("tree/t="+itoa(t), func(b *testing.B) {
			var makespan int64
			for i := 0; i < b.N; i++ {
				s, err := vtime.Simulate(vtime.ReductionTree(t, 1), t)
				if err != nil {
					b.Fatal(err)
				}
				makespan = s.Makespan
			}
			b.ReportMetric(float64(makespan), "vmakespan")
		})
	}
}

// BenchmarkFigure19MPIReduce times the real message-passing reduce both
// ways: the binomial tree (lg p rounds) vs the linear root-gather (p-1
// sequential receives at the root).
func BenchmarkFigure19MPIReduce(b *testing.B) {
	for _, np := range []int{4, 8, 16} {
		b.Run("tree/np="+itoa(np), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(np, func(c *mpi.Comm) error {
					_, err := mpi.Reduce(c, c.Rank()+1, mpi.Sum[int](), 0)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("linear/np="+itoa(np), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				err := mpi.Run(np, func(c *mpi.Comm) error {
					_, err := mpi.ReduceLinear(c, c.Rank()+1, mpi.Sum[int](), 0)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Figures 21/22: the reduction patternlet's three summing variants.

// BenchmarkFigure21Reduction times sequential, racy-shared and
// reduction-clause sums of the same array (the correctness contrast is
// covered by tests; this gives the cost contrast).
func BenchmarkFigure21Reduction(b *testing.B) {
	const size = 100000
	rng := rand.New(rand.NewSource(1))
	a := make([]int64, size)
	for i := range a {
		a[i] = int64(rng.Intn(1000))
	}
	b.Run("sequential", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			var s int64
			for _, v := range a {
				s += v
			}
			sink = s
		}
		_ = sink
	})
	b.Run("reduction/threads=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = omp.ParallelForReduce(size, omp.StaticEqual(), omp.Sum[int64](), 0,
				func(i int) int64 { return a[i] }, omp.WithNumThreads(4))
		}
	})
}

// ---------------------------------------------------------------------------
// Figure 30: critical2.c — atomic vs critical mutual exclusion cost.

// BenchmarkFigure30AtomicVsCritical performs the paper's deposit workload
// under both mechanisms with 8 workers. The paper reports a ~16.5x ratio;
// the expected shape here is atomic ≪ critical per deposit.
func BenchmarkFigure30AtomicVsCritical(b *testing.B) {
	const workers = 8
	b.Run("atomic", func(b *testing.B) {
		var cell uint64
		b.ResetTimer()
		omp.ParallelFor(b.N, omp.StaticEqual(), func(_, _ int) {
			omp.AtomicAddFloat64(&cell, 1.0)
		}, omp.WithNumThreads(workers))
	})
	b.Run("critical", func(b *testing.B) {
		balance := 0.0
		b.ResetTimer()
		omp.Parallel(func(t *omp.Thread) {
			t.For(0, b.N, omp.StaticEqual(), func(int) {
				t.Critical("balance", func() { balance += 1.0 })
			})
		}, omp.WithNumThreads(workers))
	})
	b.Run("unprotected-racy", func(b *testing.B) {
		var c omp.UnsafeCounter
		b.ResetTimer()
		omp.ParallelFor(b.N, omp.StaticEqual(), func(_, _ int) {
			c.Add(1.0)
		}, omp.WithNumThreads(workers))
	})
}

// ---------------------------------------------------------------------------
// §IV.A lab: matrix addition/transpose across thread counts.

// BenchmarkLabMatrix measures wall time of the lab operations on this host
// — sequential baselines plus the parallel versions across thread counts —
// and reports the virtual-core model's speedup (the chart's y-axis) as a
// custom metric. Size 1024 is the CS2 lab's "large enough to feel it"
// configuration.
func BenchmarkLabMatrix(b *testing.B) {
	for _, size := range []int{500, 1024} {
		a := matrix.New(size, size)
		c := matrix.New(size, size)
		dst := matrix.New(size, size)
		a.Random(1)
		c.Random(2)
		rowTasks := vtime.IndependentLoop(size, func(int) int64 { return int64(size) })
		b.Run("addSeq/size="+itoa(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := a.Add(c, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("transposeSeq/size="+itoa(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := a.Transpose(dst); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, threads := range []int{1, 2, 4, 8} {
			sched, err := vtime.Simulate(rowTasks, threads)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("add/size="+itoa(size)+"/threads="+itoa(threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := a.AddParallel(c, dst, threads); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(sched.Speedup(), "model-speedup")
			})
			b.Run("transpose/size="+itoa(size)+"/threads="+itoa(threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := a.TransposeParallel(dst, threads); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(sched.Speedup(), "model-speedup")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 14–18: parallel-loop schedules on a deliberately imbalanced
// workload (iteration cost grows with i), showing why the "chunks of 1"
// and dynamic patternlets exist.

func BenchmarkParallelLoopSchedules(b *testing.B) {
	const n = 256
	work := func(i int) {
		// Triangular workload: iteration i spins proportionally to i.
		end := time.Now().Add(time.Duration(i) * 30 * time.Nanosecond)
		for time.Now().Before(end) {
		}
	}
	for _, tc := range []struct {
		name  string
		sched omp.Schedule
	}{
		{"equalChunks", omp.StaticEqual()},
		{"chunksOf1", omp.StaticChunk(1)},
		{"dynamic1", omp.Dynamic(1)},
		{"guided", omp.Guided(1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				omp.ParallelFor(n, tc.sched, func(j, _ int) { work(j) }, omp.WithNumThreads(4))
			}
		})
		// Pure scheduling overhead: an empty body over many iterations, so
		// the chunk-claim path (mutex vs atomic dispenser) dominates.
		b.Run("overhead/"+tc.name, func(b *testing.B) {
			const on = 4096
			for i := 0; i < b.N; i++ {
				omp.ParallelFor(on, tc.sched, func(_, _ int) {}, omp.WithNumThreads(4))
			}
		})
	}
}

// BenchmarkBlockVsPerIterationLoop isolates what block worksharing buys: the
// same summation loop once through the per-iteration For API (an indirect
// call per element) and once through ForRange (one call per contiguous
// block, tight local loop inside).
func BenchmarkBlockVsPerIterationLoop(b *testing.B) {
	const n = 1 << 16
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i%7) + 0.5
	}
	sink := make([]float64, n)
	for _, sched := range []omp.Schedule{omp.StaticEqual(), omp.Dynamic(512)} {
		b.Run("perIteration/"+sched.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				omp.ParallelFor(n, sched, func(j, _ int) {
					sink[j] = data[j] * 1.0001
				}, omp.WithNumThreads(4))
			}
		})
		b.Run("block/"+sched.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				omp.ParallelForRange(n, sched, func(start, stop, _ int) {
					for j := start; j < stop; j++ {
						sink[j] = data[j] * 1.0001
					}
				}, omp.WithNumThreads(4))
			}
		})
	}
}

// ---------------------------------------------------------------------------
// MPI collectives and transports (Figures 5/6, 24, 26–28 substrate costs).

func BenchmarkMPICollectives(b *testing.B) {
	payload := make([]int, 64)
	for i := range payload {
		payload[i] = i
	}
	for _, np := range []int{2, 4, 8} {
		b.Run("barrier/np="+itoa(np), func(b *testing.B) {
			benchWorld(b, np, func(c *mpi.Comm) error { return mpi.Barrier(c) })
		})
		b.Run("bcast/np="+itoa(np), func(b *testing.B) {
			benchWorld(b, np, func(c *mpi.Comm) error {
				_, err := mpi.Bcast(c, payload, 0)
				return err
			})
		})
		b.Run("gather/np="+itoa(np), func(b *testing.B) {
			benchWorld(b, np, func(c *mpi.Comm) error {
				_, err := mpi.Gather(c, payload, 0)
				return err
			})
		})
		b.Run("scatter/np="+itoa(np), func(b *testing.B) {
			big := make([]int, len(payload)*np)
			benchWorld(b, np, func(c *mpi.Comm) error {
				_, err := mpi.Scatter(c, big, 0)
				return err
			})
		})
		b.Run("allreduce/np="+itoa(np), func(b *testing.B) {
			benchWorld(b, np, func(c *mpi.Comm) error {
				_, err := mpi.Allreduce(c, c.Rank(), mpi.Sum[int]())
				return err
			})
		})
	}
}

// benchWorld runs b.N iterations of op inside one world, amortizing the
// world setup.
func benchWorld(b *testing.B, np int, op func(*mpi.Comm) error, opts ...mpi.Option) {
	b.Helper()
	err := mpi.Run(np, func(c *mpi.Comm) error {
		for i := 0; i < b.N; i++ {
			if err := op(c); err != nil {
				return err
			}
		}
		return nil
	}, opts...)
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCollectiveAlgorithms pins every registered collective algorithm
// against its rival on the same workload, across world sizes straddling
// the registry's policy thresholds. The recorded numbers (see
// EXPERIMENTS.md and BENCH_*_comm.json) are what justify those
// thresholds.
func BenchmarkCollectiveAlgorithms(b *testing.B) {
	payload := make([]int, 64)
	for i := range payload {
		payload[i] = i
	}
	force := func(coll, algo string) mpi.Option {
		return mpi.WithCollectiveAlgorithm(coll, algo)
	}
	for _, np := range []int{4, 8, 16} {
		np := np
		suite := []struct {
			coll, algo string
			op         func(*mpi.Comm) error
		}{
			{mpi.CollBarrier, mpi.AlgoCentral, func(c *mpi.Comm) error { return mpi.Barrier(c) }},
			{mpi.CollBarrier, mpi.AlgoDissemination, func(c *mpi.Comm) error { return mpi.Barrier(c) }},
			{mpi.CollBcast, mpi.AlgoLinear, func(c *mpi.Comm) error {
				_, err := mpi.Bcast(c, payload, 0)
				return err
			}},
			{mpi.CollBcast, mpi.AlgoBinomial, func(c *mpi.Comm) error {
				_, err := mpi.Bcast(c, payload, 0)
				return err
			}},
			{mpi.CollReduce, mpi.AlgoLinear, func(c *mpi.Comm) error {
				_, err := mpi.Reduce(c, c.Rank(), mpi.Sum[int](), 0)
				return err
			}},
			{mpi.CollReduce, mpi.AlgoBinomial, func(c *mpi.Comm) error {
				_, err := mpi.Reduce(c, c.Rank(), mpi.Sum[int](), 0)
				return err
			}},
			{mpi.CollAllreduce, mpi.AlgoComposed, func(c *mpi.Comm) error {
				_, err := mpi.Allreduce(c, c.Rank(), mpi.Sum[int]())
				return err
			}},
			{mpi.CollAllreduce, mpi.AlgoRecursiveDoubling, func(c *mpi.Comm) error {
				_, err := mpi.Allreduce(c, c.Rank(), mpi.Sum[int]())
				return err
			}},
			{mpi.CollAllgather, mpi.AlgoComposed, func(c *mpi.Comm) error {
				_, err := mpi.Allgather(c, payload[:8])
				return err
			}},
			{mpi.CollAllgather, mpi.AlgoRing, func(c *mpi.Comm) error {
				_, err := mpi.Allgather(c, payload[:8])
				return err
			}},
			{mpi.CollAlltoall, mpi.AlgoLinear, func(c *mpi.Comm) error {
				_, err := mpi.Alltoall(c, make([]int, np*8))
				return err
			}},
			{mpi.CollAlltoall, mpi.AlgoPairwise, func(c *mpi.Comm) error {
				_, err := mpi.Alltoall(c, make([]int, np*8))
				return err
			}},
			{mpi.CollScan, mpi.AlgoLinear, func(c *mpi.Comm) error {
				_, err := mpi.Scan(c, c.Rank(), mpi.Sum[int]())
				return err
			}},
			{mpi.CollScan, mpi.AlgoDoubling, func(c *mpi.Comm) error {
				_, err := mpi.Scan(c, c.Rank(), mpi.Sum[int]())
				return err
			}},
			{mpi.CollExscan, mpi.AlgoLinear, func(c *mpi.Comm) error {
				_, err := mpi.Exscan(c, c.Rank(), mpi.Sum[int]())
				return err
			}},
			{mpi.CollExscan, mpi.AlgoDoubling, func(c *mpi.Comm) error {
				_, err := mpi.Exscan(c, c.Rank(), mpi.Sum[int]())
				return err
			}},
		}
		for _, tc := range suite {
			b.Run(tc.coll+"/"+tc.algo+"/np="+itoa(np), func(b *testing.B) {
				benchWorld(b, np, tc.op, force(tc.coll, tc.algo))
			})
		}
	}

	// Payload dimension: the bcast policy keys on wire size because a
	// large frame serializes p-1 times at a linear root but only lg p
	// times on any one tree rank.
	big := make([]int, 4096)
	for _, algo := range []string{mpi.AlgoLinear, mpi.AlgoBinomial} {
		b.Run("bcast/"+algo+"/np=4/ints=4096", func(b *testing.B) {
			benchWorld(b, 4, func(c *mpi.Comm) error {
				_, err := mpi.Bcast(c, big, 0)
				return err
			}, force(mpi.CollBcast, algo))
		})
	}

	// Latency dimension: with a per-message delay (the Latency middleware
	// regime) message depth dominates and the trees win outright.
	for _, algo := range []string{mpi.AlgoLinear, mpi.AlgoBinomial} {
		b.Run("bcast/"+algo+"/np=8/latency=200us", func(b *testing.B) {
			benchWorld(b, 8, func(c *mpi.Comm) error {
				_, err := mpi.Bcast(c, payload, 0)
				return err
			}, force(mpi.CollBcast, algo), mpi.WithLatency(200*time.Microsecond))
		})
	}
}

// BenchmarkTransportPingPong compares the in-process channel transport
// with real loopback TCP for a two-rank message round trip. The round
// count must come from the sub-benchmark's own b (capturing the parent's
// b would freeze N at 1).
func BenchmarkTransportPingPong(b *testing.B) {
	pingpong := func(rounds int) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			const tag = 1
			for i := 0; i < rounds; i++ {
				if c.Rank() == 0 {
					if err := mpi.Send(c, i, 1, tag); err != nil {
						return err
					}
					if _, _, err := mpi.Recv[int](c, 1, tag); err != nil {
						return err
					}
				} else {
					v, _, err := mpi.Recv[int](c, 0, tag)
					if err != nil {
						return err
					}
					if err := mpi.Send(c, v, 0, tag); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	b.Run("chan", func(b *testing.B) {
		if err := mpi.Run(2, pingpong(b.N)); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("tcp", func(b *testing.B) {
		if err := mpi.Run(2, pingpong(b.N), mpi.WithTCP()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkWireCodec isolates the payload codec: the typed fast paths
// against the gob fallback they replaced on the hot wire, over the shapes
// the patternlets actually send. DeepCopy is a full encode+decode round
// trip through the pooled-buffer path.
func BenchmarkWireCodec(b *testing.B) {
	ints := make([]int, 64)
	for i := range ints {
		ints[i] = i * 3
	}
	f64s := make([]float64, 1<<17) // 1 MiB of float64
	for i := range f64s {
		f64s[i] = float64(i) * 1.5
	}
	bench := func(name string, roundTrip func() error, bytes int64) {
		b.Run(name, func(b *testing.B) {
			if bytes > 0 {
				b.SetBytes(bytes)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := roundTrip(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	gobTrip := func(v any, out func() any) func() error {
		return func() error {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(v); err != nil {
				return err
			}
			return gob.NewDecoder(&buf).Decode(out())
		}
	}
	bench("fast/int", func() error { _, err := mpi.DeepCopy(42); return err }, 0)
	bench("fast/ints-64", func() error { _, err := mpi.DeepCopy(ints); return err }, int64(64*8))
	bench("fast/float64s-1MiB", func() error { _, err := mpi.DeepCopy(f64s); return err }, 1<<20)
	v := 42
	bench("gob/int", gobTrip(&v, func() any { var x int; return &x }), 0)
	bench("gob/ints-64", gobTrip(&ints, func() any { var x []int; return &x }), int64(64*8))
	bench("gob/float64s-1MiB", gobTrip(&f64s, func() any { var x []float64; return &x }), 1<<20)
}

// BenchmarkWirePingPong sweeps a []byte round trip across payload sizes
// and transports, with the gob fallback as the comparison point — the
// small-payload rows are the latency acceptance numbers for the framed
// wire, the fast/…-4KiB rows its copy cost.
func BenchmarkWirePingPong(b *testing.B) {
	pingpong := func(rounds, size int) func(c *mpi.Comm) error {
		payload := make([]byte, size)
		return func(c *mpi.Comm) error {
			const tag = 1
			for i := 0; i < rounds; i++ {
				if c.Rank() == 0 {
					if err := mpi.Send(c, payload, 1, tag); err != nil {
						return err
					}
					if _, _, err := mpi.Recv[[]byte](c, 1, tag); err != nil {
						return err
					}
				} else {
					v, _, err := mpi.Recv[[]byte](c, 0, tag)
					if err != nil {
						return err
					}
					if err := mpi.Send(c, v, 0, tag); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	for _, tr := range []struct {
		name string
		opts []mpi.Option
	}{
		{"chan", nil},
		{"tcp", []mpi.Option{mpi.WithTCP()}},
	} {
		for _, codec := range []struct {
			name string
			opts []mpi.Option
		}{
			{"fast", nil},
			{"gob", []mpi.Option{mpi.WithGobWire()}},
		} {
			for _, size := range []int{8, 64, 4096} {
				opts := append(append([]mpi.Option{}, tr.opts...), codec.opts...)
				b.Run(fmt.Sprintf("%s/%s/%dB", tr.name, codec.name, size), func(b *testing.B) {
					if err := mpi.Run(2, pingpong(b.N, size), opts...); err != nil {
						b.Fatal(err)
					}
				})
			}
		}
	}
}

// BenchmarkWireBandwidth streams 1 MiB messages one way and reports MB/s,
// fast codec vs gob fallback over both transports — the sustained-
// bandwidth acceptance numbers for the framed wire.
func BenchmarkWireBandwidth(b *testing.B) {
	const elems = 1 << 17 // 1 MiB of float64 per message
	stream := func(msgs int) func(c *mpi.Comm) error {
		payload := make([]float64, elems)
		for i := range payload {
			payload[i] = float64(i)
		}
		return func(c *mpi.Comm) error {
			const tag = 2
			if c.Rank() == 0 {
				for i := 0; i < msgs; i++ {
					if err := mpi.Send(c, payload, 1, tag); err != nil {
						return err
					}
				}
				// Tail ack so the sender cannot outrun delivery.
				_, _, err := mpi.Recv[bool](c, 1, 3)
				return err
			}
			for i := 0; i < msgs; i++ {
				if _, _, err := mpi.Recv[[]float64](c, 0, tag); err != nil {
					return err
				}
			}
			return mpi.Send(c, true, 0, 3)
		}
	}
	for _, tr := range []struct {
		name string
		opts []mpi.Option
	}{
		{"chan", nil},
		{"tcp", []mpi.Option{mpi.WithTCP()}},
	} {
		for _, codec := range []struct {
			name string
			opts []mpi.Option
		}{
			{"fast", nil},
			{"gob", []mpi.Option{mpi.WithGobWire()}},
		} {
			opts := append(append([]mpi.Option{}, tr.opts...), codec.opts...)
			b.Run(tr.name+"/"+codec.name+"/1MiB", func(b *testing.B) {
				b.SetBytes(elems * 8)
				if err := mpi.Run(2, stream(b.N), opts...); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// §IV.B: the study analysis pipeline.

func BenchmarkStudyPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWelchTTest isolates the statistical kernel.
func BenchmarkWelchTTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := stats.WelchTTest(3.05, 0.42, 38, 2.95, 0.42, 41); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Substrate micro-costs that every patternlet pays.

func BenchmarkOMPRegionForkJoin(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run("threads="+itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				omp.Parallel(func(*omp.Thread) {}, omp.WithNumThreads(threads))
			}
		})
	}
}

func BenchmarkOMPBarrier(b *testing.B) {
	omp.Parallel(func(t *omp.Thread) {
		for i := 0; i < b.N; i++ {
			t.Barrier()
		}
	}, omp.WithNumThreads(4))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------------
// Sorting (the CS2 Friday session and CS3 Algorithms follow-on).

func BenchmarkSorts(b *testing.B) {
	const n = 1 << 15
	rng := rand.New(rand.NewSource(4))
	data := make([]int, n)
	for i := range data {
		data[i] = rng.Int()
	}
	scratch := make([]int, n)
	b.Run("sequentialMergeSort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, data)
			psort.MergeSort(scratch)
		}
	})
	for _, threads := range []int{2, 4, 8} {
		b.Run("taskParallelMergeSort/threads="+itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(scratch, data)
				psort.MergeSortParallel(scratch, threads)
			}
		})
	}
	for _, algo := range []string{"oddeven", "samplesort"} {
		b.Run("distributed/"+algo+"/np=4", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(scratch, data)
				if _, err := psort.SortDistributed(4, scratch, algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Explicit tasking (the recursive fork-join substrate under merge sort).

// BenchmarkTaskSpawnWait measures fine-grained task throughput: every
// team member submits its share of b.N empty tasks in batches of 64 with
// a TaskWait after each batch, so ns/op is the per-task scheduling
// overhead under full submission pressure — the number the work-stealing
// runtime exists to shrink (a shared queue pays a lock round trip plus a
// wakeup broadcast per task). The body is an empty static closure so the
// benchmark isolates scheduler cost; correctness of task execution is
// pinned by the internal/omp tests, not here.
func BenchmarkTaskSpawnWait(b *testing.B) {
	fn := func() {}
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run("threads="+itoa(threads), func(b *testing.B) {
			per := b.N/threads + 1
			omp.Parallel(func(t *omp.Thread) {
				for i := 0; i < per; i++ {
					t.Task(fn)
					if i%64 == 63 {
						t.TaskWait()
					}
				}
				t.TaskWait()
			}, omp.WithNumThreads(threads))
		})
	}
}

// BenchmarkMergeSort1M is the acceptance workload of the CS2 session: one
// million elements, sequential vs task-parallel across thread counts. The
// model-speedup metric simulates the same fork-join DAG on that many
// virtual cores (vtime.ForkJoinSort), carrying the speedup shape this
// 1-core host cannot show in wall time.
func BenchmarkMergeSort1M(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(7))
	data := make([]int, n)
	for i := range data {
		data[i] = rng.Int()
	}
	scratch := make([]int, n)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(scratch, data)
			psort.MergeSort(scratch)
		}
	})
	for _, threads := range []int{2, 4, 8} {
		sched, err := vtime.Simulate(vtime.ForkJoinSort(n, 2048), threads)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("parallel/threads="+itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(scratch, data)
				psort.MergeSortParallel(scratch, threads)
			}
			b.ReportMetric(sched.Speedup(), "model-speedup")
		})
	}
}

// BenchmarkTaskRecursiveFanout measures the fork-join path the merge
// sort exercises, minus the memory traffic: a binary taskgroup tree of
// the given depth, each node forking its left child as a task and
// descending right inline. ns/op divided by 2^depth leaves is the cost
// of one spawn+join through nested taskgroups.
func BenchmarkTaskRecursiveFanout(b *testing.B) {
	var spawn func(c *omp.Thread, d int)
	spawn = func(c *omp.Thread, d int) {
		if d == 0 {
			return
		}
		c.TaskGroup(func(tg *omp.TaskGroup) {
			tg.Task(c, func(e *omp.Thread) { spawn(e, d-1) })
			spawn(c, d-1)
		})
	}
	for _, threads := range []int{1, 4, 8} {
		b.Run("depth=8/threads="+itoa(threads), func(b *testing.B) {
			omp.Parallel(func(t *omp.Thread) {
				t.Master(func() {
					for i := 0; i < b.N; i++ {
						spawn(t, 8)
					}
				})
			}, omp.WithNumThreads(threads))
		})
	}
}

// BenchmarkTaskloopVsParallelFor puts the taskloop construct against the
// worksharing for loop on the same trivially-parallel body. The for loop
// should win — static worksharing has no per-chunk queue traffic — and
// the gap is the price of taskloop's dynamic load balancing.
func BenchmarkTaskloopVsParallelFor(b *testing.B) {
	const n = 1 << 14
	sink := make([]int64, n)
	body := func(i int) { sink[i]++ }
	for _, threads := range []int{4} {
		b.Run("taskloop/threads="+itoa(threads), func(b *testing.B) {
			omp.Parallel(func(t *omp.Thread) {
				t.Master(func() {
					for i := 0; i < b.N; i++ {
						t.Taskloop(0, n, 0, body)
					}
				})
			}, omp.WithNumThreads(threads))
		})
		b.Run("parallelfor/threads="+itoa(threads), func(b *testing.B) {
			omp.Parallel(func(t *omp.Thread) {
				for i := 0; i < b.N; i++ {
					t.For(0, n, omp.StaticEqual(), body)
				}
			}, omp.WithNumThreads(threads))
		})
	}
}

// BenchmarkTaskTreeReduce compares the two O(lg p) reduction combines:
// Reduce's barrier-separated rounds (lg p full-team barriers) against
// ReduceTree's task-tree combine (one taskgroup join). Both fold the
// same per-thread locals.
func BenchmarkTaskTreeReduce(b *testing.B) {
	op := omp.Sum[int64]()
	for _, threads := range []int{4, 8} {
		b.Run("barrier/threads="+itoa(threads), func(b *testing.B) {
			omp.Parallel(func(t *omp.Thread) {
				local := int64(t.ThreadNum())
				for i := 0; i < b.N; i++ {
					omp.Reduce(t, op, local)
				}
			}, omp.WithNumThreads(threads))
		})
		b.Run("tasktree/threads="+itoa(threads), func(b *testing.B) {
			omp.Parallel(func(t *omp.Thread) {
				local := int64(t.ThreadNum())
				for i := 0; i < b.N; i++ {
					omp.ReduceTree(t, op, local)
				}
			}, omp.WithNumThreads(threads))
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations for the design choices DESIGN.md calls out.

// BenchmarkAblationIsolationCost measures the price of the MPI layer's
// enforced address-space isolation: a gob round trip per payload vs a raw
// slice copy. This is the deliberate cost of making messages real copies.
func BenchmarkAblationIsolationCost(b *testing.B) {
	for _, n := range []int{16, 1024, 65536} {
		payload := make([]int, n)
		for i := range payload {
			payload[i] = i
		}
		b.Run("gobDeepCopy/ints="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mpi.DeepCopy(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("rawCopy/ints="+itoa(n), func(b *testing.B) {
			dst := make([]int, n)
			for i := 0; i < b.N; i++ {
				copy(dst, payload)
			}
		})
	}
}

// BenchmarkAblationBarrierAlgorithms compares the dissemination barrier
// (O(lg p) rounds) against the naive central barrier (O(p) at the root).
// The algorithm is forced through the registry so the policy's own choice
// doesn't mask the contrast.
func BenchmarkAblationBarrierAlgorithms(b *testing.B) {
	for _, np := range []int{4, 8, 16} {
		b.Run("dissemination/np="+itoa(np), func(b *testing.B) {
			benchWorld(b, np, func(c *mpi.Comm) error { return mpi.Barrier(c) },
				mpi.WithCollectiveAlgorithm(mpi.CollBarrier, mpi.AlgoDissemination))
		})
		b.Run("central/np="+itoa(np), func(b *testing.B) {
			benchWorld(b, np, func(c *mpi.Comm) error { return mpi.BarrierCentral(c) })
		})
	}
}

// BenchmarkAblationReductionMechanisms compares the three ways a team can
// combine per-thread partials: the tree Reduce, a critical-section
// accumulator, and an atomic accumulator — the design space behind the
// reduction patternlet.
func BenchmarkAblationReductionMechanisms(b *testing.B) {
	const threads = 8
	b.Run("treeReduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			omp.Parallel(func(t *omp.Thread) {
				_ = omp.Reduce(t, omp.Sum[int64](), int64(t.ThreadNum()))
			}, omp.WithNumThreads(threads))
		}
	})
	b.Run("criticalAccumulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum int64
			omp.Parallel(func(t *omp.Thread) {
				local := int64(t.ThreadNum())
				t.Critical("sum", func() { sum += local })
			}, omp.WithNumThreads(threads))
		}
	})
	b.Run("atomicAccumulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum int64
			omp.Parallel(func(t *omp.Thread) {
				omp.AtomicAddInt64(&sum, int64(t.ThreadNum()))
			}, omp.WithNumThreads(threads))
		}
	})
}

// BenchmarkAlltoall exercises the complete exchange, the densest
// collective.
func BenchmarkAlltoall(b *testing.B) {
	for _, np := range []int{2, 4, 8} {
		b.Run("np="+itoa(np), func(b *testing.B) {
			send := make([]int, np*16)
			benchWorld(b, np, func(c *mpi.Comm) error {
				_, err := mpi.Alltoall(c, send)
				return err
			})
		})
	}
}

// BenchmarkCartHaloExchange times one ring halo exchange per op on a
// periodic 1-D topology, the inner step of every stencil exemplar.
func BenchmarkCartHaloExchange(b *testing.B) {
	const np = 4
	halo := make([]float64, 64)
	err := mpi.Run(np, func(c *mpi.Comm) error {
		ct, err := mpi.NewCart(c, []int{np}, []bool{true})
		if err != nil {
			return err
		}
		for i := 0; i < b.N; i++ {
			if _, err := mpi.SendrecvShift(ct, halo, 0, 1, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Pattern exemplars (§V's "real world" follow-ons to each patternlet).

func BenchmarkExemplarHistogram(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	data := make([]float64, 100000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run("threads="+itoa(threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exemplars.Histogram(data, 64, -4, 4, threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExemplarLife(b *testing.B) {
	for _, threads := range []int{1, 2, 4} {
		b.Run("threads="+itoa(threads), func(b *testing.B) {
			l, err := exemplars.NewLife(64, 64, [][2]int{{31, 32}, {31, 33}, {32, 31}, {32, 32}, {33, 32}})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			l.Step(b.N, threads)
		})
	}
}

func BenchmarkExemplarDistributedHeat(b *testing.B) {
	for _, np := range []int{1, 2, 4, 8} {
		b.Run("np="+itoa(np), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exemplars.DistributedHeat(np, 128, 50, 0.25); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExemplarMandelbrotFarm(b *testing.B) {
	for _, np := range []int{2, 4, 8} {
		b.Run("np="+itoa(np), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exemplars.Mandelbrot(np, 64, 32, 64); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
