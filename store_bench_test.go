package repro

// Run-store suite (benchjson -suite store): the content-addressed cache's
// hit path against the execute path it replaces, for a cheap OpenMP
// patternlet and an expensive MPI one, plus the store's own
// microbenchmarks. The acceptance bar — a hit at least 10× cheaper than
// the execution it replaces, with byte-identical Output — is pinned by
// TestStoreHitTenfoldSpeedup so a regression fails the suite rather than
// just drifting a BENCH number.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/store"
)

// storeBenchServer builds a store-backed server over the shipped catalog.
func storeBenchServer(b testing.TB) (*serve.Server, serve.Executor) {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s := serve.New(collection.Default, serve.WithStore(st), serve.WithWorkers(4))
	b.Cleanup(func() {
		s.Shutdown(context.Background())
		st.Close()
	})
	return s, s.Executor()
}

// BenchmarkRunStoreHitVsExecute measures both sides of the cache for the
// two deterministic anchors: reduction2.omp (a cheap fork-join region)
// and reduction2.mpi at 32 ranks (a full message-passing world per run).
// The execute side forces a miss every iteration by varying the seed —
// the digest changes, the run does not — so it measures the true miss
// path: digest, execute, persist. The hit side replays one stored entry.
func BenchmarkRunStoreHitVsExecute(b *testing.B) {
	cases := []struct {
		name  string
		key   string
		tasks int
	}{
		{"cheap-omp", "reduction2.omp", 0},
		{"expensive-mpi", "reduction2.mpi", 32},
	}
	for _, c := range cases {
		b.Run(c.name+"/execute", func(b *testing.B) {
			_, ex := storeBenchServer(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := serve.ExecRequest{Key: c.key, Opts: core.RunOptions{
					NumTasks: c.tasks,
					Seed:     int64(i + 1), // new digest, identical run
				}}
				if _, err := ex.Execute(context.Background(), req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/hit", func(b *testing.B) {
			_, ex := storeBenchServer(b)
			req := serve.ExecRequest{Key: c.key, Opts: core.RunOptions{NumTasks: c.tasks}}
			prime, err := ex.Execute(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ex.Execute(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if !out.Cached || out.Output != prime.Output {
					b.Fatalf("iteration %d: cached=%t, identical=%t", i, out.Cached, out.Output == prime.Output)
				}
			}
		})
	}
}

// BenchmarkStoreOps measures the store's building blocks in isolation:
// digest canonicalization, the log round trip, a miss, and puts into a
// store already at its byte budget, where every put evicts. The
// put-at-capacity sizes span two orders of magnitude of live records:
// a put must cost the same at each. A put only frames its record for
// the store's writer goroutine, so the put benchmarks end their timed
// region with DiskSize, which waits for the writer to write every
// record and run any compaction due: the figure covers the bytes
// reaching the file.
func BenchmarkStoreOps(b *testing.B) {
	dirs := []core.DirectiveState{{Name: "parallel", Enabled: true}, {Name: "reduction", Enabled: true}}
	b.Run("digest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store.ResultDigest("0123456789abcdef", "reduction2.mpi", 32, dirs, nil, core.DefaultSeed, false, 1)
		}
	})
	res := core.Result{Key: "reduction2.mpi", NumTasks: 32, Output: "the answer is 42\n", Elapsed: time.Millisecond}
	b.Run("put", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := store.ResultDigest("cat", fmt.Sprintf("k%d", i), 4, nil, nil, 1, false, 1)
			if _, err := st.PutResult(d, "k", res); err != nil {
				b.Fatal(err)
			}
		}
		st.DiskSize()
	})
	b.Run("get-hit", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		d := store.ResultDigest("cat", "k", 4, dirs, nil, 1, false, 1)
		if _, err := st.PutResult(d, "k", res); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := st.GetResult(d); !ok {
				b.Fatal("stored digest missed")
			}
		}
	})
	b.Run("get-miss", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		d := store.ResultDigest("cat", "k", 4, dirs, nil, 1, false, 1)
		if _, err := st.PutResult(d, "k", res); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			miss := store.ResultDigest("cat", "absent", 4, nil, nil, int64(i), false, 1)
			if _, _, ok := st.GetResult(miss); ok {
				b.Fatal("phantom hit")
			}
		}
	})
	recBytes := func() int64 {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		if _, err := st.PutResult(store.ResultDigest("cat", "k", 4, nil, nil, 1, false, 1), "k", res); err != nil {
			b.Fatal(err)
		}
		return st.DiskSize()
	}()
	for exp := 3; exp <= 5; exp++ {
		n := int(math.Pow10(exp))
		// One store per size, filled once: the framework calls the
		// sub-benchmark repeatedly, and every put keeps it full. Later
		// run ids are a few bytes longer, so n puts overfill the budget.
		st, err := store.Open(b.TempDir(), store.WithMaxBytes(int64(n)*recBytes))
		if err != nil {
			b.Fatal(err)
		}
		var seq int
		put := func(b *testing.B) {
			d := store.ResultDigest("cat", "k"+strconv.Itoa(seq), 4, nil, nil, 1, false, 1)
			seq++
			if _, err := st.PutResult(d, "k", res); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			put(b)
		}
		st.DiskSize()
		b.Run(fmt.Sprintf("put-at-capacity/1e%d", exp), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				put(b)
			}
			st.DiskSize()
		})
		st.Close()
	}
}

// TestStoreHitTenfoldSpeedup pins the acceptance bar: for the expensive
// MPI patternlet a store hit is at least 10× cheaper than the execution
// it replaces, and the cached Output is byte-identical to the executed
// one. Minimum-of-several on both sides keeps scheduler noise out of the
// ratio.
func TestStoreHitTenfoldSpeedup(t *testing.T) {
	_, ex := storeBenchServer(t)
	req := serve.ExecRequest{Key: "reduction2.mpi", Opts: core.RunOptions{NumTasks: 32}}

	first, err := ex.Execute(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution marked cached")
	}

	minExec := time.Duration(1<<62 - 1)
	for i := 0; i < 5; i++ {
		miss := req
		miss.Opts.Seed = int64(i + 100) // force the miss path
		start := time.Now()
		if _, err := ex.Execute(context.Background(), miss); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < minExec {
			minExec = d
		}
	}

	minHit := time.Duration(1<<62 - 1)
	for i := 0; i < 20; i++ {
		start := time.Now()
		out, err := ex.Execute(context.Background(), req)
		hitDur := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Cached {
			t.Fatalf("repeat run %d not served from the store", i)
		}
		if out.Output != first.Output {
			t.Fatalf("cached output not byte-identical:\nexecuted: %q\ncached:   %q", first.Output, out.Output)
		}
		if hitDur < minHit {
			minHit = hitDur
		}
	}

	if minHit*10 > minExec {
		t.Fatalf("hit %v is not ≥10× cheaper than execute %v (%.1fx)",
			minHit, minExec, float64(minExec)/float64(minHit))
	}
	t.Logf("execute min %v, hit min %v (%.0fx)", minExec, minHit, float64(minExec)/float64(minHit))
}
