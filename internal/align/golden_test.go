package align

import (
	"fmt"
	"math/rand"
	"testing"
)

// goldenSummaries pins literal Summary transcripts. perfbench checks
// served runs against Serial, and Serial shares hashCols with every
// driver, so a change to the hashing could move all of them together
// and still pass every equivalence test; these literals catch that.
//
// want is the transcript in checksum format v1 (byte-wise FNV-1a),
// recorded before the format changed; byteChecksumRef over Serial's
// matrix must still reproduce it, which proves the DP matrix unchanged.
// v2 is the format-v2 checksum every driver reports now.
var goldenSummaries = []struct {
	cfg  Config
	want string
	v2   uint64
}{
	// The two benchmark requests: align.mpi at its default params.
	{Config{N: 256, Seed: 1}, "align global (Needleman-Wunsch) n=256 m=256 band=0 seed=1\nscore=113 checksum=1a5e138b72bb8808\n", 0x899d3fcc756ea50a},
	{Config{N: 512, Seed: 1}, "align global (Needleman-Wunsch) n=512 m=512 band=0 seed=1\nscore=223 checksum=a59f74a87f30afea\n", 0x0951c77267b0313b},
	{Config{N: 200, M: 180, Band: 30, Seed: 9}, "align global (Needleman-Wunsch) n=200 m=180 band=30 seed=9\nscore=68 checksum=3fc66beecc61e1b9\n", 0x467f1abeb049ef5e},
	{Config{N: 150, M: 170, Band: 60, Seed: 3, Local: true}, "align local (Smith-Waterman) n=150 m=170 band=60 seed=3\nscore=65 checksum=ea3eeb7890adb0da\n", 0xc92ebba9681f608c},
	// At np=4 the ranks own 16, 16, 16 and 15 rows: the last one hashes
	// three rows four at a time and three more one at a time.
	{Config{N: 63, Seed: 1}, "align global (Needleman-Wunsch) n=63 m=63 band=0 seed=1\nscore=21 checksum=9f50793e1a62568a\n", 0x21d8c5c22eb00f8b},
	// Edge cases of the pipeline's column window: Block > M (one chunk);
	// M not a multiple of Block (a short last chunk); M far wider and
	// far narrower than N; a local max past the first chunk; and, at
	// np=25, ranks with no rows.
	{Config{N: 40, M: 20, Block: 64, Seed: 5}, "align global (Needleman-Wunsch) n=40 m=20 band=0 seed=5\nscore=-18 checksum=427e86c1f1deb244\n", 0x708db87ebf16875e},
	{Config{N: 130, M: 131, Block: 16, Seed: 6}, "align global (Needleman-Wunsch) n=130 m=131 band=0 seed=6\nscore=54 checksum=c992d60917f79071\n", 0x060cf41da04a6749},
	{Config{N: 97, M: 300, Band: 40, Block: 24, Seed: 7, Local: true}, "align local (Smith-Waterman) n=97 m=300 band=40 seed=7\nscore=44 checksum=ffb54dfd5dac9701\n", 0x27d8b81b580b91cf},
	{Config{N: 300, M: 97, Band: 250, Block: 8, Seed: 8, Local: true}, "align local (Smith-Waterman) n=300 m=97 band=250 seed=8\nscore=60 checksum=c696b7bedde35d96\n", 0xb83af2af2e576fd3},
	{Config{N: 20, M: 200, Block: 33, Seed: 9}, "align global (Needleman-Wunsch) n=20 m=200 band=0 seed=9\nscore=-320 checksum=83a8e6332299b775\n", 0x0a63964a47637762},
}

func TestGoldenSummaries(t *testing.T) {
	for _, g := range goldenSummaries {
		t.Run(cfgName(g.cfg), func(t *testing.T) {
			s, err := serialSlab(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := s.summarize()
			ref.Checksum = byteChecksumRef(s)
			if got := ref.String(); got != g.want {
				t.Fatalf("Serial's matrix under the v1 byte-wise checksum:\n%q\nwant\n%q", got, g.want)
			}
			want := ref
			want.Checksum = g.v2
			if got := mustSerial(t, g.cfg); got != want {
				t.Fatalf("Serial:\n%q\nwant\n%q", got, want)
			}
			for _, np := range []int{1, 3, 4, 5, 7, 25} {
				got, err := Pipeline(g.cfg, np)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("Pipeline np=%d:\n%q\nwant\n%q", np, got, want)
				}
				if got, err = Hybrid(g.cfg, np, 2); err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("Hybrid np=%d:\n%q\nwant\n%q", np, got, want)
				}
			}
		})
	}
}

func TestRowHashesMatchRowHash(t *testing.T) {
	// hashCols takes rows four at a time and the rest one by one; every
	// slab height from 1 to 9 covers each leftover count at least twice.
	// A row hashed as columns [0, k) and then [k, stride) must hash the
	// same as the whole row, for every split k: the pipeline hashes its
	// rows chunk by chunk.
	rng := rand.New(rand.NewSource(1))
	for rows := 1; rows <= 9; rows++ {
		for _, m := range []int{1, 7, 64} {
			s := mustSlab(t, Config{N: rows, M: m}, nil, nil, 1, rows, m+1)
			for i := range s.vals {
				switch rng.Intn(4) {
				case 0:
					s.vals[i] = NegInf
				case 1:
					s.vals[i] = -rng.Int31()
				default:
					s.vals[i] = rng.Int31()
				}
			}
			for k := 0; k <= s.stride; k++ {
				got := newRowHashes(rows)
				s.hashCols(got, 0, k)
				s.hashCols(got, k, s.stride)
				for r := 1; r <= rows; r++ {
					if want := RowHash(FNVOffset, s.row(r)); got[r-1] != want {
						t.Fatalf("rows=%d m=%d split=%d row %d: %016x, RowHash %016x", rows, m, k, r, got[r-1], want)
					}
				}
			}
		}
	}
}

// TestPipelineBytesPerRun pins the pipeline's memory to the column
// window: each rank holds about (n/np+1)·(Block+1) cells, not a whole
// (n/np+1)·(n+1) row block (4.3 MB per run at n=1024 np=4).
func TestPipelineBytesPerRun(t *testing.T) {
	cfg := Config{N: 1024, Seed: 1}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Pipeline(cfg, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 1<<20 {
		t.Fatalf("Pipeline n=1024 np=4 allocates %d bytes per run, want < 1 MiB", got)
	}
}

// BenchmarkRowHashes times hashing a whole n×n matrix's rows one at a
// time through RowHash against hashCols' four-way interleave, at the
// two served sizes, in ns/cell like BenchmarkComputeCells.
func BenchmarkRowHashes(b *testing.B) {
	for _, n := range []int{256, 512} {
		s := mustSlab(b, Config{N: n}, nil, nil, 1, n, n+1)
		for i := range s.vals {
			s.vals[i] = int32(i * 2654435761)
		}
		b.Run(fmt.Sprintf("n=%d/RowHash", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 1; r <= s.rows; r++ {
					sinkHash ^= RowHash(FNVOffset, s.row(r))
				}
			}
			reportNsPerCell(b, n*(n+1))
		})
		b.Run(fmt.Sprintf("n=%d/hashCols", n), func(b *testing.B) {
			h := make([]uint64, n)
			for i := 0; i < b.N; i++ {
				for j := range h {
					h[j] = FNVOffset
				}
				s.hashCols(h, 0, s.stride)
				sinkHash ^= h[0]
			}
			reportNsPerCell(b, n*(n+1))
		})
	}
}

// BenchmarkComputeCells times the kernel alone over a whole n×n matrix,
// Serial's one call, at the align-large request size and twice it.
func BenchmarkComputeCells(b *testing.B) {
	for _, n := range []int{512, 1024} {
		cfg := Config{N: n, Seed: 1}
		a, bs := Sequences(cfg)
		s := mustSlab(b, cfg, a, bs, 1, n, n+1)
		s.initGhostBoundary(0, n+1)
		s.initCol0()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.computeCells(1, n+1, 1, n+1)
			}
			reportNsPerCell(b, n*n)
		})
	}
}

// reportNsPerCell reports b's time per op divided over cells.
func reportNsPerCell(b *testing.B, cells int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(cells)), "ns/cell")
}

var sinkHash uint64
