package align

import (
	"fmt"
	"math/rand"
	"testing"
)

// goldenSummaries pins literal Summary transcripts. perfbench checks
// served runs against Serial, and Serial shares rowHashes with every
// driver, so a change to the hashing could move all of them together
// and still pass every equivalence test; these literals catch that.
var goldenSummaries = []struct {
	cfg  Config
	want string
}{
	// The two benchmark requests: align.mpi at its default params.
	{Config{N: 256, Seed: 1}, "align global (Needleman-Wunsch) n=256 m=256 band=0 seed=1\nscore=113 checksum=1a5e138b72bb8808\n"},
	{Config{N: 512, Seed: 1}, "align global (Needleman-Wunsch) n=512 m=512 band=0 seed=1\nscore=223 checksum=a59f74a87f30afea\n"},
	{Config{N: 200, M: 180, Band: 30, Seed: 9}, "align global (Needleman-Wunsch) n=200 m=180 band=30 seed=9\nscore=68 checksum=3fc66beecc61e1b9\n"},
	{Config{N: 150, M: 170, Band: 60, Seed: 3, Local: true}, "align local (Smith-Waterman) n=150 m=170 band=60 seed=3\nscore=65 checksum=ea3eeb7890adb0da\n"},
	// At np=4 the ranks own 16, 16, 16 and 15 rows: the last one hashes
	// three rows four at a time and three more one at a time.
	{Config{N: 63, Seed: 1}, "align global (Needleman-Wunsch) n=63 m=63 band=0 seed=1\nscore=21 checksum=9f50793e1a62568a\n"},
}

func TestGoldenSummaries(t *testing.T) {
	for _, g := range goldenSummaries {
		t.Run(cfgName(g.cfg), func(t *testing.T) {
			if got := mustSerial(t, g.cfg).String(); got != g.want {
				t.Fatalf("Serial:\n%q\nwant\n%q", got, g.want)
			}
			for _, np := range []int{4, 5} {
				got, err := Pipeline(g.cfg, np)
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != g.want {
					t.Fatalf("Pipeline np=%d:\n%q\nwant\n%q", np, got, g.want)
				}
			}
		})
	}
}

func TestRowHashesMatchRowHash(t *testing.T) {
	// rowHashes takes rows four at a time and the rest one by one; every
	// slab height from 1 to 9 covers each leftover count at least twice.
	rng := rand.New(rand.NewSource(1))
	for rows := 1; rows <= 9; rows++ {
		for _, m := range []int{1, 7, 64} {
			s := newSlab(Config{N: rows, M: m}, nil, nil, 1, rows)
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
			got := s.rowHashes()
			if len(got) != rows {
				t.Fatalf("rows=%d m=%d: %d hashes", rows, m, len(got))
			}
			for r := 1; r <= rows; r++ {
				if want := RowHash(s.row(r)); got[r-1] != want {
					t.Fatalf("rows=%d m=%d row %d: %016x, RowHash %016x", rows, m, r, got[r-1], want)
				}
			}
		}
	}
}

// BenchmarkRowHashes times hashing a whole n×n matrix's rows one at a
// time through RowHash (the old path) against rowHashes' four-way
// interleave, at the two served sizes.
func BenchmarkRowHashes(b *testing.B) {
	for _, n := range []int{256, 512} {
		s := newSlab(Config{N: n}, nil, nil, 1, n)
		for i := range s.vals {
			s.vals[i] = int32(i * 2654435761)
		}
		b.Run(fmt.Sprintf("n=%d/RowHash", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 1; r <= s.rows; r++ {
					sinkHash ^= RowHash(s.row(r))
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/rowHashes", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkHash ^= s.rowHashes()[0]
			}
		})
	}
}

var sinkHash uint64
