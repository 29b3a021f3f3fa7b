// Package align is the repository's first macro workload: banded pairwise
// DNA sequence alignment, after the Gonzalez-Escribano et al. teaching
// assignment the ROADMAP names. Where the patternlet catalog is
// deliberately micro — each program isolates one pattern — alignment is a
// real computation with real data dependencies: every dynamic-programming
// cell H[i][j] needs its north, west and northwest neighbours, which is
// exactly the wavefront/pipeline dependence structure the catalog's
// patternlets teach in miniature.
//
// One scoring kernel, four drivers:
//
//   - Serial: the oracle — one goroutine fills the whole matrix in row
//     order. Everything else must match it byte for byte.
//   - Wavefront: the matrix is tiled into blocks; blocks on the same
//     anti-diagonal are independent and run as omp tasks on the
//     work-stealing scheduler, one taskloop per diagonal.
//   - Pipeline: MPI — rank 0 scatters contiguous row blocks, ranks
//     compute column chunk by column chunk, each rank streaming its last
//     row downstream to its successor (a software pipeline), then
//     row-hashes gather back to rank 0.
//   - Hybrid: the MPI pipeline between ranks, with each rank's tile
//     computed by an inner OpenMP wavefront — MPI across processes,
//     tasks within, the MPI+X composition of the catalog's hybrid
//     patternlets at macro scale.
//
// Every driver produces an identical Summary (score + whole-matrix
// checksum) for a given Config, regardless of task count, world size,
// collective algorithm, or block size — pinned by the same equivalence-
// test pattern the collectives use. That identity is what lets the three
// align.* patternlets carry the Deterministic tag and be served from the
// content-addressed run store.
package align

import (
	"fmt"
	"math"
)

// Scoring constants — fixed, so a Summary is a pure function of Config.
// +2 match / -1 mismatch / -2 per gap symbol is the classic classroom
// scheme (a linear gap penalty keeps the recurrence three-way).
const (
	MatchScore    = 2
	MismatchScore = -1
	GapScore      = -2
)

// NegInf marks a cell outside the band: unreachable. It is far enough
// from MinInt32 that adding a gap or mismatch cannot wrap, and every
// driver writes exactly this value to out-of-band cells so checksums
// stay byte-identical.
const NegInf = math.MinInt32 / 4

// Config selects one alignment problem. The zero value is not runnable;
// use the patternlet params' defaults or fill N explicitly.
type Config struct {
	N     int   // length of sequence a (rows)
	M     int   // length of sequence b (cols); 0 = N
	Band  int   // banded DP: only |i-j| <= Band computed; 0 = full matrix
	Block int   // wavefront/pipeline block edge; 0 = DefaultBlock
	Local bool  // true = Smith-Waterman (local), false = Needleman-Wunsch (global)
	Seed  int64 // PRNG seed for sequence generation
}

// DefaultBlock is the block edge used when Config.Block is zero.
const DefaultBlock = 64

// norm fills the config's defaults.
func (c Config) norm() Config {
	if c.M == 0 {
		c.M = c.N
	}
	if c.Block <= 0 {
		c.Block = DefaultBlock
	}
	return c
}

// Validate rejects configs the kernels cannot run.
func (c Config) Validate() error {
	c = c.norm()
	if c.N < 1 || c.M < 1 {
		return fmt.Errorf("align: sequence lengths must be positive, got n=%d m=%d", c.N, c.M)
	}
	if c.Band < 0 {
		return fmt.Errorf("align: band must be non-negative, got %d", c.Band)
	}
	return nil
}

// Summary is the deterministic outcome of one alignment: the optimal
// score and an order-sensitive checksum over every cell of the DP matrix
// (in-band values and out-of-band sentinels alike). Two drivers agree on
// a Summary if and only if they computed the same matrix.
type Summary struct {
	N, M, Band int
	Local      bool
	Seed       int64
	Score      int32
	Checksum   uint64
}

// String renders the canonical transcript every align driver prints —
// and the only thing they print, so the omp, mpi and hybrid patternlets'
// captured Output is byte-identical to the serial oracle's.
func (s Summary) String() string {
	mode := "global (Needleman-Wunsch)"
	if s.Local {
		mode = "local (Smith-Waterman)"
	}
	return fmt.Sprintf("align %s n=%d m=%d band=%d seed=%d\nscore=%d checksum=%016x\n",
		mode, s.N, s.M, s.Band, s.Seed, s.Score, s.Checksum)
}

// --- sequences -------------------------------------------------------------

// alphabet is the DNA alphabet the generated sequences draw from.
const alphabet = "ACGT"

// splitmix64 is the same finalizer the ring package uses for cross-
// process determinism: a fixed, Go-version-independent PRNG step, so a
// seed means the same sequences in every rank of a distributed world.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sequence derives a length-n sequence from (seed, stream).
func sequence(seed int64, stream uint64, n int) []byte {
	out := make([]byte, n)
	state := splitmix64(uint64(seed) ^ (stream * 0x9e3779b97f4a7c15))
	for i := range out {
		state = splitmix64(state)
		out[i] = alphabet[state&3]
	}
	return out
}

// Sequences generates the two input sequences for a config — every rank
// of a distributed world can regenerate them from the seed alone, but
// the MPI pipeline deliberately scatters rank 0's copy instead, to
// exercise the collective stack the way the assignment intends.
func Sequences(cfg Config) (a, b []byte) {
	cfg = cfg.norm()
	return sequence(cfg.Seed, 1, cfg.N), sequence(cfg.Seed, 2, cfg.M)
}

// --- the DP kernel ---------------------------------------------------------

// slab is a contiguous block of DP-matrix rows: local rows 1..rows map to
// global rows gLo..gLo+rows-1, and local row 0 is the ghost row — the
// global row above the block (the matrix boundary row for the topmost
// slab, the predecessor rank's streamed last row in the pipeline).
type slab struct {
	vals   []int32 // (rows+1) * stride
	stride int     // M+1
	rows   int     // local compute rows (excluding the ghost row)
	gLo    int     // global row index of local row 1
	a      []byte  // characters for global rows gLo..gLo+rows-1 (local slice)
	b      []byte  // full second sequence
	cfg    Config  // normalized
}

// newSlab allocates a slab covering global rows gLo..gLo+rows-1.
func newSlab(cfg Config, a, b []byte, gLo, rows int) *slab {
	cfg = cfg.norm()
	return &slab{
		vals:   make([]int32, (rows+1)*(cfg.M+1)),
		stride: cfg.M + 1,
		rows:   rows,
		gLo:    gLo,
		a:      a,
		b:      b,
		cfg:    cfg,
	}
}

func (s *slab) at(r, j int) int32     { return s.vals[r*s.stride+j] }
func (s *slab) set(r, j int, v int32) { s.vals[r*s.stride+j] = v }

// row returns local row r as a slice (length stride).
func (s *slab) row(r int) []int32 { return s.vals[r*s.stride : (r+1)*s.stride] }

// inBand reports whether global cell (i, j) is computed. Band 0 means
// the full matrix.
func inBand(i, j, band int) bool {
	if band == 0 {
		return true
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	return d <= band
}

// boundaryCell is the value of a boundary cell (global row 0 or column
// 0) at distance k from the origin: accumulated gaps for global
// alignment, zero for local, NegInf outside the band.
func boundaryCell(cfg Config, i, j int) int32 {
	if !inBand(i, j, cfg.Band) {
		return NegInf
	}
	if cfg.Local {
		return 0
	}
	return int32(GapScore * (i + j)) // one of i, j is 0 on a boundary
}

// initGhostBoundary fills the slab's ghost row with the matrix's global
// row 0 — only valid for the slab whose gLo is 1.
func (s *slab) initGhostBoundary() {
	for j := 0; j <= s.cfg.M; j++ {
		s.set(0, j, boundaryCell(s.cfg, 0, j))
	}
}

// initCol0 fills column 0 of the compute rows from the boundary formula.
func (s *slab) initCol0() {
	for r := 1; r <= s.rows; r++ {
		s.set(r, 0, boundaryCell(s.cfg, s.gLo+r-1, 0))
	}
}

// computeCells fills local rows [rLo, rHi) × columns [cLo, cHi) of the
// slab, assuming every north/west/northwest dependency inside and above
// the rectangle is already computed. This is THE scoring kernel: the
// serial oracle calls it once over the whole matrix, the wavefront once
// per block, the pipeline once per (rank, column chunk) tile — so a
// score can never differ between drivers, only the order it was
// computed in.
func (s *slab) computeCells(rLo, rHi, cLo, cHi int) {
	band, local := s.cfg.Band, s.cfg.Local
	for r := rLo; r < rHi; r++ {
		gi := s.gLo + r - 1
		ai := s.a[gi-s.gLo]
		prev := s.row(r - 1)
		cur := s.row(r)
		for j := cLo; j < cHi; j++ {
			if !inBand(gi, j, band) {
				cur[j] = NegInf
				continue
			}
			sub := int32(MismatchScore)
			if ai == s.b[j-1] {
				sub = MatchScore
			}
			best := prev[j-1] + sub
			if v := prev[j] + GapScore; v > best {
				best = v
			}
			if v := cur[j-1] + GapScore; v > best {
				best = v
			}
			if local && best < 0 {
				best = 0
			}
			cur[j] = best
		}
	}
}

// --- summary extraction ----------------------------------------------------

// fnvOffset/fnvPrime are the FNV-1a 64 constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// RowHash hashes one full matrix row (FNV-1a over little-endian cell
// bytes). Ranks hash their own rows; the root folds the hashes in global
// row order, so the combined checksum is position-sensitive without any
// rank needing another rank's cells.
func RowHash(row []int32) uint64 {
	h := uint64(fnvOffset)
	for _, v := range row {
		u := uint32(v)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(u >> shift))
			h *= fnvPrime
		}
	}
	return h
}

// FoldHashes combines per-row hashes in order into the matrix checksum.
func FoldHashes(hashes []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, rh := range hashes {
		for shift := 0; shift < 64; shift += 8 {
			h ^= uint64(byte(rh >> shift))
			h *= fnvPrime
		}
	}
	return h
}

// localMax returns the largest in-band cell of local rows [1, rows] —
// the Smith-Waterman score contribution of this slab.
func (s *slab) localMax() int32 {
	best := int32(NegInf)
	for r := 1; r <= s.rows; r++ {
		gi := s.gLo + r - 1
		row := s.row(r)
		for j := 0; j <= s.cfg.M; j++ {
			if inBand(gi, j, s.cfg.Band) && row[j] > best {
				best = row[j]
			}
		}
	}
	return best
}

// rowHashes returns the hashes of local rows [1, rows] in order. Rows go
// four at a time through rowHash4, and any 1-3 leftover rows through
// RowHash; both compute the same FNV-1a, so the split never shows in a
// checksum.
func (s *slab) rowHashes() []uint64 {
	out := make([]uint64, s.rows)
	r := 1
	for ; r+3 <= s.rows; r += 4 {
		out[r-1], out[r], out[r+1], out[r+2] = rowHash4(s.row(r), s.row(r+1), s.row(r+2), s.row(r+3))
	}
	for ; r <= s.rows; r++ {
		out[r-1] = RowHash(s.row(r))
	}
	return out
}

// rowHash4 is RowHash over four equal-length rows at once. FNV-1a is a
// serial chain of multiplies per row; running four independent chains in
// one loop lets their multiplies overlap in the pipeline, where one chain
// alone waits out each multiply's latency.
func rowHash4(r0, r1, r2, r3 []int32) (h0, h1, h2, h3 uint64) {
	h0, h1, h2, h3 = fnvOffset, fnvOffset, fnvOffset, fnvOffset
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)] // one length: no bounds checks in the loop
	for j, v := range r0 {
		u0, u1, u2, u3 := uint64(uint32(v)), uint64(uint32(r1[j])), uint64(uint32(r2[j])), uint64(uint32(r3[j]))
		h0 = (h0 ^ u0&0xff) * fnvPrime
		h1 = (h1 ^ u1&0xff) * fnvPrime
		h2 = (h2 ^ u2&0xff) * fnvPrime
		h3 = (h3 ^ u3&0xff) * fnvPrime
		h0 = (h0 ^ u0>>8&0xff) * fnvPrime
		h1 = (h1 ^ u1>>8&0xff) * fnvPrime
		h2 = (h2 ^ u2>>8&0xff) * fnvPrime
		h3 = (h3 ^ u3>>8&0xff) * fnvPrime
		h0 = (h0 ^ u0>>16&0xff) * fnvPrime
		h1 = (h1 ^ u1>>16&0xff) * fnvPrime
		h2 = (h2 ^ u2>>16&0xff) * fnvPrime
		h3 = (h3 ^ u3>>16&0xff) * fnvPrime
		h0 = (h0 ^ u0>>24) * fnvPrime
		h1 = (h1 ^ u1>>24) * fnvPrime
		h2 = (h2 ^ u2>>24) * fnvPrime
		h3 = (h3 ^ u3>>24) * fnvPrime
	}
	return h0, h1, h2, h3
}

// summarize assembles the Summary for a single-slab (whole-matrix)
// computation: ghost row 0 is the matrix boundary row and participates
// in the checksum.
func (s *slab) summarize() Summary {
	hashes := make([]uint64, 0, s.rows+1)
	hashes = append(hashes, RowHash(s.row(0)))
	hashes = append(hashes, s.rowHashes()...)
	score := s.at(s.rows, s.cfg.M)
	if s.cfg.Local {
		score = s.localMax()
		if b := boundaryRowMax(s.cfg); b > score {
			score = b
		}
	}
	return Summary{
		N: s.cfg.N, M: s.cfg.M, Band: s.cfg.Band,
		Local: s.cfg.Local, Seed: s.cfg.Seed,
		Score: score, Checksum: FoldHashes(hashes),
	}
}

// boundaryRow materializes the matrix's global row 0 — the pipeline's
// root hashes it directly, since no rank's compute rows include it.
func boundaryRow(cfg Config) []int32 {
	row := make([]int32, cfg.M+1)
	for j := 0; j <= cfg.M; j++ {
		row[j] = boundaryCell(cfg, 0, j)
	}
	return row
}

// boundaryRowMax is the largest in-band boundary-row cell — 0 for local
// alignment (it exists so the local max is well-defined even when every
// computed cell clamps to 0).
func boundaryRowMax(cfg Config) int32 {
	best := int32(NegInf)
	for j := 0; j <= cfg.M; j++ {
		if v := boundaryCell(cfg, 0, j); v > best {
			best = v
		}
	}
	return best
}

// --- the serial oracle -----------------------------------------------------

// Serial computes the alignment with one goroutine in row order — the
// oracle every parallel driver is pinned against.
func Serial(cfg Config) (Summary, error) {
	cfg = cfg.norm()
	if err := cfg.Validate(); err != nil {
		return Summary{}, err
	}
	a, b := Sequences(cfg)
	s := newSlab(cfg, a, b, 1, cfg.N)
	s.initGhostBoundary()
	s.initCol0()
	s.computeCells(1, cfg.N+1, 1, cfg.M+1)
	return s.summarize(), nil
}
