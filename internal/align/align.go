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
	"strings"
	"sync"
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

// slab is a column window over a contiguous block of DP-matrix rows:
// local rows 1..rows map to global rows gLo..gLo+rows-1, and local row 0
// is the ghost row — the global row above the block (the matrix boundary
// row for the topmost slab, the predecessor rank's streamed last row in
// the pipeline). Window column k holds global column c0+k. Serial and
// Wavefront use a full-width window (c0 = 0, stride M+1); the pipeline
// keeps only its current column chunk plus the column to its left, and
// slides the window right chunk by chunk.
type slab struct {
	vals    []int32   // (rows+1) * stride
	stride  int       // window width in columns
	c0      int       // global column of window column 0
	rows    int       // local compute rows (excluding the ghost row)
	gLo     int       // global row index of local row 1
	letters []uint8   // alphabet index of the letter of a for each local row
	prof    [4][]int8 // substitution profile of b: prof[x][j] scores alphabet[x] against b[j]
	cfg     Config    // normalized
}

// newSlab allocates a window of cols columns, starting at global column
// 0, over global rows gLo..gLo+rows-1, whose letters a holds, and builds
// b's substitution profile. Serial and Wavefront take their full-width
// slabs fresh from here; the pipeline's rank windows come from getWindow.
func newSlab(cfg Config, a, b []byte, gLo, rows, cols int) (*slab, error) {
	return new(slab).init(cfg, a, b, gLo, rows, cols)
}

// init shapes s as newSlab describes, reusing each of its buffers that is
// large enough, and sets every field. Cells are not cleared: a recycled
// window's cells hold the previous run's values until the drivers
// overwrite them. The profile has a row only for the letters of
// alphabet, so a byte of a outside it is refused here rather than scored
// wrongly.
func (s *slab) init(cfg Config, a, b []byte, gLo, rows, cols int) (*slab, error) {
	s.vals = resize(s.vals, (rows+1)*cols)
	s.stride, s.c0, s.rows, s.gLo = cols, 0, rows, gLo
	s.letters = resize(s.letters, len(a))
	s.cfg = cfg.norm()
	for i, c := range a {
		x := strings.IndexByte(alphabet, c)
		if x < 0 {
			return nil, fmt.Errorf("align: row %d holds %q, not a letter of %s", gLo+i, c, alphabet)
		}
		s.letters[i] = uint8(x)
	}
	// Column j mismatches every letter but b[j] itself. The profile's
	// rows are consecutive pieces of one buffer, which prof[0] starts.
	buf := resize(s.prof[0][:cap(s.prof[0])], len(alphabet)*len(b))
	for i := range buf {
		buf[i] = MismatchScore
	}
	for j, c := range b {
		if x := strings.IndexByte(alphabet, c); x >= 0 {
			buf[x*len(b)+j] = MatchScore
		}
	}
	for x := range s.prof {
		s.prof[x] = buf[x*len(b) : (x+1)*len(b)]
	}
	return s, nil
}

// resize returns buf resliced to length n, or a new slice if buf's
// array is too small.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// maxPooledWindow caps, in bytes, the windows putWindow keeps: as in
// wirecodec, one huge run must not pin its buffers in the pool.
const maxPooledWindow = 1 << 20

// windowPool recycles pipeline rank windows between runs. A served
// n=512 np=4 window is just over Go's 32 KiB small-object limit, so a
// fresh one per rank per run takes the large-object path and was most
// of a run's bytes (DESIGN §13.2). It holds *slab, so a Put boxes
// nothing.
var windowPool sync.Pool

// getWindow is newSlab over a recycled window when the pool has one.
func getWindow(cfg Config, a, b []byte, gLo, rows, cols int) (*slab, error) {
	s, _ := windowPool.Get().(*slab)
	if s == nil {
		s = new(slab)
	}
	return s.init(cfg, a, b, gLo, rows, cols)
}

// putWindow returns a window to the pool once its last cell has been
// read, unless its buffers pass maxPooledWindow.
func putWindow(s *slab) {
	if 4*cap(s.vals)+cap(s.letters)+cap(s.prof[0]) <= maxPooledWindow {
		windowPool.Put(s)
	}
}

// at and set address global column j, which must lie in the window.
func (s *slab) at(r, j int) int32     { return s.vals[r*s.stride+j-s.c0] }
func (s *slab) set(r, j int, v int32) { s.vals[r*s.stride+j-s.c0] = v }

// row returns local row r of the window (length stride; index k is
// global column c0+k).
func (s *slab) row(r int) []int32 { return s.vals[r*s.stride : (r+1)*s.stride] }

// slide moves the window one chunk right: its last column becomes
// window column 0, the west neighbour of the next chunk's first column.
func (s *slab) slide() {
	last := s.stride - 1
	for r := 0; r <= s.rows; r++ {
		s.vals[r*s.stride] = s.vals[r*s.stride+last]
	}
	s.c0 += last
}

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

// initGhostBoundary fills global columns [lo, hi) of the slab's ghost
// row with the matrix's global row 0 — only valid for the slab whose gLo
// is 1.
func (s *slab) initGhostBoundary(lo, hi int) {
	for j := lo; j < hi; j++ {
		s.set(0, j, boundaryCell(s.cfg, 0, j))
	}
}

// initCol0 fills column 0 of the compute rows from the boundary formula.
func (s *slab) initCol0() {
	for r := 1; r <= s.rows; r++ {
		s.set(r, 0, boundaryCell(s.cfg, s.gLo+r-1, 0))
	}
}

// computeCells fills local rows [rLo, rHi) × global columns [cLo, cHi)
// of the slab (columns cLo-1 through cHi-1 must lie in the window),
// assuming every north/west/northwest dependency inside and above the
// rectangle is already computed. This is THE scoring kernel: the
// serial oracle calls it once over the whole matrix, the wavefront once
// per block, the pipeline once per (rank, column chunk) tile — so a
// score can never differ between drivers, only the order it was
// computed in.
//
// Rows go two at a time (rowPair), an odd last row alone. The local
// clamp is a floor every cell is maxed with: 0 for Smith-Waterman, and
// for Needleman-Wunsch MinInt32, which is below every cell value.
func (s *slab) computeCells(rLo, rHi, cLo, cHi int) {
	floor := int32(math.MinInt32)
	if s.cfg.Local {
		floor = 0
	}
	r := rLo
	for ; r+1 < rHi; r += 2 {
		s.rowPair(r, cLo, cHi, floor)
	}
	if r < rHi {
		lo, hi := s.bandCols(r, cLo, cHi)
		s.rowCells(r, lo, hi, floor)
	}
}

// bandCols writes NegInf to the out-of-band cells of local row r in
// global columns [cLo, cHi) and returns the row's in-band columns
// [lo, hi) there, cLo <= lo <= hi <= cHi. Band 0 means the full matrix.
func (s *slab) bandCols(r, cLo, cHi int) (lo, hi int) {
	lo, hi = cLo, cHi
	if band := s.cfg.Band; band > 0 {
		gi := s.gLo + r - 1
		lo = min(max(gi-band, cLo), cHi)
		hi = max(min(gi+band+1, cHi), lo)
	}
	row := s.row(r)
	for k := cLo - s.c0; k < lo-s.c0; k++ {
		row[k] = NegInf
	}
	for k := hi - s.c0; k < cHi-s.c0; k++ {
		row[k] = NegInf
	}
	return lo, hi
}

// subs returns local row r's substitution scores for global columns
// [lo, hi).
func (s *slab) subs(r, lo, hi int) []int8 {
	return s.prof[s.letters[r-1]][lo-1 : hi-1]
}

// rowCells computes local row r over global columns [lo, hi), all in
// band.
func (s *slab) rowCells(r, lo, hi int, floor int32) {
	if lo >= hi {
		return // the common case for rowPair's edge peels
	}
	k, kHi := lo-s.c0, hi-s.c0
	north, out := s.row(r-1), s.row(r)
	cellRow(out[k:kHi], north[k:kHi], s.subs(r, lo, hi), north[k-1], out[k-1], floor)
}

// rowPair computes local rows r and r+1 over global columns [cLo, cHi).
// A band's edges move one column right per row, so row r+1's in-band
// columns [lo1, hi1) start and end no earlier than row r's [lo0, hi0).
// Row r's cells left of lo1 go first, then the columns both rows have
// in band go through cellRowPair, then row r+1's cells right of hi0.
// If the two ranges do not overlap, that is row r and then row r+1.
func (s *slab) rowPair(r, cLo, cHi int, floor int32) {
	lo0, hi0 := s.bandCols(r, cLo, cHi)
	lo1, hi1 := s.bandCols(r+1, cLo, cHi)
	mid := min(lo1, hi0)
	s.rowCells(r, lo0, mid, floor)
	k, kHi := mid-s.c0, hi0-s.c0
	north, out0, out1 := s.row(r-1), s.row(r), s.row(r+1)
	cellRowPair(out0[k:kHi], out1[k:kHi], north[k:kHi], s.subs(r, mid, hi0), s.subs(r+1, mid, hi0),
		north[k-1], out0[k-1], out1[k-1], floor)
	s.rowCells(r+1, max(lo1, hi0), hi1, floor)
}

// cellRow is the kernel's inner loop over one row: out[i] is the cell
// below north[i] with substitution score sub[i], and diag and west are
// out[0]'s northwest and west neighbours. The max over diagonal, north
// and floor does not depend on the previous cell, so the chain from one
// cell to the next is one add and one max.
func cellRow(out, north []int32, sub []int8, diag, west, floor int32) {
	north, sub = north[:len(out)], sub[:len(out)]
	for i, n := range north {
		v := max(diag+int32(sub[i]), n+GapScore, floor)
		v = max(v, west+GapScore)
		out[i] = v
		diag, west = n, v
	}
}

// cellRowPair is cellRow over two rows at once. Row 1's north neighbour
// is row 0's cell just computed and its northwest neighbour row 0's
// previous cell, so the two rows' chains run side by side.
func cellRowPair(out0, out1, north []int32, sub0, sub1 []int8, diag0, west0, west1, floor int32) {
	out1, north = out1[:len(out0)], north[:len(out0)]
	sub0, sub1 = sub0[:len(out0)], sub1[:len(out0)]
	for i, n := range north {
		v0 := max(diag0+int32(sub0[i]), n+GapScore, floor)
		v0 = max(v0, west0+GapScore)
		v1 := max(west0+int32(sub1[i]), v0+GapScore, floor)
		v1 = max(v1, west1+GapScore)
		out0[i], out1[i] = v0, v1
		diag0, west0, west1 = n, v0, v1
	}
}

// --- summary extraction ----------------------------------------------------

// FNVOffset is the FNV-1a 64 initial state: a row hash starts here.
const FNVOffset = 14695981039346656037

// fnvPrime is the FNV-1a 64 multiplier.
const fnvPrime = 1099511628211

// RowHash continues the FNV-1a hash h over a row's cells, one 32-bit
// word per step; start a row at FNVOffset. Ranks hash their own rows;
// the root folds the hashes in global row order, so the combined
// checksum is position-sensitive without any rank needing another
// rank's cells. Each step is serial in h, so a row hashed in column
// pieces, each piece continuing from the last one's state, hashes the
// same as the whole.
//
// This is checksum format v2 (DESIGN §13.2), one multiply per cell. A
// step h ↦ (h ^ w) · fnvPrime is injective in the word w for a fixed h
// and, the multiplier being odd, a bijection of h for a fixed w; so two
// matrices that differ in any one cell always get different checksums.
func RowHash(h uint64, row []int32) uint64 {
	for _, v := range row {
		h = (h ^ uint64(uint32(v))) * fnvPrime
	}
	return h
}

// FoldHashes combines per-row hashes in order into the matrix checksum,
// one whole uint64 row hash per FNV-1a step, by the same rule as RowHash.
func FoldHashes(hashes []uint64) uint64 {
	h := uint64(FNVOffset)
	for _, rh := range hashes {
		h = (h ^ rh) * fnvPrime
	}
	return h
}

// localMax returns the largest cell of local rows [1, rows] × global
// columns [lo, hi) — this window's Smith-Waterman score contribution.
// Out-of-band cells hold NegInf and in-band local cells are >= 0, so
// this is the largest in-band cell, or NegInf if there is none.
func (s *slab) localMax(lo, hi int) int32 {
	best := int32(NegInf)
	for r := 1; r <= s.rows; r++ {
		for _, v := range s.row(r)[lo-s.c0 : hi-s.c0] {
			best = max(best, v)
		}
	}
	return best
}

// hashCols continues the hash of each local row r in [1, rows], h[r-1],
// over global columns [lo, hi) of the window. Rows go four at a time
// through rowHash4, and any 1-3 leftover rows through RowHash; both
// compute the same FNV-1a, so the split never shows in a checksum.
// Serial and Wavefront call it once over the full width, the pipeline
// and hybrid once per chunk while the tile is still in cache.
func (s *slab) hashCols(h []uint64, lo, hi int) {
	lo, hi = lo-s.c0, hi-s.c0
	r := 1
	for ; r+3 <= s.rows; r += 4 {
		h[r-1], h[r], h[r+1], h[r+2] = rowHash4(h[r-1], h[r], h[r+1], h[r+2],
			s.row(r)[lo:hi], s.row(r + 1)[lo:hi], s.row(r + 2)[lo:hi], s.row(r + 3)[lo:hi])
	}
	for ; r <= s.rows; r++ {
		h[r-1] = RowHash(h[r-1], s.row(r)[lo:hi])
	}
}

// newRowHashes returns rows hash states, each at FNVOffset.
func newRowHashes(rows int) []uint64 {
	h := make([]uint64, rows)
	for i := range h {
		h[i] = FNVOffset
	}
	return h
}

// rowHash4 continues four row hashes over four equal-length rows at
// once. FNV-1a is a serial chain of multiplies per row; running four
// independent chains in one loop lets their multiplies overlap in the
// pipeline, where one chain alone waits out each multiply's latency.
func rowHash4(h0, h1, h2, h3 uint64, r0, r1, r2, r3 []int32) (uint64, uint64, uint64, uint64) {
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)] // one length: no bounds checks in the loop
	for j, v := range r0 {
		h0 = (h0 ^ uint64(uint32(v))) * fnvPrime
		h1 = (h1 ^ uint64(uint32(r1[j]))) * fnvPrime
		h2 = (h2 ^ uint64(uint32(r2[j]))) * fnvPrime
		h3 = (h3 ^ uint64(uint32(r3[j]))) * fnvPrime
	}
	return h0, h1, h2, h3
}

// summarize assembles the Summary for a single-slab (whole-matrix)
// computation: ghost row 0 is the matrix boundary row and participates
// in the checksum.
func (s *slab) summarize() Summary {
	hashes := newRowHashes(s.rows + 1)
	hashes[0] = RowHash(FNVOffset, s.row(0))
	s.hashCols(hashes[1:], 0, s.cfg.M+1)
	score := s.at(s.rows, s.cfg.M)
	if s.cfg.Local {
		score = s.localMax(0, s.cfg.M+1)
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
	s, err := serialSlab(cfg)
	if err != nil {
		return Summary{}, err
	}
	return s.summarize(), nil
}

// serialSlab computes Serial's whole matrix, boundary row 0 included.
func serialSlab(cfg Config) (*slab, error) {
	cfg = cfg.norm()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a, b := Sequences(cfg)
	s, err := newSlab(cfg, a, b, 1, cfg.N, cfg.M+1)
	if err != nil {
		return nil, err
	}
	s.initGhostBoundary(0, cfg.M+1)
	s.initCol0()
	s.computeCells(1, cfg.N+1, 1, cfg.M+1)
	return s, nil
}
