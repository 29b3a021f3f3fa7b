package align

import (
	"fmt"

	"repro/internal/mpi"
)

// maxOp is the max-reduction the score collectives use.
func maxOp(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// partition describes one rank's contiguous row block: rowsPer is the
// uniform block height (ceil(N/np), the Scatter unit), gLo the global
// index of the rank's first row, rows the rows it actually computes
// (zero for tail ranks when np > N/rowsPer).
func partition(n, np, rank int) (rowsPer, gLo, rows int) {
	rowsPer = (n + np - 1) / np
	gLo = rank*rowsPer + 1
	rows = n - (gLo - 1)
	if rows < 0 {
		rows = 0
	}
	if rows > rowsPer {
		rows = rowsPer
	}
	return rowsPer, gLo, rows
}

// PipelineRank is one rank's share of the MPI row-pipeline alignment,
// run inside an existing communicator (the patternlet calls it from
// mpiRun so multi-process worlds work unchanged):
//
//	scatter:  root pads sequence a to np·rowsPer and scatters contiguous
//	          row blocks; sequence b is broadcast whole.
//	pipeline: each rank sweeps its rows column chunk by column chunk
//	          (width Block); before computing a chunk it receives the
//	          predecessor's last row for those columns into its ghost
//	          row, and after computing it streams its own last row to
//	          the successor — the classic software pipeline, with the
//	          chunk index as the message tag. A rank holds only the
//	          current chunk's columns, and hashes each chunk's rows
//	          before moving on.
//	reduce:   the score max-reduces to the root; per-row checksum hashes
//	          gather in rank order, so the root folds them into the same
//	          whole-matrix checksum the serial oracle computes.
//
// The returned Summary is meaningful only on the root (second result
// true); other ranks return a zero Summary.
func PipelineRank(c *mpi.Comm, cfg Config) (Summary, bool, error) {
	return pipelineRank(c, cfg, func(s *slab, cLo, cHi int) {
		s.computeCells(1, s.rows+1, cLo, cHi)
	})
}

// pipelineRank is the pipeline skeleton with the per-chunk tile
// computation pluggable: the pure MPI driver fills the tile serially,
// the hybrid driver with an inner OpenMP wavefront. Both go through
// computeCells, so the matrices — and therefore scores and checksums —
// are identical by construction.
func pipelineRank(c *mpi.Comm, cfg Config, compute func(s *slab, cLo, cHi int)) (Summary, bool, error) {
	cfg = cfg.norm()
	if err := cfg.Validate(); err != nil {
		return Summary{}, false, err
	}
	const root = 0
	np, rank := c.Size(), c.Rank()
	rowsPer, gLo, rows := partition(cfg.N, np, rank)

	// Distribute the inputs: a in row blocks, b whole. Scatter needs the
	// payload divisible by the world size, so the root pads a out to
	// np·rowsPer; tail ranks simply ignore the padding rows.
	var aFull, b []byte
	if rank == root {
		aFull, b = Sequences(cfg)
		padded := make([]byte, np*rowsPer)
		copy(padded, aFull)
		aFull = padded
	}
	myA, err := mpi.Scatter(c, aFull, root)
	if err != nil {
		return Summary{}, false, err
	}
	b, err = mpi.Bcast(c, b, root)
	if err != nil {
		return Summary{}, false, err
	}

	// lastRank owns the matrix's final row (and the global-alignment
	// corner); ranks past it have no rows and skip the pipeline.
	lastRank := (cfg.N - 1) / rowsPer

	// Score: for global alignment only the corner's owner has it; for
	// local alignment every rank's block max competes. Non-contributors
	// offer NegInf, which any real cell beats.
	score := int32(NegInf)
	var myHashes []uint64
	if rows > 0 {
		// The rank keeps one column chunk of its rows plus the column to
		// the chunk's left (its first column's west and northwest
		// neighbours), not the whole row block, in a window from the
		// pool. The window goes back when pipelineRank returns, after its
		// last read (the corner, the last hashCols and localMax): Send
		// has encoded a copy of each streamed row, and the hybrid's inner
		// wavefront has joined.
		s, err := getWindow(cfg, myA[:rows], b, gLo, rows, min(cfg.Block, cfg.M)+1)
		if err != nil {
			return Summary{}, false, err
		}
		defer putWindow(s)
		// Ghost columns arrive chunk by chunk from the predecessor (or
		// from the boundary formula on the first rank); column 0 is
		// never part of a chunk.
		s.set(0, 0, boundaryCell(cfg, gLo-1, 0))
		s.initCol0()
		myHashes = newRowHashes(rows)

		for chunk, cLo := 0, 1; cLo <= cfg.M; chunk, cLo = chunk+1, cLo+cfg.Block {
			cHi := min(cLo+cfg.Block, cfg.M+1)
			if chunk > 0 {
				s.slide()
			}
			if gLo == 1 {
				s.initGhostBoundary(cLo, cHi)
			} else {
				seg, _, err := mpi.Recv[[]int32](c, rank-1, chunk)
				if err != nil {
					return Summary{}, false, fmt.Errorf("align: rank %d chunk %d recv: %w", rank, chunk, err)
				}
				if len(seg) != cHi-cLo {
					return Summary{}, false, fmt.Errorf("align: rank %d chunk %d: got %d ghost cells, want %d", rank, chunk, len(seg), cHi-cLo)
				}
				copy(s.row(0)[1:], seg)
			}
			compute(s, cLo, cHi)
			if rank < lastRank {
				// Send encodes a copy, so the window can slide on.
				if err := mpi.Send(c, s.row(rows)[1:1+cHi-cLo], rank+1, chunk); err != nil {
					return Summary{}, false, fmt.Errorf("align: rank %d chunk %d send: %w", rank, chunk, err)
				}
			}
			// Hash and scan the tile while it is in cache; the first
			// chunk's window column 0 is the matrix's column 0, which
			// every row hash starts with.
			hLo := cLo
			if chunk == 0 {
				hLo = 0
			}
			s.hashCols(myHashes, hLo, cHi)
			if cfg.Local {
				score = maxOp(score, s.localMax(hLo, cHi))
			}
		}
		if !cfg.Local && rank == lastRank {
			score = s.at(rows, cfg.M)
		}
	}
	score, err = mpi.Reduce(c, score, maxOp, root)
	if err != nil {
		return Summary{}, false, err
	}

	// Checksum: gather per-row hashes in rank order — Gather concatenates
	// variable-length contributions, so zero-row ranks contribute nothing
	// and the root sees rows 1..N in global order.
	hashes, err := mpi.Gather(c, myHashes, root)
	if err != nil {
		return Summary{}, false, err
	}
	if rank != root {
		return Summary{}, false, nil
	}

	if cfg.Local {
		score = maxOp(score, boundaryRowMax(cfg))
	}
	all := make([]uint64, 0, len(hashes)+1)
	all = append(all, RowHash(FNVOffset, boundaryRow(cfg)))
	all = append(all, hashes...)
	return Summary{
		N: cfg.N, M: cfg.M, Band: cfg.Band,
		Local: cfg.Local, Seed: cfg.Seed,
		Score: score, Checksum: FoldHashes(all),
	}, true, nil
}

// Pipeline runs the MPI driver in a fresh np-rank in-process world — the
// form the equivalence tests and benchmarks use directly.
func Pipeline(cfg Config, np int, opts ...mpi.Option) (Summary, error) {
	var sum Summary
	err := mpi.Run(np, func(c *mpi.Comm) error {
		s, isRoot, err := PipelineRank(c, cfg)
		if err != nil {
			return err
		}
		if isRoot {
			sum = s
		}
		return nil
	}, opts...)
	return sum, err
}
