package align

import (
	"repro/internal/omp"
)

// wavefrontRegion fills local rows [rLo, rHi) × columns [cLo, cHi) of
// the slab by an anti-diagonal block sweep with block edge blk, driven
// by thread e: blocks on one anti-diagonal are independent and run as
// one taskloop, and the loop's internal join stands in for the
// north/west/northwest dependence edges between diagonals. The caller
// must guarantee every dependency outside the rectangle (the row above
// rLo, the column left of cLo) is already computed — the same contract
// computeCells has, which is what makes the two interchangeable.
func wavefrontRegion(e *omp.Thread, s *slab, rLo, rHi, cLo, cHi, blk int) {
	rb := (rHi - rLo + blk - 1) / blk // block rows
	cb := (cHi - cLo + blk - 1) / blk // block cols
	for d := 0; d < rb+cb-1; d++ {
		lo := d - (cb - 1)
		if lo < 0 {
			lo = 0
		}
		hi := d
		if hi > rb-1 {
			hi = rb - 1
		}
		e.Taskloop(lo, hi+1, 1, func(br int) {
			bc := d - br
			bRLo := rLo + br*blk
			bRHi := bRLo + blk
			if bRHi > rHi {
				bRHi = rHi
			}
			bCLo := cLo + bc*blk
			bCHi := bCLo + blk
			if bCHi > cHi {
				bCHi = cHi
			}
			s.computeCells(bRLo, bRHi, bCLo, bCHi)
		})
	}
}

// Wavefront computes the alignment with an OpenMP anti-diagonal
// wavefront over Block×Block blocks of the whole matrix. The team
// follows the task.omp idiom: one thread seeds a shared group with the
// driver task, and every thread parks in the group's Wait, helping
// execute whatever blocks the driver spawns. nthreads <= 0 uses the
// scheduler default; opts lets the patternlet attach its run context
// (cancellation) exactly as the micro patternlets do.
func Wavefront(cfg Config, nthreads int, opts ...omp.Option) (Summary, error) {
	cfg = cfg.norm()
	if err := cfg.Validate(); err != nil {
		return Summary{}, err
	}
	a, b := Sequences(cfg)
	s, err := newSlab(cfg, a, b, 1, cfg.N, cfg.M+1)
	if err != nil {
		return Summary{}, err
	}
	s.initGhostBoundary(0, cfg.M+1)
	s.initCol0()

	ompOpts := opts
	if nthreads > 0 {
		ompOpts = append([]omp.Option{omp.WithNumThreads(nthreads)}, opts...)
	}
	omp.Parallel(func(t *omp.Thread) {
		root := t.SharedTaskGroup()
		t.Master(func() {
			root.Task(t, func(e *omp.Thread) {
				wavefrontRegion(e, s, 1, cfg.N+1, 1, cfg.M+1, cfg.Block)
			})
		})
		t.Barrier()
		root.Wait(t) // every thread helps execute the diagonals
	}, ompOpts...)

	return s.summarize(), nil
}
