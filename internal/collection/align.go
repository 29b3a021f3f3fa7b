package collection

// The alignment macro workload (ROADMAP item 5): banded Smith-Waterman /
// Needleman-Wunsch sequence alignment from internal/align, registered
// three ways — an OpenMP anti-diagonal wavefront, an MPI row pipeline,
// and the MPI+OpenMP hybrid. Where every other patternlet isolates one
// pattern on toy data, these three run a real dynamic-programming kernel
// with real dependences, and they are the catalog's first patternlets
// with declared Params: problem size is a run-time knob, not a constant.

import (
	"repro/internal/align"
	"repro/internal/core"
	"repro/internal/mpi"
)

func init() {
	register(alignOMP())
	register(alignMPI())
	register(alignHybrid())
}

// alignParams is the shared parameter table: sequence length, band
// width (0 = full matrix), and wavefront/pipeline block edge. The n cap
// keeps align.omp's DP matrix (~(n+1)² int32 cells) around 16 MB so a
// served run can't balloon the daemon. align.mpi and align.hybrid never
// hold the whole matrix: each rank keeps a column window of about
// (n/np+1)·(block+1) cells.
func alignParams() []core.Param {
	return []core.Param{
		{Name: "n", Doc: "sequence length (DP matrix is (n+1)^2 cells)", Default: 256, Min: 16, Max: 2048},
		{Name: "band", Doc: "band half-width; only |i-j| <= band computed (0 = full matrix)", Default: 0, Min: 0, Max: 2048},
		{Name: "block", Doc: "wavefront/pipeline block edge", Default: 64, Min: 8, Max: 1024},
	}
}

// alignDirectives declares the local/global mode toggle shared by all
// three drivers.
func alignDirectives() []core.Directive {
	return []core.Directive{
		{Name: "local", Pragma: "H[i][j] = max(0, ...) — local (Smith-Waterman) scoring", Default: false},
	}
}

// alignConfig assembles the kernel config from the run context's
// resolved params, toggle and seed.
func alignConfig(rc *core.RunContext) align.Config {
	return align.Config{
		N:     rc.Param("n"),
		Band:  rc.Param("band"),
		Block: rc.Param("block"),
		Local: rc.Enabled("local"),
		Seed:  rc.BaseSeed(),
	}
}

func alignOMP() *core.Patternlet {
	return &core.Patternlet{
		Name:     "align",
		Model:    core.OpenMP,
		Patterns: []core.Pattern{core.DataDecomposition, core.ForkJoin, core.Reduction},
		Synopsis: "banded sequence alignment as an anti-diagonal task wavefront",
		Exercise: "Each anti-diagonal of blocks is one taskloop; the join between diagonals\n" +
			"stands in for the north/west dependences. Grow -param block and explain why\n" +
			"too-large blocks starve the team while too-small ones drown it in task overhead.",
		Params:       alignParams(),
		Directives:   alignDirectives(),
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			sum, err := align.Wavefront(alignConfig(rc), 0, ompOpts(rc, rc.NumTasks)...)
			if err != nil {
				return err
			}
			rc.W.Printf("%s", sum)
			return nil
		},
		// The whole matrix is computed through one pure kernel whose cell
		// values are order-independent given the wavefront's dependence
		// barriers, and the single print happens after the join — pinned
		// byte-identical to the serial oracle in internal/align's tests.
		Deterministic: true,
	}
}

func alignMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "align",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.DataDecomposition, core.MessagePassing, core.Reduction},
		Synopsis: "banded sequence alignment as a scatter + row software pipeline",
		Exercise: "Rank r streams its last row to rank r+1 one column chunk at a time. Time the\n" +
			"pipeline fill: how many chunks pass before the last rank starts computing, and\n" +
			"how does -param block trade fill latency against message count?",
		Params:       alignParams(),
		Directives:   alignDirectives(),
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			cfg := alignConfig(rc)
			return mpiRun(rc, func(c *mpi.Comm) error {
				sum, isRoot, err := align.PipelineRank(c, cfg)
				if err != nil {
					return err
				}
				if isRoot {
					rc.W.Printf("%s", sum)
				}
				return nil
			})
		},
		// Scores max-reduce and row hashes gather in rank order, and only
		// the root prints, after the collectives complete — byte-identical
		// to the oracle for every world size (internal/align's tests).
		Deterministic: true,
	}
}

func alignHybrid() *core.Patternlet {
	return &core.Patternlet{
		Name:     "align",
		Model:    core.Hybrid,
		Patterns: []core.Pattern{core.DataDecomposition, core.MessagePassing, core.ForkJoin},
		Synopsis: "MPI row pipeline between ranks, OpenMP wavefront within each rank's tile",
		Exercise: "Compare -np 4 here against align.mpi -np 8: same total workers, different\n" +
			"split. Which dependences cross the process boundary and which stay in shared\n" +
			"memory?",
		Params:       alignParams(),
		Directives:   alignDirectives(),
		DefaultTasks: 2,
		Run: func(rc *core.RunContext) error {
			cfg := alignConfig(rc)
			return mpiRun(rc, func(c *mpi.Comm) error {
				sum, isRoot, err := align.HybridRank(c, cfg, 0, ompOpts(rc, hybridThreadsPerProcess)...)
				if err != nil {
					return err
				}
				if isRoot {
					rc.W.Printf("%s", sum)
				}
				return nil
			})
		},
		// Same structural argument as align.mpi — the inner OpenMP
		// wavefront only reorders computation of the same pure kernel, and
		// the root's post-collective print is the only output.
		Deterministic: true,
	}
}
