package align

import (
	"math/rand"
	"testing"
)

func mustSlab(t testing.TB, cfg Config, a, b []byte, gLo, rows, cols int) *slab {
	t.Helper()
	s, err := newSlab(cfg, a, b, gLo, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// computeCellsRef is the scalar kernel computeCells replaced: one cell
// at a time in row order, with the band test and the base compare in
// every cell. TestKernelMatchesReference holds computeCells to it cell
// for cell.
func computeCellsRef(s *slab, a, b []byte, rLo, rHi, cLo, cHi int) {
	band, local, c0 := s.cfg.Band, s.cfg.Local, s.c0
	for r := rLo; r < rHi; r++ {
		gi := s.gLo + r - 1
		ai := a[gi-1]
		prev := s.row(r - 1)
		cur := s.row(r)
		for j := cLo; j < cHi; j++ {
			k := j - c0
			if !inBand(gi, j, band) {
				cur[k] = NegInf
				continue
			}
			sub := int32(MismatchScore)
			if ai == b[j-1] {
				sub = MatchScore
			}
			best := prev[k-1] + sub
			if v := prev[k] + GapScore; v > best {
				best = v
			}
			if v := cur[k-1] + GapScore; v > best {
				best = v
			}
			if local && best < 0 {
				best = 0
			}
			cur[k] = best
		}
	}
}

// poison fills a slab's cells with a value no kernel writes, so a cell
// computeCells skips cannot pass for a computed 0.
func poison(s *slab) {
	for i := range s.vals {
		s.vals[i] = 0x5a5a5a5
	}
}

// cuts splits [lo, hi) into random tile edges lo = e[0] < ... < e[n] =
// hi, with 1-wide tiles common.
func cuts(rng *rand.Rand, lo, hi int) []int {
	e := []int{lo}
	for lo < hi {
		w := 1 + rng.Intn(3)
		if rng.Intn(3) == 0 {
			w = 1 + rng.Intn(17)
		}
		lo = min(lo+w, hi)
		e = append(e, lo)
	}
	return e
}

// TestKernelMatchesReference fills the same matrices through computeCells
// and computeCellsRef and compares every cell: over random tile grids of
// a full-width window, as Serial and Wavefront tile it, and over a
// sliding column window of a row block (c0 > 0), as the pipeline holds
// it. It also checks that the random grids reached every case the
// kernel's row pairing and band peeling treat apart.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	seen := map[string]bool{}
	for i := 0; i < 600; i++ {
		cfg := Config{N: 1 + rng.Intn(48), M: 1 + rng.Intn(48), Seed: rng.Int63(), Local: i/6%2 == 1}
		cfg.Band = []int{0, 1, 2, 5, 13, cfg.N + cfg.M + 1}[i%6]
		a, b := Sequences(cfg)

		ref := mustSlab(t, cfg, a, b, 1, cfg.N, cfg.M+1)
		ref.initGhostBoundary(0, cfg.M+1)
		ref.initCol0()
		computeCellsRef(ref, a, b, 1, cfg.N+1, 1, cfg.M+1)

		// A full-width window over a random tile grid.
		s := mustSlab(t, cfg, a, b, 1, cfg.N, cfg.M+1)
		poison(s)
		s.initGhostBoundary(0, cfg.M+1)
		s.initCol0()
		rows, cols := cuts(rng, 1, cfg.N+1), cuts(rng, 1, cfg.M+1)
		for ri := 1; ri < len(rows); ri++ {
			for ci := 1; ci < len(cols); ci++ {
				rLo, rHi, cLo, cHi := rows[ri-1], rows[ri], cols[ci-1], cols[ci]
				s.computeCells(rLo, rHi, cLo, cHi)
				if (rHi-rLo)%2 == 0 {
					seen["even rows"] = true
				} else {
					seen["odd rows"] = true
				}
				if rHi-rLo == 1 {
					seen["1-row tile"] = true
				}
				if cHi-cLo == 1 {
					seen["1-column tile"] = true
				}
				for r := rLo; r < rHi; r++ {
					// Both ends out of band, on the same side of the diagonal.
					if !inBand(r, cLo, cfg.Band) && !inBand(r, cHi-1, cfg.Band) && (r < cLo) == (r < cHi-1) {
						seen["row with no in-band cell"] = true
					}
				}
			}
		}
		for r := 0; r <= cfg.N; r++ {
			for j := 0; j <= cfg.M; j++ {
				if got, want := s.at(r, j), ref.at(r, j); got != want {
					t.Fatalf("%s rows %v cols %v: cell (%d,%d) = %d, reference %d", cfgName(cfg), rows, cols, r, j, got, want)
				}
			}
		}

		// A row block's sliding column window: chunks of w columns, each
		// filled by a random tile grid of its own.
		gLo := 1 + rng.Intn(cfg.N)
		n := 1 + rng.Intn(cfg.N-gLo+1)
		w := 1 + rng.Intn(cfg.M)
		s = mustSlab(t, cfg, a[gLo-1:gLo-1+n], b, gLo, n, w+1)
		poison(s)
		for r := 0; r <= n; r++ {
			s.set(r, 0, ref.at(gLo-1+r, 0))
		}
		for cLo := 1; cLo <= cfg.M; cLo += w {
			cHi := min(cLo+w, cfg.M+1)
			if cLo > 1 {
				s.slide()
				seen["window with c0 > 0"] = true
			}
			for j := cLo; j < cHi; j++ {
				s.set(0, j, ref.at(gLo-1, j))
			}
			rows, cols := cuts(rng, 1, n+1), cuts(rng, cLo, cHi)
			for ri := 1; ri < len(rows); ri++ {
				for ci := 1; ci < len(cols); ci++ {
					s.computeCells(rows[ri-1], rows[ri], cols[ci-1], cols[ci])
				}
			}
			for r := 1; r <= n; r++ {
				for j := cLo; j < cHi; j++ {
					if got, want := s.at(r, j), ref.at(gLo-1+r, j); got != want {
						t.Fatalf("%s window gLo=%d rows=%d w=%d c0=%d: cell (%d,%d) = %d, reference %d",
							cfgName(cfg), gLo, n, w, s.c0, gLo-1+r, j, got, want)
					}
				}
			}
		}
	}
	for _, c := range []string{"even rows", "odd rows", "1-row tile", "1-column tile", "row with no in-band cell", "window with c0 > 0"} {
		if !seen[c] {
			t.Errorf("no random tile covered the case %q", c)
		}
	}
}

func TestNewSlabRefusesNonAlphabetRows(t *testing.T) {
	if _, err := newSlab(Config{N: 3}, []byte("ANT"), []byte("ACG"), 1, 3, 4); err == nil {
		t.Fatal("newSlab accepted a row letter outside ACGT")
	}
}
