package align

import (
	"math"
	"math/rand"
	"testing"
)

// byteRowHash and byteFoldHashes are checksum format v1, the byte-wise
// FNV-1a RowHash and FoldHashes computed before they took whole words:
// four multiplies per cell, eight per row hash.
func byteRowHash(h uint64, row []int32) uint64 {
	for _, v := range row {
		u := uint32(v)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(u >> shift))
			h *= fnvPrime
		}
	}
	return h
}

func byteFoldHashes(hashes []uint64) uint64 {
	h := uint64(FNVOffset)
	for _, rh := range hashes {
		for shift := 0; shift < 64; shift += 8 {
			h ^= uint64(byte(rh >> shift))
			h *= fnvPrime
		}
	}
	return h
}

// byteChecksumRef is the v1 checksum of a whole-matrix slab (Serial's),
// boundary row 0 included: what every driver reported before format v2.
func byteChecksumRef(s *slab) uint64 {
	hashes := make([]uint64, s.rows+1)
	for r := range hashes {
		hashes[r] = byteRowHash(FNVOffset, s.row(r))
	}
	return byteFoldHashes(hashes)
}

// TestChecksumDetectsOneCell changes one cell at a time of computed
// matrices, by +1 and by flipping bit 31, and checks that the checksum
// moves every time. Every step of RowHash and FoldHashes is injective in
// its input word and a bijection of the state, so no single-cell change
// can go unseen; a weaker hash (one that drops bits, cells or rows)
// fails here before it can pass the equivalence suite by accident. The
// matrices cover band 0 and band > 0, local and global alignment. Every
// cell is changed, column 0, the boundary row and the last cell
// included; the test checks that NegInf sentinels were among them.
func TestChecksumDetectsOneCell(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	negInf := 0
	for i := 0; i < 40; i++ {
		cfg := Config{N: 1 + rng.Intn(12), M: 1 + rng.Intn(12), Seed: rng.Int63(), Local: i%2 == 1}
		if i%4 >= 2 {
			cfg.Band = 1 + rng.Intn(4)
		}
		s, err := serialSlab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := s.summarize().Checksum
		for k, v := range s.vals {
			for _, changed := range []int32{v + 1, v ^ math.MinInt32} {
				s.vals[k] = changed
				if got := s.summarize().Checksum; got == base {
					t.Fatalf("%s: cell (%d, %d) %d -> %d leaves the checksum at %016x",
						cfgName(cfg), k/s.stride, k%s.stride, v, changed, got)
				}
			}
			s.vals[k] = v
			if v == NegInf {
				negInf++
			}
		}
	}
	if negInf == 0 {
		t.Fatal("no NegInf cell was changed")
	}
}
