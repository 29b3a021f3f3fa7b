package mpi

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"slices"
)

// Communicator management: MPI_Comm_split and MPI_Comm_dup. Both are
// collective over the parent communicator.
//
// New communicator ids are derived deterministically from (parent id,
// collective sequence number, color): every rank of the parent executes
// the same collective sequence, so all members compute the same id with
// no extra traffic — and, critically, the scheme needs no shared allocator,
// so it works identically whether ranks are goroutines in one process or
// separate OS processes under the remote transport.

// deriveCommID hashes the derivation path of a new communicator.
func deriveCommID(parent, seq, color int) int {
	h := fnv.New64a()
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(parent))
	binary.LittleEndian.PutUint64(buf[8:], uint64(seq))
	binary.LittleEndian.PutUint64(buf[16:], uint64(color))
	_, _ = h.Write(buf[:])
	return int(h.Sum64() & 0x7fffffffffffffff)
}

// splitEntry is the (color, key, rank) triple each rank contributes to a
// Split.
type splitEntry struct {
	Color, Key, Rank int
}

// Split partitions the communicator: ranks passing the same color form a
// new communicator, ordered by key with ties broken by parent rank
// (MPI_Comm_split). A rank passing Undefined receives nil and belongs to
// no new communicator. Every rank of c must call Split.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// Collect every rank's (color, key); Allgather returns them in parent
	// rank order on all ranks.
	entries, err := Allgather(c, []splitEntry{{Color: color, Key: key, Rank: c.rank}})
	if err != nil {
		return nil, err
	}
	// All ranks have executed the same collectives, so collSeq agrees and
	// the derived id is identical for every member of a color group.
	seq := c.collSeq

	if color == Undefined || color < 0 {
		return nil, nil
	}
	var group []splitEntry
	for _, e := range entries {
		if e.Color == color {
			group = append(group, e)
		}
	}
	slices.SortFunc(group, func(a, b splitEntry) int {
		return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Rank, b.Rank))
	})

	ranks := make([]int, len(group))
	myNewRank := -1
	for i, e := range group {
		worldRank := c.ranks[e.Rank]
		ranks[i] = worldRank
		if e.Rank == c.rank {
			myNewRank = i
		}
	}
	return newComm(c.w, deriveCommID(c.id, seq, color), myNewRank, ranks), nil
}

// dupColor is the color sentinel reserved for Dup's id derivation, chosen
// outside the non-negative user color space.
const dupColor = -7

// Dup creates a communicator with the same group but an isolated tag/
// message space (MPI_Comm_dup), so a library's traffic cannot collide with
// its caller's.
func (c *Comm) Dup() (*Comm, error) {
	// A barrier both synchronizes the collective and advances the shared
	// sequence number the derived id is based on.
	if err := Barrier(c); err != nil {
		return nil, err
	}
	seq := c.collSeq
	ranks := make([]int, len(c.ranks))
	copy(ranks, c.ranks)
	return newComm(c.w, deriveCommID(c.id, seq, dupColor), c.rank, ranks), nil
}
