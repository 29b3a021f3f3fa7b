package mpi

import (
	"sync"
	"testing"
)

func TestSplitOddEven(t *testing.T) {
	const np = 6
	var mu sync.Mutex
	info := map[int][2]int{} // world rank -> (sub rank, sub size)
	err := Run(np, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub == nil {
			t.Errorf("rank %d got nil subcomm", c.Rank())
			return nil
		}
		mu.Lock()
		info[c.Rank()] = [2]int{sub.Rank(), sub.Size()}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Evens 0,2,4 -> sub ranks 0,1,2; odds 1,3,5 -> 0,1,2.
	want := map[int][2]int{
		0: {0, 3}, 2: {1, 3}, 4: {2, 3},
		1: {0, 3}, 3: {1, 3}, 5: {2, 3},
	}
	for r, w := range want {
		if info[r] != w {
			t.Errorf("world rank %d: sub (rank,size) = %v, want %v", r, info[r], w)
		}
	}
}

func TestSplitKeyControlsOrdering(t *testing.T) {
	const np = 4
	var mu sync.Mutex
	subRanks := map[int]int{}
	err := Run(np, func(c *Comm) error {
		// All same color; key reverses the order.
		sub, err := c.Split(0, np-c.Rank())
		if err != nil {
			return err
		}
		mu.Lock()
		subRanks[c.Rank()] = sub.Rank()
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for worldRank, subRank := range subRanks {
		if subRank != np-1-worldRank {
			t.Errorf("world %d -> sub %d, want %d", worldRank, subRank, np-1-worldRank)
		}
	}
}

func TestSplitUndefinedGetsNil(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		color := 0
		if c.Rank() == 1 {
			color = Undefined
		}
		sub, err := c.Split(color, 0)
		if err != nil {
			return err
		}
		if c.Rank() == 1 {
			if sub != nil {
				t.Error("Undefined rank received a communicator")
			}
			return nil
		}
		if sub == nil || sub.Size() != 2 {
			t.Errorf("rank %d subcomm wrong", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitTrafficIsolation: collectives within one subgroup must not
// interfere with the other's.
func TestSplitTrafficIsolation(t *testing.T) {
	const np = 6
	err := Run(np, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		// Each group reduces its own world ranks.
		sum, err := Allreduce(sub, c.Rank(), Sum[int]())
		if err != nil {
			return err
		}
		want := 0 + 2 + 4
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5
		}
		if sum != want {
			t.Errorf("rank %d group sum %d, want %d", c.Rank(), sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitSubcommP2P: point-to-point within the subcomm uses subcomm
// ranks.
func TestSplitSubcommP2P(t *testing.T) {
	const np = 4
	err := Run(np, func(c *Comm) error {
		sub, err := c.Split(c.Rank()/2, c.Rank()) // groups {0,1} and {2,3}
		if err != nil {
			return err
		}
		if sub.Rank() == 0 {
			return Send(sub, c.Rank()*7, 1, 0)
		}
		v, st, err := Recv[int](sub, 0, 0)
		if err != nil {
			return err
		}
		wantFrom := (c.Rank() / 2) * 2 // world rank of sub rank 0 in my group
		if v != wantFrom*7 || st.Source != 0 {
			t.Errorf("world %d received %d (st %+v)", c.Rank(), v, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitWorldRankPreserved(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		sub, err := c.Split(0, -c.Rank()) // reverse order
		if err != nil {
			return err
		}
		if sub.WorldRank() != c.Rank() {
			t.Errorf("WorldRank %d != world rank %d", sub.WorldRank(), c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDupIsolatesTraffic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if dup.Rank() != c.Rank() || dup.Size() != c.Size() {
			t.Errorf("dup rank/size mismatch")
		}
		// Same tag on both comms: each receive must get its own comm's
		// message even though tags collide.
		if c.Rank() == 0 {
			if err := Send(c, "parent", 1, 9); err != nil {
				return err
			}
			return Send(dup, "dup", 1, 9)
		}
		// Receive from the dup first, then the parent — order swapped
		// relative to sending, so comm-id matching is what separates them.
		d, _, err := Recv[string](dup, 0, 9)
		if err != nil {
			return err
		}
		p, _, err := Recv[string](c, 0, 9)
		if err != nil {
			return err
		}
		if d != "dup" || p != "parent" {
			t.Errorf("comm isolation broken: dup=%q parent=%q", d, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedSplit(t *testing.T) {
	const np = 8
	err := Run(np, func(c *Comm) error {
		half, err := c.Split(c.Rank()/4, c.Rank()) // two groups of 4
		if err != nil {
			return err
		}
		quarter, err := half.Split(half.Rank()/2, half.Rank()) // groups of 2
		if err != nil {
			return err
		}
		if quarter.Size() != 2 {
			t.Errorf("rank %d quarter size %d", c.Rank(), quarter.Size())
		}
		sum, err := Allreduce(quarter, c.Rank(), Sum[int]())
		if err != nil {
			return err
		}
		// Pairs are {0,1},{2,3},{4,5},{6,7}.
		base := (c.Rank() / 2) * 2
		if sum != base+base+1 {
			t.Errorf("rank %d pair sum %d, want %d", c.Rank(), sum, base*2+1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitOverTCP(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		sum, err := Allreduce(sub, 1, Sum[int]())
		if err != nil {
			return err
		}
		if sum != 2 {
			t.Errorf("subgroup size sum = %d", sum)
		}
		return nil
	}, WithTCP())
	if err != nil {
		t.Fatal(err)
	}
}

// Split orders its group with slices.SortFunc: a 4-rank world that only
// splits stays within a fixed allocation budget over an idle world.
// sort.Slice's reflect swapper added 12 allocations per world.
func TestSplitAllocs(t *testing.T) {
	allocs := func(body func(c *Comm) error) float64 {
		return testing.AllocsPerRun(50, func() {
			if err := Run(4, body); err != nil {
				t.Fatal(err)
			}
		})
	}
	idle := allocs(func(*Comm) error { return nil })
	split := allocs(func(c *Comm) error {
		_, err := c.Split(c.Rank()%2, c.Rank())
		return err
	})
	t.Logf("idle world %.0f allocations, splitting world %.0f", idle, split)
	// 45 at the time of writing; sort.Slice made it 57.
	if split-idle > 48 {
		t.Errorf("Split costs %.0f allocations per 4-rank world, want <= 48", split-idle)
	}
}
