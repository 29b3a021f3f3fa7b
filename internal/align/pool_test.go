package align

import (
	"fmt"
	"sync"
	"testing"
)

// poisonPool puts oversized windows into the pool whose cells hold
// poison's value and whose row letters and profile bytes are garbage,
// enough for every rank of a 7-rank world. A driver that reads a
// recycled cell before writing it then computes with a value no kernel
// writes, and its Summary leaves Serial's.
func poisonPool() {
	for range 16 {
		s := &slab{
			vals:    make([]int32, 1<<15),
			letters: make([]uint8, 1<<10),
		}
		poison(s)
		for i := range s.letters {
			s.letters[i] = 0xa5
		}
		buf := make([]int8, len(alphabet)<<10)
		for i := range buf {
			buf[i] = 0x5a
		}
		s.prof[0] = buf[:0]
		putWindow(s)
	}
}

// recycleConfigs are the shapes the recycled-window tests run, in order:
// the equivalence configs (bands, local and global, Block > M, a short
// last chunk, and shapes smaller than the one before them, so a window
// recycled from a larger run is reused too), then a one-row matrix and a
// tiny local one.
func recycleConfigs() []Config {
	return append(equivConfigs(),
		Config{N: 1, Seed: 2},
		Config{N: 7, M: 9, Seed: 4, Block: 3, Local: true})
}

// TestRecycledWindowsAreNeverRead pins that the pipeline and hybrid
// drivers write every window cell before they read it: each case runs
// on windows poisoned beforehand, and on windows left over from the
// cases before it, and must still match Serial, which never recycles.
func TestRecycledWindowsAreNeverRead(t *testing.T) {
	for _, cfg := range recycleConfigs() {
		want := mustSerial(t, cfg)
		for _, np := range []int{1, 3, 4, 7} {
			poisonPool()
			got, err := Pipeline(cfg, np)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s Pipeline np=%d:\n%q\nwant\n%q", cfgName(cfg), np, got, want)
			}
			poisonPool()
			got, err = Hybrid(cfg, np, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s Hybrid np=%d threads=2:\n%q\nwant\n%q", cfgName(cfg), np, got, want)
			}
		}
	}
}

// TestRecycledWindowsConcurrentRuns runs mixed shapes of Pipeline and
// Hybrid from several goroutines at once, so windows pass between worlds
// of different sizes while other worlds still hold theirs.
func TestRecycledWindowsConcurrentRuns(t *testing.T) {
	cfgs := recycleConfigs()
	want := make([]Summary, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = mustSerial(t, cfg)
	}
	poisonPool()
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * len(cfgs) {
				i := (g + k) % len(cfgs)
				np := 1 + (g+k)%4
				var got Summary
				var err error
				if (g+k)%2 == 0 {
					got, err = Pipeline(cfgs[i], np)
				} else {
					got, err = Hybrid(cfgs[i], np, 2)
				}
				if err == nil && got != want[i] {
					err = fmt.Errorf("%s np=%d run %d: %q, want %q", cfgName(cfgs[i]), np, k, got, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPipelineBytesPerRunServedSize pins the recycled windows at the
// size align-large serves: a warm n=512 np=4 run allocated about 215 KB
// with a fresh window per rank and allocates about 42 KB with recycled
// ones. The race detector's sync.Pool drops a quarter of its Puts on
// purpose, so the bound holds only without it.
func TestPipelineBytesPerRunServedSize(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	cfg := Config{N: 512, Seed: 1}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Pipeline(cfg, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("Pipeline n=512 np=4 allocates %d bytes per run, want < 64 KiB", got)
	}
}
