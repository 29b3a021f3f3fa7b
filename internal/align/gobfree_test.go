package align_test

import (
	"context"
	"testing"

	"repro/internal/align"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// The align pipeline's ghost rows ([]int32) and row-hash gather
// ([]uint64) have typed wire shapes; a gob fallback on either costs a
// fresh decoder and a type descriptor per message. Every payload the
// pipeline sends must take the fast path.

const (
	gobEncode  = "mpi.codec.gob_encode"
	gobDecode  = "mpi.codec.gob_decode"
	fastEncode = "mpi.codec.fast_encode"
)

func checkNoGob(t *testing.T, what string, counters map[string]int64) {
	t.Helper()
	if counters[gobEncode] != 0 || counters[gobDecode] != 0 {
		t.Errorf("%s: %d gob encodes, %d gob decodes; want 0", what, counters[gobEncode], counters[gobDecode])
	}
	if counters[fastEncode] == 0 {
		t.Errorf("%s: no fast-path encodes counted; counters %v", what, counters)
	}
}

func TestAlignPipelineNeverFallsBackToGob(t *testing.T) {
	cfg := align.Config{N: 96, Seed: 5, Block: 16}
	drivers := []struct {
		name string
		run  func() (align.Summary, error)
	}{
		{"Pipeline np=4", func() (align.Summary, error) { return align.Pipeline(cfg, 4) }},
		{"HybridRank np=4", func() (align.Summary, error) {
			var sum align.Summary
			err := mpi.Run(4, func(c *mpi.Comm) error {
				s, isRoot, err := align.HybridRank(c, cfg, 2)
				if isRoot {
					sum = s
				}
				return err
			})
			return sum, err
		}},
	}
	for _, d := range drivers {
		col := telemetry.New()
		telemetry.Enable(col)
		_, err := d.run()
		telemetry.Disable()
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		checkNoGob(t, d.name, col.Counters().Snapshot())
	}

	res, err := collection.Default.Run(context.Background(), "align.mpi", core.RunOptions{
		NumTasks: 4,
		Params:   map[string]int{"n": 96, "block": 16},
		Collect:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkNoGob(t, "align.mpi via Registry.Run", res.Counters)
}
