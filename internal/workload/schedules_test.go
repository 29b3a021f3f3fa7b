package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func findResult(t *testing.T, results []SchedResult, name string) SchedResult {
	t.Helper()
	for _, r := range results {
		if r.Schedule == name {
			return r
		}
	}
	t.Fatalf("no result for %q in %v", name, results)
	return SchedResult{}
}

func TestCompareSchedulesUniformAllEqual(t *testing.T) {
	// A flat workload that divides evenly: every schedule achieves the
	// ideal makespan total/p.
	results, err := CompareSchedules(Uniform(4), 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(64 * 4 / 4)
	for _, r := range results {
		if r.Makespan != want {
			t.Errorf("%s: makespan %d, want %d", r.Schedule, r.Makespan, want)
		}
		if r.Balance != 1 {
			t.Errorf("%s: balance %v, want 1", r.Schedule, r.Balance)
		}
	}
}

// TestTriangularStripingBeatsEqualChunks is the chunks-of-1 patternlet's
// lesson as numbers: with costs growing in i, contiguous equal chunks give
// the last task almost twice the ideal work, while striping stays near 1.
func TestTriangularStripingBeatsEqualChunks(t *testing.T) {
	results, err := CompareSchedules(Triangular(), 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	equal := findResult(t, results, "static (equal chunks)")
	striped := findResult(t, results, "static,1 (striped)")
	if striped.Makespan >= equal.Makespan {
		t.Fatalf("striping (%d) should beat equal chunks (%d) on triangular work",
			striped.Makespan, equal.Makespan)
	}
	if equal.Balance < 1.5 {
		t.Fatalf("equal chunks balance %v; expected heavy imbalance", equal.Balance)
	}
	if striped.Balance > 1.1 {
		t.Fatalf("striped balance %v; expected near-perfect", striped.Balance)
	}
}

// TestSpikeDynamicWins: with one huge iteration, dynamic scheduling gets
// within the spike's own cost of optimal, while any static schedule that
// co-locates the spike with other work does worse.
func TestSpikeDynamicWins(t *testing.T) {
	results, err := CompareSchedules(Spike(2), 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	dynamic := findResult(t, results, "dynamic,1")
	equal := findResult(t, results, "static (equal chunks)")
	if dynamic.Makespan > equal.Makespan {
		t.Fatalf("dynamic (%d) worse than equal chunks (%d) on spike", dynamic.Makespan, equal.Makespan)
	}
}

// TestDynamicNeverWorseThanTwiceOptimal: greedy scheduling's classic
// bound (Graham): makespan <= total/p + max single cost.
func TestDynamicNeverWorseThanTwiceOptimalProperty(t *testing.T) {
	f := func(modelIdx, nRaw, pRaw uint8) bool {
		models := Standard()
		m := models[int(modelIdx)%len(models)]
		n := 1 + int(nRaw)%300
		p := 1 + int(pRaw)%8
		results, err := CompareSchedules(m, n, p)
		if err != nil {
			return false
		}
		var dyn SchedResult
		for _, r := range results {
			if r.Schedule == "dynamic,1" {
				dyn = r
			}
		}
		total := m.Total(n)
		var maxCost int64
		for i := 0; i < n; i++ {
			if c := m.Cost(i, n); c > maxCost {
				maxCost = c
			}
		}
		return dyn.Makespan <= total/int64(p)+maxCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAllSchedulesAtLeastLowerBound: no schedule beats the work bound
// ceil(total/p) or the max single iteration.
func TestAllSchedulesAtLeastLowerBoundProperty(t *testing.T) {
	f := func(modelIdx, pRaw uint8) bool {
		models := Standard()
		m := models[int(modelIdx)%len(models)]
		n := 200
		p := 1 + int(pRaw)%8
		results, err := CompareSchedules(m, n, p)
		if err != nil {
			return false
		}
		total := m.Total(n)
		lower := (total + int64(p) - 1) / int64(p)
		var maxCost int64
		for i := 0; i < n; i++ {
			if c := m.Cost(i, n); c > maxCost {
				maxCost = c
			}
		}
		if maxCost > lower {
			lower = maxCost
		}
		for _, r := range results {
			if r.Makespan < lower {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareSchedulesValidation(t *testing.T) {
	if _, err := CompareSchedules(Uniform(1), -1, 4); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := CompareSchedules(Uniform(1), 8, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestCompareSchedulesEmptyLoop(t *testing.T) {
	results, err := CompareSchedules(Triangular(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Makespan != 0 {
			t.Fatalf("%s: makespan %d for empty loop", r.Schedule, r.Makespan)
		}
	}
}

func TestScheduleTableRenders(t *testing.T) {
	table, err := ScheduleTable(128, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"triangular", "dynamic,1", "<- best", "static (equal chunks)", "guided,1"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// The cmd/figures schedule table is pinned byte for byte, so a change to
// any schedule's simulation shows up as a diff of the figure.
func TestScheduleTableGolden(t *testing.T) {
	table, err := ScheduleTable(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "schedule_table_256_4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if table != string(want) {
		t.Errorf("ScheduleTable(256, 4) drifted from golden.\ngot:\n%s\nwant:\n%s", table, want)
	}
}
