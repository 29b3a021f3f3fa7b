package workload

import (
	"fmt"
	"strings"

	"repro/internal/omp"
	"repro/internal/vtime"
)

// Schedule comparison in virtual time: for a workload shape and a task
// count, compute the makespan each loop schedule achieves on p virtual
// cores. This regenerates, as a deterministic table, the lesson the
// parallel-loop patternlets teach experientially: which schedule wins
// depends on the workload's shape.

// SchedResult is one schedule's outcome on one workload.
type SchedResult struct {
	Schedule string
	Makespan int64
	Balance  float64 // heaviest task / ideal share (1 = perfect)
}

// CompareSchedules evaluates the standard schedules on n iterations of
// model m over p tasks.
func CompareSchedules(m Model, n, p int) ([]SchedResult, error) {
	if n < 0 || p < 1 {
		return nil, fmt.Errorf("workload: invalid n=%d p=%d", n, p)
	}
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = m.Cost(i, n)
	}

	var out []SchedResult

	// Static schedules: the assignment is a pure function of (n, p), so
	// the makespan is the heaviest task's assigned work.
	static := func(name string, taskOf func(i int) int) {
		per := make([]int64, p)
		for i, c := range costs {
			per[taskOf(i)] += c
		}
		var max int64
		for _, w := range per {
			if w > max {
				max = w
			}
		}
		out = append(out, SchedResult{Schedule: name, Makespan: max, Balance: Balance(per)})
	}
	var equal []int // owner of each iteration under schedule(static)
	for t := 0; t < p; t++ {
		s, e := omp.EqualChunkBounds(n, p, t)
		for i := s; i < e; i++ {
			equal = append(equal, t)
		}
	}
	static("static (equal chunks)", func(i int) int { return equal[i] })
	static("static,1 (striped)", func(i int) int { return i % p })
	static("static,4", func(i int) int { return (i / 4) % p })

	// Dynamic,1 and guided,1 are greedy list scheduling in index order —
	// exactly what the vtime simulator computes for independent tasks.
	// Dynamic hands out single iterations; guided hands out chunks that
	// shrink as remaining/p.
	var guided []int64
	for next := 0; next < n; {
		chunk := max((n-next)/p, 1)
		var work int64
		for _, c := range costs[next : next+chunk] {
			work += c
		}
		guided = append(guided, work)
		next += chunk
	}
	for _, l := range []struct {
		name  string
		costs []int64
	}{{"dynamic,1", costs}, {"guided,1", guided}} {
		sched, err := vtime.Simulate(vtime.IndependentLoop(len(l.costs), func(i int) int64 { return l.costs[i] }), p)
		if err != nil {
			return nil, err
		}
		per := make([]int64, p)
		for _, r := range sched.Results {
			per[r.Core] += r.Finish - r.Start
		}
		out = append(out, SchedResult{Schedule: l.name, Makespan: sched.Makespan, Balance: Balance(per)})
	}
	return out, nil
}

// ScheduleTable renders the full comparison across the standard workload
// models — the "which schedule should I pick" experiment.
func ScheduleTable(n, p int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule comparison: %d iterations on %d virtual cores (makespan in work units)\n\n", n, p)
	for _, m := range Standard() {
		results, err := CompareSchedules(m, n, p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-22s (total %d, imbalance %.1f)\n", m.Name, m.Total(n), m.Imbalance(n))
		var best int64 = -1
		for _, r := range results {
			if best == -1 || r.Makespan < best {
				best = r.Makespan
			}
		}
		for _, r := range results {
			marker := ""
			if r.Makespan == best {
				marker = "  <- best"
			}
			fmt.Fprintf(&b, "  %-24s makespan %8d  balance %5.2f%s\n", r.Schedule, r.Makespan, r.Balance, marker)
		}
		fmt.Fprintln(&b)
	}
	return b.String(), nil
}
