// Command benchjson runs the tier-1 benchmark suite and writes the results
// as a machine-readable BENCH_<date>.json file, so the perf trajectory of
// the runtime can be tracked (and diffed) across PRs. It can also compare
// two such files:
//
//	go run ./cmd/benchjson                      # run + write BENCH_<date>.json
//	go run ./cmd/benchjson -label tuned         # ... BENCH_<date>_tuned.json
//	go run ./cmd/benchjson -compare A.json B.json
//
// The run mode shells out to `go test -bench` on the repository root (the
// per-figure benchmark harness in bench_test.go) with -benchmem, then
// parses the standard benchmark output format, including custom
// b.ReportMetric metrics such as model-speedup.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/collection"
	"repro/internal/core"
)

// tier1Bench is the default benchmark set: the shared-memory runtime and
// matrix-lab benchmarks whose trajectory the ROADMAP tracks per PR.
const tier1Bench = "^(BenchmarkOMPRegionForkJoin|BenchmarkOMPBarrier|" +
	"BenchmarkParallelLoopSchedules|BenchmarkLabMatrix|" +
	"BenchmarkAblationReductionMechanisms|BenchmarkFigure30AtomicVsCritical|" +
	"BenchmarkFigure21Reduction)$"

// commBench is the communication-stack suite: the per-collective
// algorithm matrix plus the transport, barrier and wire-format baselines
// (codec fast-path vs gob fallback, payload-size ping-pong, sustained
// bandwidth), recorded as BENCH_<date>_comm.json
// to justify the registry's policy thresholds and the wire codec's
// existence.
const commBench = "^(BenchmarkCollectiveAlgorithms|BenchmarkMPICollectives|" +
	"BenchmarkTransportPingPong|BenchmarkAblationBarrierAlgorithms|" +
	"BenchmarkAlltoall|BenchmarkFigure19MPIReduce|BenchmarkWireCodec|" +
	"BenchmarkWirePingPong|BenchmarkWireBandwidth)$"

// tasksBench is the task-runtime suite: task spawn/wait overhead, taskloop
// vs worksharing loops, tree-combine reductions, and the merge-sort
// acceptance sweep, recorded as BENCH_<date>_tasks.json across scheduler
// changes.
const tasksBench = "^(BenchmarkTaskSpawnWait|BenchmarkTaskRecursiveFanout|" +
	"BenchmarkTaskloopVsParallelFor|BenchmarkTaskTreeReduce|" +
	"BenchmarkMergeSort1M|BenchmarkSorts)$"

// storeBench is the run-store suite: the cache hit path against the
// execute path for a cheap OpenMP and an expensive MPI patternlet, plus
// the store's own microbenchmarks (digest, log round trip, miss, puts
// into full stores of 10³–10⁵ records), recorded as
// BENCH_<date>_store.json to document the speedup serving repeat /run
// requests from the store.
const storeBench = "^(BenchmarkRunStoreHitVsExecute|BenchmarkStoreOps)$"

// loadBench is the serving-pipeline suite: one run through the full
// serve.New stack, stage histograms included, and the histogram record
// path itself, recorded as BENCH_<date>_load.json. The macro companion — percentile reports from
// real HTTP load — comes from cmd/patternletbench, which writes the
// same file format.
const loadBench = "^(BenchmarkServePipeline|BenchmarkHistogramRecord)$"

// alignBench is the alignment macro workload: serial oracle vs the three
// parallel drivers across sizes, plus the virtual-core speedup model.
const alignBench = "^(BenchmarkAlignSerial|BenchmarkAlignWavefront|" +
	"BenchmarkAlignPipeline|BenchmarkAlignHybrid|BenchmarkAlignModelSpeedup)$"

// suites maps -suite names to benchmark regexes.
var suites = map[string]string{
	"tier1": tier1Bench,
	"comm":  commBench,
	"tasks": tasksBench,
	"store": storeBench,
	"load":  loadBench,
	"align": alignBench,
}

// suiteNames returns the -suite choices, sorted, for help and error text —
// derived from the map so adding a suite cannot leave stale listings.
func suiteNames() string {
	names := make([]string, 0, len(suites))
	for name := range suites {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Result and File are the shared BENCH_*.json schema, extracted to
// internal/benchfmt so cmd/patternletbench writes the same format.
type (
	Result = benchfmt.Result
	File   = benchfmt.File
)

func main() {
	bench := flag.String("bench", "", "benchmark regex passed to go test -bench (overrides -suite)")
	suite := flag.String("suite", "tier1", "named benchmark suite: "+suiteNames())
	benchtime := flag.String("benchtime", "200ms", "value for go test -benchtime")
	count := flag.Int("count", 1, "value for go test -count")
	label := flag.String("label", "", "optional label appended to the output file name")
	out := flag.String("out", "", "output path (default BENCH_<date>[_<label>].json)")
	compare := flag.Bool("compare", false, "compare two BENCH_*.json files instead of running")
	flag.Parse()

	if *bench == "" {
		re, ok := suites[*suite]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: unknown suite %q (have %s)\n", *suite, suiteNames())
			os.Exit(2)
		}
		*bench = re
		// The comm suite labels its file so the tier-1 recording of the
		// same day is never overwritten.
		if *suite != "tier1" && *label == "" {
			*label = *suite
		}
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare OLD.json NEW.json")
			os.Exit(2)
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	f, err := run(*bench, *benchtime, *count, *label)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = f.DefaultPath()
	}
	if err := f.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(f.Results))
}

func run(bench, benchtime string, count int, label string) (*File, error) {
	args := []string{"test", "-run", "^$", "-bench", bench,
		"-benchmem", "-benchtime", benchtime, "-count", strconv.Itoa(count), "."}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, outBytes)
	}
	f := benchfmt.NewFile(label, bench, benchtime)
	f.Results = parse(string(outBytes), f)
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed from:\n%s", outBytes)
	}
	tele, err := telemetryProbe()
	if err != nil {
		return nil, fmt.Errorf("telemetry probe: %w", err)
	}
	f.Telemetry = tele
	return f, nil
}

// telemetryProbe runs a small fixed workload — the task fan-out and the
// broadcast patternlets, through the same Registry.Run path every front
// end uses — with the telemetry spine enabled (RunOptions.Collect), and
// returns the merged counter snapshots. The probe doubles as a sanity
// check that instrumentation still counts across BENCH recordings; only
// the steal split varies with scheduling.
func telemetryProbe() (map[string]int64, error) {
	merged := map[string]int64{}
	for _, key := range []string{"task.omp", "broadcast.mpi"} {
		res, err := collection.Default.Run(context.Background(), key, core.RunOptions{Collect: true})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", key, err)
		}
		for k, v := range res.Counters {
			merged[k] += v
		}
	}
	return merged, nil
}

// parse reads standard `go test -bench` output. Each result line is
//
//	BenchmarkName-8  <iters>  <value> <unit>  <value> <unit> ...
//
// Repeated names (from -count > 1) are averaged.
func parse(out string, f *File) []Result {
	byName := map[string]*Result{}
	counts := map[string]int{}
	var order []string
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			f.CPU = v
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix, but only when it is numeric:
		// sub-benchmark names may legitimately contain hyphens
		// (e.g. allreduce/recursive-doubling).
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: name, Iters: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[unit] = v
			}
		}
		if prev, ok := byName[name]; ok {
			n := float64(counts[name])
			prev.NsPerOp = (prev.NsPerOp*n + r.NsPerOp) / (n + 1)
			prev.BytesPerOp = (prev.BytesPerOp*n + r.BytesPerOp) / (n + 1)
			prev.AllocsPerOp = (prev.AllocsPerOp*n + r.AllocsPerOp) / (n + 1)
			counts[name]++
			continue
		}
		byName[name] = &r
		counts[name] = 1
		order = append(order, name)
	}
	results := make([]Result, 0, len(order))
	for _, name := range order {
		results = append(results, *byName[name])
	}
	return results
}

// compareFiles prints a ratio table between two BENCH_*.json files.
func compareFiles(oldPath, newPath string) error {
	oldF, err := benchfmt.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newF, err := benchfmt.ReadFile(newPath)
	if err != nil {
		return err
	}
	oldBy := map[string]Result{}
	for _, r := range oldF.Results {
		oldBy[r.Name] = r
	}
	var names []string
	for _, r := range newF.Results {
		if _, ok := oldBy[r.Name]; ok {
			names = append(names, r.Name)
		}
	}
	sort.Strings(names)
	newBy := map[string]Result{}
	for _, r := range newF.Results {
		newBy[r.Name] = r
	}
	fmt.Printf("%-64s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "old/new")
	for _, name := range names {
		o, n := oldBy[name], newBy[name]
		ratio := 0.0
		if n.NsPerOp > 0 {
			ratio = o.NsPerOp / n.NsPerOp
		}
		fmt.Printf("%-64s %14.1f %14.1f %7.2fx\n", name, o.NsPerOp, n.NsPerOp, ratio)
	}
	return nil
}
