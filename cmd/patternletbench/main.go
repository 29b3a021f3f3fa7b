// Command patternletbench drives a patternletd daemon with HTTP load and
// reports coordinated-omission-safe latency percentiles. It is the macro
// companion to `benchjson -suite load`: the suite times the pipeline in
// isolation, this harness measures what a client actually experiences —
// including the queueing the daemon inflicts when it saturates.
//
// Two generator modes:
//
//   - closed loop (-mode closed): -conns workers each hold one request in
//     flight, back to back. Latency is service time as a well-behaved
//     client sees it; throughput is what the daemon sustains at that
//     concurrency. A stalled server stalls the generator — closed loops
//     hide queueing delay, which is why this mode alone is not trusted.
//
//   - open loop (-mode open): requests fire on a fixed intent schedule at
//     -rate QPS (uniform spacing, or exponential with -poisson) no matter
//     how the daemon is doing, and every latency is measured from the
//     request's *scheduled* send time, not its actual one. A stall
//     therefore charges the server for every request it delayed — the
//     coordinated-omission correction of wrk2/HdrHistogram lineage.
//
// Workload mixes (-mix) cover the daemon's distinct cost classes: cheap
// fork-join runs, expensive cluster-wide MPI collectives, store-served
// repeat runs, heavyweight compute-bound alignment runs (random seeds,
// so the store cannot absorb them), and read-mostly catalog/metrics
// traffic.
//
//	patternletbench -url http://127.0.0.1:8080 -mode open -rate 200 -mix mixed
//	patternletbench -selfserve -mode closed -conns 8 -mix run-cheap
//	patternletbench -selfserve -sweep-workers 1,2,4,8 -sweep-queue 4,16,64
//
// With -selfserve the harness boots an in-process daemon (with a run
// store in a temp dir, so cached mixes hit) — the configuration the
// sizing sweep in EXPERIMENTS.md used. -json writes the report as a
// BENCH_*.json file diffable with `benchjson -compare`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/collection"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	url := flag.String("url", "", "base URL of a running patternletd (e.g. http://127.0.0.1:8080)")
	selfserve := flag.Bool("selfserve", false, "boot an in-process daemon instead of targeting -url")
	mode := flag.String("mode", "closed", "generator mode: closed, open, or both")
	mixName := flag.String("mix", "run-cheap", "comma-separated workload mixes: "+mixNames())
	conns := flag.Int("conns", 4, "closed loop: concurrent connections, each one request in flight")
	rate := flag.Float64("rate", 100, "open loop: target request rate in QPS")
	poisson := flag.Bool("poisson", false, "open loop: exponential inter-arrivals instead of uniform")
	warmup := flag.Duration("warmup", 2*time.Second, "warmup phase, excluded from the report")
	duration := flag.Duration("duration", 10*time.Second, "measurement phase")
	workers := flag.Int("workers", serve.DefaultWorkers, "selfserve: daemon worker pool size")
	queue := flag.Int("queue", serve.DefaultQueueDepth, "selfserve: daemon queue depth")
	sweepWorkers := flag.String("sweep-workers", "", "comma-separated worker counts: run the mix against each (implies -selfserve)")
	sweepQueue := flag.String("sweep-queue", "", "comma-separated queue depths for the sweep (default: the -queue value)")
	label := flag.String("label", "loadgen", "label for the -json output file name")
	jsonOut := flag.String("json", "", "write the report as a BENCH_*.json file (empty: report only; \"auto\": BENCH_<date>_<label>.json)")
	flag.Parse()

	var mixList []string
	for _, name := range strings.Split(*mixName, ",") {
		name = strings.TrimSpace(name)
		if _, ok := mixes[name]; !ok {
			fmt.Fprintf(os.Stderr, "patternletbench: unknown mix %q (have %s)\n", name, mixNames())
			os.Exit(2)
		}
		mixList = append(mixList, name)
	}
	modes := []string{*mode}
	switch *mode {
	case "closed", "open":
	case "both":
		modes = []string{"closed", "open"}
	default:
		fmt.Fprintf(os.Stderr, "patternletbench: -mode must be closed, open or both, got %q\n", *mode)
		os.Exit(2)
	}

	cfg := genConfig{
		mode:     *mode,
		conns:    *conns,
		rate:     *rate,
		poisson:  *poisson,
		warmup:   *warmup,
		duration: *duration,
	}

	file := benchfmt.NewFile(*label, "patternletbench/"+*mixName, cfg.duration.String())

	if *sweepWorkers != "" {
		if len(mixList) != 1 || len(modes) != 1 {
			log.Fatal("patternletbench: the sweep takes exactly one -mix and one -mode")
		}
		cells, err := sweepCells(*sweepWorkers, *sweepQueue, *queue)
		if err != nil {
			log.Fatalf("patternletbench: %v", err)
		}
		runSweep(cfg, mixes[mixList[0]], cells, file)
	} else {
		base := *url
		if *selfserve || base == "" {
			daemon, err := bootDaemon(*workers, *queue)
			if err != nil {
				log.Fatalf("patternletbench: selfserve: %v", err)
			}
			defer daemon.shutdown()
			base = daemon.url
			fmt.Printf("selfserve daemon at %s (workers=%d queue=%d)\n", base, *workers, *queue)
		}
		for _, m := range modes {
			for _, name := range mixList {
				cfg.mode = m
				rep := drive(base, cfg, mixes[name])
				fmt.Print(rep.table())
				file.Results = append(file.Results, rep.result(name))
			}
		}
		file.Telemetry = scrapeMetrics(base)
	}

	if *jsonOut != "" {
		path := *jsonOut
		if path == "auto" {
			path = file.DefaultPath()
		}
		if err := file.WriteFile(path); err != nil {
			log.Fatalf("patternletbench: %v", err)
		}
		fmt.Printf("wrote %s (%d results)\n", path, len(file.Results))
	}
}

// --- workload mixes -------------------------------------------------------

// request is one generated HTTP call.
type request struct {
	method, path, body string
}

var (
	reqRunCheap  = request{"POST", "/run", `{"key":"spmd.omp"}`}
	reqRunMPI    = request{"POST", "/run", `{"key":"allreduce.mpi","tasks":8}`}
	reqRunCached = request{"POST", "/run", `{"key":"reduction2.omp"}`} // deterministic: store hit after the first
	reqCatalog   = request{"GET", "/patternlets", ""}
	reqMetrics   = request{"GET", "/metrics.json", ""}
)

// reqRunAlign builds a heavyweight compute-bound run: the banded-alignment
// wavefront at n=512 with a fresh random seed per request, so the
// deterministic run store cannot serve repeats and every request pays the
// full dynamic-programming fill.
func reqRunAlign(r *rand.Rand) request {
	seed := r.Int63n(1 << 30)
	return request{"POST", "/run",
		fmt.Sprintf(`{"key":"align.omp","params":{"n":512},"seed":%d}`, seed)}
}

// mix picks the next request; r is a per-worker source so closed-loop
// workers don't contend on one lock.
type mix struct {
	desc string
	pick func(r *rand.Rand) request
}

// weighted builds a pick over (weight, request) pairs.
func weighted(pairs ...struct {
	w   int
	req request
}) func(r *rand.Rand) request {
	total := 0
	for _, p := range pairs {
		total += p.w
	}
	return func(r *rand.Rand) request {
		n := r.Intn(total)
		for _, p := range pairs {
			if n < p.w {
				return p.req
			}
			n -= p.w
		}
		return pairs[len(pairs)-1].req
	}
}

func pair(w int, req request) struct {
	w   int
	req request
} {
	return struct {
		w   int
		req request
	}{w, req}
}

var mixes = map[string]mix{
	"run-cheap": {
		desc: "100% POST /run spmd.omp (cheap fork-join)",
		pick: func(*rand.Rand) request { return reqRunCheap },
	},
	"run-mpi": {
		desc: "100% POST /run allreduce.mpi tasks=8 (full message-passing world per run)",
		pick: func(*rand.Rand) request { return reqRunMPI },
	},
	"run-cached": {
		desc: "100% POST /run reduction2.omp (deterministic; store hits after the first)",
		pick: func(*rand.Rand) request { return reqRunCached },
	},
	"run-align": {
		desc: "100% POST /run align.omp n=512, random seed (heavyweight compute, store-proof)",
		pick: reqRunAlign,
	},
	"read-heavy": {
		desc: "45% GET /patternlets, 45% GET /metrics.json, 10% cheap run",
		pick: weighted(pair(45, reqCatalog), pair(45, reqMetrics), pair(10, reqRunCheap)),
	},
	"mixed": {
		desc: "60% cheap run, 20% mpi run, 20% cached run",
		pick: weighted(pair(60, reqRunCheap), pair(20, reqRunMPI), pair(20, reqRunCached)),
	},
}

func mixNames() string {
	names := make([]string, 0, len(mixes))
	for name := range mixes {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// --- generator ------------------------------------------------------------

type genConfig struct {
	mode     string // closed | open
	conns    int
	rate     float64
	poisson  bool
	warmup   time.Duration
	duration time.Duration
}

// report accumulates one measurement phase. Latencies land in the same
// histogram primitive the daemon's own stage instrumentation uses, so
// the harness's quantile error bounds are the tested ones.
type report struct {
	mode, mixName string
	measured      time.Duration
	hist          *telemetry.Histogram
	ok            atomic.Int64 // 2xx, recorded in hist
	busy          atomic.Int64 // 503 admission bounces
	failed        atomic.Int64 // any other status or transport error
	lateStart     atomic.Int64 // open loop: sends that slipped >1ms past intent
}

func newReport(mode, mixName string) *report {
	return &report{mode: mode, mixName: mixName, hist: &telemetry.Histogram{}}
}

// drive runs one generator phase (warmup + measurement) against base.
func drive(base string, cfg genConfig, mx mix) *report {
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
		},
	}
	rep := newReport(cfg.mode, mx.desc)
	rep.measured = cfg.duration
	start := time.Now()
	measureFrom := start.Add(cfg.warmup)
	deadline := measureFrom.Add(cfg.duration)

	if cfg.mode == "closed" {
		var wg sync.WaitGroup
		for c := 0; c < cfg.conns; c++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for {
					sent := time.Now()
					if !sent.Before(deadline) {
						return
					}
					req := mx.pick(r)
					rep.record(client, base, req, sent, sent.After(measureFrom))
				}
			}(int64(c) + 1)
		}
		wg.Wait()
		return rep
	}

	// Open loop: one scheduler fires requests on the intent timeline;
	// latency is measured from the intent, so a slow server is charged
	// for the delay it imposed on requests it never even saw yet.
	r := rand.New(rand.NewSource(1))
	var wg sync.WaitGroup
	for intent := start; intent.Before(deadline); intent = intent.Add(interArrival(r, cfg.rate, cfg.poisson)) {
		if d := time.Until(intent); d > 0 {
			time.Sleep(d)
		}
		if slip := time.Since(intent); slip > time.Millisecond {
			// The generator itself fell behind (scheduler overload); the
			// sample is still CO-safe — the slip is charged to latency —
			// but count it so a report from a saturated *generator* is
			// distinguishable from a saturated server.
			rep.lateStart.Add(1)
		}
		req := mx.pick(r)
		wg.Add(1)
		go func(req request, intent time.Time) {
			defer wg.Done()
			rep.record(client, base, req, intent, intent.After(measureFrom))
		}(req, intent)
	}
	wg.Wait()
	return rep
}

// interArrival is the open-loop schedule step at rate QPS.
func interArrival(r *rand.Rand, rate float64, poisson bool) time.Duration {
	mean := float64(time.Second) / rate
	if !poisson {
		return time.Duration(mean)
	}
	return time.Duration(r.ExpFloat64() * mean)
}

// record performs one request and books it. from is the latency origin:
// the actual send for closed loop, the scheduled intent for open loop.
func (rep *report) record(client *http.Client, base string, req request, from time.Time, measured bool) {
	httpReq, err := http.NewRequest(req.method, base+req.path, strings.NewReader(req.body))
	if err != nil {
		rep.failed.Add(1)
		return
	}
	if req.body != "" {
		httpReq.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		if measured {
			rep.failed.Add(1)
		}
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if !measured {
		return
	}
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		rep.ok.Add(1)
		rep.hist.RecordSince(from)
	case resp.StatusCode == http.StatusServiceUnavailable:
		rep.busy.Add(1)
	default:
		rep.failed.Add(1)
	}
}

// table renders the human report.
func (rep *report) table() string {
	snap := rep.hist.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "\n%s loop, %s\n", rep.mode, rep.mixName)
	fmt.Fprintf(&b, "  measured %v: %d ok (%.1f QPS goodput), %d busy(503), %d failed\n",
		rep.measured, rep.ok.Load(), float64(rep.ok.Load())/rep.measured.Seconds(),
		rep.busy.Load(), rep.failed.Load())
	if late := rep.lateStart.Load(); late > 0 {
		fmt.Fprintf(&b, "  WARNING: %d intents fired >1ms late — generator saturated, raise -conns machine or lower -rate\n", late)
	}
	if snap.Count() == 0 {
		b.WriteString("  no successful samples\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  latency: mean %s", time.Duration(int64(snap.Mean())))
	for _, p := range telemetry.Percentiles {
		fmt.Fprintf(&b, "  %s %s", p.Label, time.Duration(snap.Quantile(p.Q)))
	}
	fmt.Fprintf(&b, "  max %s\n", time.Duration(snap.Max))
	return b.String()
}

// result flattens the report into the shared BENCH schema. suffix
// distinguishes sweep cells.
func (rep *report) result(suffix string) benchfmt.Result {
	snap := rep.hist.Snapshot()
	name := "LoadGen/" + rep.mode
	if suffix != "" {
		name += "/" + suffix
	}
	metrics := map[string]float64{
		"qps":    float64(rep.ok.Load()) / rep.measured.Seconds(),
		"busy":   float64(rep.busy.Load()),
		"failed": float64(rep.failed.Load()),
		"max_ns": float64(snap.Max),
	}
	for _, p := range telemetry.Percentiles {
		metrics[p.Label+"_ns"] = float64(snap.Quantile(p.Q))
	}
	return benchfmt.Result{
		Name:    name,
		Iters:   snap.Count(),
		NsPerOp: float64(snap.Mean()),
		Metrics: metrics,
	}
}

// scrapeMetrics grabs the daemon's final /metrics.json so the BENCH file
// records what the server saw (per-stage percentiles included).
func scrapeMetrics(base string) map[string]int64 {
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	snap := map[string]int64{}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	return snap
}

// --- selfserve ------------------------------------------------------------

type daemon struct {
	url      string
	shutdown func()
}

// bootDaemon starts an in-process patternletd equivalent on an ephemeral
// port: full catalog and a temp-dir run store so
// cached mixes exercise the hit path.
func bootDaemon(workers, queue int) (*daemon, error) {
	dir, err := os.MkdirTemp("", "patternletbench-store-*")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := serve.New(collection.Default,
		serve.WithWorkers(workers),
		serve.WithQueueDepth(queue),
		serve.WithStore(st),
	)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: serve.ReadHeaderTimeout,
		IdleTimeout:       serve.IdleTimeout,
	}
	go httpSrv.Serve(ln)
	return &daemon{
		url: "http://" + ln.Addr().String(),
		shutdown: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			httpSrv.Shutdown(ctx)
			st.Close()
			os.RemoveAll(dir)
		},
	}, nil
}

// --- sizing sweep ---------------------------------------------------------

type cell struct{ workers, queue int }

// sweepCells builds the cross product of the two flag lists.
func sweepCells(workersCSV, queueCSV string, defaultQueue int) ([]cell, error) {
	ws, err := parseInts(workersCSV)
	if err != nil {
		return nil, fmt.Errorf("-sweep-workers: %w", err)
	}
	qs := []int{defaultQueue}
	if queueCSV != "" {
		if qs, err = parseInts(queueCSV); err != nil {
			return nil, fmt.Errorf("-sweep-queue: %w", err)
		}
	}
	var cells []cell
	for _, w := range ws {
		for _, q := range qs {
			cells = append(cells, cell{w, q})
		}
	}
	return cells, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad value %q", s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// runSweep boots a fresh daemon per (workers, queue) cell, drives the mix
// against it, and prints a goodput/p99 grid — the experiment behind the
// measured serve.DefaultWorkers / DefaultQueueDepth.
func runSweep(cfg genConfig, mx mix, cells []cell, file *benchfmt.File) {
	fmt.Printf("sizing sweep: %d cells, %s loop, %v warmup + %v measure per cell\n",
		len(cells), cfg.mode, cfg.warmup, cfg.duration)
	fmt.Printf("%8s %6s %10s %10s %10s %10s %8s %8s\n",
		"workers", "queue", "goodput", "p50", "p99", "max", "busy", "failed")
	best, bestScore := cell{}, math.Inf(-1)
	for _, c := range cells {
		daemon, err := bootDaemon(c.workers, c.queue)
		if err != nil {
			log.Fatalf("patternletbench: sweep cell w=%d q=%d: %v", c.workers, c.queue, err)
		}
		rep := drive(daemon.url, cfg, mx)
		daemon.shutdown()
		snap := rep.hist.Snapshot()
		qps := float64(rep.ok.Load()) / rep.measured.Seconds()
		fmt.Printf("%8d %6d %9.1f/s %10s %10s %10s %8d %8d\n",
			c.workers, c.queue, qps,
			time.Duration(snap.Quantile(0.50)), time.Duration(snap.Quantile(0.99)),
			time.Duration(snap.Max), rep.busy.Load(), rep.failed.Load())
		file.Results = append(file.Results, rep.result(fmt.Sprintf("w=%d,q=%d", c.workers, c.queue)))
		// Rank cells by goodput, tie-broken against tail pain: a cell only
		// wins if its extra throughput is not bought with a >2× p99.
		score := qps
		if p99 := snap.Quantile(0.99); p99 > 0 {
			score = qps / math.Sqrt(float64(p99)/1e6)
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	fmt.Printf("best balanced cell: workers=%d queue=%d\n", best.workers, best.queue)
}
