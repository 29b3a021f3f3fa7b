// Package serve is the serving layer over the patternlet registry: a
// stdlib-only HTTP/JSON service that executes patternlets under load
// with production semantics — a bounded admission queue with
// backpressure, a fixed worker pool capping run concurrency, per-request
// timeouts that cancel the running region through the context plumbing
// in core.RunContext, and graceful shutdown that drains exactly the
// jobs it admitted. See DESIGN.md §8 for the admission → queue → worker
// pool → run API picture.
//
// Execution placement is pluggable behind the Executor interface: a
// single-node server runs everything through its LocalExecutor, while a
// server configured WithCluster routes each run key over a consistent-
// hash ring (internal/ring) and forwards remote-owned keys to the peer
// daemon that owns them, with bounded retry, hedged failover, and
// rehashing when a peer dies. See DESIGN.md §10.
//
// Every execution still goes through core.Registry.Run — the same single
// entry point the patternlet CLI and benchjson's probe use — so the
// service adds no second invocation path; it adds admission control and
// placement around the one that exists.
package serve

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Defaults for the tunables below.
//
// Workers and queue depth are measured, not guessed: the patternletbench
// sizing sweep in EXPERIMENTS.md (workers × queue cross product under
// the mixed closed-loop workload) found workers=2 the goodput peak even
// on a single-core host — patternlet runs block on channel handoffs
// inside their regions, so a second worker keeps the core busy through
// those stalls, while 4–8 workers only added scheduling churn. queue=16
// was the smallest depth that absorbed admission bursts without
// bouncing traffic: queue=4 returned spurious 503s under steady load
// the pool could actually sustain, and queue=64 added queueing delay
// at no goodput gain. Re-run `make load-smoke` style sweeps
// (patternletbench -sweep-workers ... -sweep-queue ...) before changing
// either number.
const (
	DefaultWorkers        = 2
	DefaultQueueDepth     = 16
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxTimeout     = time.Minute
	DefaultTraceCapacity  = 64
)

// Option configures a Server, following the same WithX functional-option
// convention as omp.Option and mpi.Option.
type Option func(*config)

type config struct {
	workers       int
	queueDepth    int
	timeout       time.Duration
	maxTimeout    time.Duration
	traceCapacity int
	retryAfter    time.Duration
	cluster       *ClusterConfig
	store         *store.Store
}

// WithWorkers caps run concurrency: at most n patternlets execute at
// once, however many requests are in flight. Values below 1 are clamped
// to 1.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.workers = n
	}
}

// WithQueueDepth bounds the admission queue. A submit that finds the
// queue full is rejected immediately with backpressure (HTTP 503 +
// Retry-After) rather than queued without bound. Values below 0 are
// clamped to 0 (every request must find an idle worker).
func WithQueueDepth(n int) Option {
	return func(c *config) {
		if n < 0 {
			n = 0
		}
		c.queueDepth = n
	}
}

// WithTimeout sets the default per-request execution timeout, applied
// when a request does not choose its own.
func WithTimeout(d time.Duration) Option {
	return func(c *config) { c.timeout = d }
}

// WithMaxTimeout caps the timeout a request may ask for.
func WithMaxTimeout(d time.Duration) Option {
	return func(c *config) { c.maxTimeout = d }
}

// WithTraceCapacity bounds how many Chrome traces are retained for
// GET /trace/{id}; the oldest is evicted when the ring is full.
func WithTraceCapacity(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.traceCapacity = n
	}
}

// WithRetryAfter sets the hint returned in the Retry-After header when
// the admission queue rejects a request. A 503 relayed from a saturated
// peer carries the peer's own hint instead.
func WithRetryAfter(d time.Duration) Option {
	return func(c *config) { c.retryAfter = d }
}

// WithStore attaches a content-addressed run store: repeat runs of
// deterministic patternlets are served from it without re-executing
// (marked "cached" in the response), traces are retained beyond the
// in-memory FIFO and across restarts, and GET /runs exposes the stored
// history. The store outlives the server — the caller opens it before
// New and closes it after Shutdown. Without this option the server is
// byte-identical to the store-less daemon.
func WithStore(st *store.Store) Option {
	return func(c *config) { c.store = st }
}

// WithLatencyHistograms is a no-op kept so existing callers compile:
// every server records its stage latency histograms (see the stage
// names below).
func WithLatencyHistograms() Option {
	return func(*config) {}
}

// WithCluster makes the server one member of a multi-node patternletd
// cluster: run keys are placed on a consistent-hash ring over the
// members and remote-owned keys are forwarded to their owner. With no
// cluster option the server is the exact single-node daemon of PR 5.
func WithCluster(cc ClusterConfig) Option {
	return func(c *config) { c.cluster = &cc }
}

// Telemetry counter names the server maintains; /metrics exposes them
// alongside whatever the snapshot of a Collect run folded in.
const (
	ctrSubmitted = "serve.submitted" // admission attempts
	ctrAccepted  = "serve.accepted"  // admitted into the queue
	ctrRejected  = "serve.rejected"  // bounced with backpressure
	ctrCompleted = "serve.completed" // runs finished without error
	ctrFailed    = "serve.failed"    // runs that returned an error
	ctrTimedOut  = "serve.timedout"  // runs stopped by their deadline
)

// Stage names. The request path is the LocalExecutor (admission wait,
// queue dwell and execute happen inside its worker pool), wrapped by the
// CachedExecutor when a store is attached, wrapped by the sharded router
// when the node is a cluster member; the HTTP handler adds respond and
// end-to-end above the Executor seam. Each stage owns a latency
// histogram, exported through /metrics and /metrics.json as
// serve.stage.<name>.{count,p50_ns,p90_ns,p95_ns,p99_ns,p999_ns,max_ns}:
//
//	admission_wait  Execute entry → admitted to (or bounced from) the queue
//	queue_dwell     admission → a worker picks the job up
//	execute         the worker running the job (registry run or spanned world)
//	cache_lookup    digest + store probe in the CachedExecutor (hit or miss)
//	ring_route      routing decision, plus the full forward round trip for
//	                peer-owned keys (the peer's own stages break its side down)
//	respond         encoding the RunResponse onto the wire
//	e2e             handleRun entry → response written, every outcome
const (
	stageAdmission = "admission_wait"
	stageQueue     = "queue_dwell"
	stageExecute   = "execute"
	stageCache     = "cache_lookup"
	stageRoute     = "ring_route"
	stageRespond   = "respond"
	stageE2E       = "e2e"
)

// Server executes patternlets from a registry under admission control.
// Create with New, serve with Handler (or mount elsewhere), stop with
// Shutdown.
type Server struct {
	reg *core.Registry
	cfg config

	local    *LocalExecutor
	cached   *CachedExecutor  // nil without WithStore
	sharded  *shardedExecutor // nil on a single-node server
	exec     Executor
	counters telemetry.CounterSet

	respondHist telemetry.Histogram
	e2eHist     telemetry.Histogram
}

// New builds a Server over reg and starts its worker pool.
func New(reg *core.Registry, opts ...Option) *Server {
	cfg := config{
		workers:       DefaultWorkers,
		queueDepth:    DefaultQueueDepth,
		timeout:       DefaultRequestTimeout,
		maxTimeout:    DefaultMaxTimeout,
		traceCapacity: DefaultTraceCapacity,
		retryAfter:    time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.timeout > cfg.maxTimeout {
		cfg.timeout = cfg.maxTimeout
	}
	s := &Server{reg: reg, cfg: cfg}
	s.local = newLocalExecutor(reg, cfg, &s.counters)
	s.exec = s.local
	if cfg.store != nil {
		// The store persists traces alongside results; seed the trace-id
		// counter past the persisted ids so a restarted daemon never
		// mints a colliding id for a fresh trace.
		s.local.persist = cfg.store
		s.local.traces.next = cfg.store.MaxTraceSeq(s.local.traces.prefix)
		s.cached = newCachedExecutor(s.exec, reg, cfg.store, &s.counters)
		s.exec = s.cached
	}
	if cfg.cluster != nil {
		// The cache sits under the router: runs are placed on the ring
		// first, and the owning node consults its own store, so each
		// digest is cached exactly once in the cluster.
		s.sharded = newShardedExecutor(s.local, s.exec, *cfg.cluster, &s.counters)
		s.exec = s.sharded
	}
	return s
}

// Execute runs one patternlet through the admission path: queue (or
// bounce), wait for a worker, return the Result. It is the programmatic
// form of POST /run and what the HTTP handler calls; on a cluster member
// the run may execute on a peer node.
func (s *Server) Execute(ctx context.Context, key string, opts core.RunOptions) (core.Result, error) {
	out, err := s.exec.Execute(ctx, ExecRequest{Key: key, Opts: opts})
	return out.Result, err
}

// Executor exposes the placement seam, for callers that need the
// cluster-aware result metadata (node, trace id) Execute drops.
func (s *Server) Executor() Executor { return s.exec }

// Shutdown stops admission and drains: already-accepted jobs (queued or
// running) complete, new submissions bounce, and Shutdown returns when
// the worker pool has exited or ctx fires, whichever is first.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.sharded != nil {
		s.sharded.stop()
	}
	return s.local.Shutdown(ctx)
}

// Stats is a point-in-time view of the server for /healthz.
type Stats struct {
	Workers    int              `json:"workers"`
	QueueDepth int              `json:"queue_depth"`
	Queued     int              `json:"queued"`
	Running    int64            `json:"running"`
	Draining   bool             `json:"draining"`
	Counters   map[string]int64 `json:"counters"`
}

// Stats snapshots the server's admission state and counters.
func (s *Server) Stats() Stats {
	return Stats{
		Workers:    s.cfg.workers,
		QueueDepth: s.cfg.queueDepth,
		Queued:     len(s.local.queue),
		Running:    s.local.running.Load(),
		Draining:   s.local.draining(),
		Counters:   s.counters.Snapshot(),
	}
}

// clampTimeout resolves a requested timeout against the configured
// default and cap.
func (s *Server) clampTimeout(req time.Duration) time.Duration {
	if req <= 0 {
		return s.cfg.timeout
	}
	if req > s.cfg.maxTimeout {
		return s.cfg.maxTimeout
	}
	return req
}
