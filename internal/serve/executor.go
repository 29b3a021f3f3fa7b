package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// ExecRequest is the executor-level run request: the registry inputs plus
// the serving metadata a forwarder must preserve on the wire when the run
// is owned by another node.
type ExecRequest struct {
	Key  string
	Opts core.RunOptions

	// Trace asks the executing node to retain a Chrome trace of the run
	// (implies Opts.Collect at the HTTP layer).
	Trace bool

	// Redirect asks the router to answer a remote-owned key with a 307 to
	// the owner instead of proxying the run.
	Redirect bool

	// Distribute asks for an MPI-class run whose world spans the cluster
	// members as separate daemon processes over RemoteTransport, instead
	// of goroutine ranks inside the executing process.
	Distribute bool

	// Forwarded marks a request already routed by a peer: it must execute
	// here, whatever this node's ring says, so routing can never loop.
	Forwarded bool
}

// ExecResult augments the registry Result with serving-layer placement:
// which node executed the run and under what id it retained the trace.
// Node is empty on a plain single-node server, keeping its responses
// identical to the pre-cluster daemon.
type ExecResult struct {
	core.Result
	Node    string
	TraceID string

	// Cached marks a result served from the content-addressed run store
	// (or shared from a collapsed concurrent execution) instead of a
	// fresh execution. It survives forwarding: a cluster hit on the
	// owning node reaches the client with the marker intact.
	Cached bool

	// RunID names the stored record for GET /runs/{id}; set only when a
	// run store is configured and the result was stored or served by it.
	RunID string
}

// Executor is the seam between the HTTP surface and run placement: the
// handler validates and builds an ExecRequest, the executor decides where
// and how it runs. LocalExecutor is the worker-pool path every daemon
// has; the sharded executor (WithCluster) routes by consistent hash and
// forwards misplaced keys to peers.
type Executor interface {
	Execute(ctx context.Context, req ExecRequest) (ExecResult, error)
}

// errBusy is returned when the admission queue is full or the server is
// shutting down; the HTTP layer maps it to 503 + Retry-After.
var errBusy = errors.New("serve: admission queue full")

// BusyError is backpressure with an explicit hint: a saturated *peer*
// rejected the forwarded run, and its own Retry-After must flow through
// to the client instead of this node's default. errors.Is(err, errBusy)
// matches it, so both busy shapes share one handler path.
type BusyError struct {
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: peer busy (retry after %s)", e.RetryAfter)
}

// Is makes errors.Is(err, errBusy) true for peer backpressure too.
func (e *BusyError) Is(target error) bool { return target == errBusy }

// RedirectError reports that the key is owned elsewhere and the request
// asked for a redirect rather than a proxied run; the HTTP layer turns it
// into 307 + Location.
type RedirectError struct {
	Node string
	Addr string
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("serve: key owned by %s at %s", e.Node, e.Addr)
}

// job is one admitted execution: the request's context, the work to run
// once a worker is free, and the channel the submitter waits on. The
// closure seam lets the sharded executor admit a cluster-spanning world
// through the same queue as a plain registry run.
type job struct {
	ctx context.Context
	run func(ctx context.Context) (core.Result, error)

	// acceptedAt is stamped when the job enters the queue; the worker
	// turns it into the queue-dwell sample.
	acceptedAt time.Time

	res  core.Result
	err  error
	done chan struct{}
}

// LocalExecutor is the in-process execution path: a bounded admission
// queue feeding a fixed worker pool over one registry, with trace
// retention at this node. It carries exactly the semantics the PR 5
// daemon had — New wires it directly into a single-node Server.
type LocalExecutor struct {
	reg *core.Registry
	cfg config

	queue   chan *job
	wg      sync.WaitGroup // worker pool
	running atomic.Int64   // jobs currently executing

	// closed is guarded by mu; submitters hold the read side while
	// sending on queue so Shutdown's close(queue) (under the write side)
	// can never race a send.
	mu     sync.RWMutex
	closed bool

	counters *telemetry.CounterSet
	traces   traceStore

	// Stage histograms (see the stage names in serve.go).
	admissionHist telemetry.Histogram
	queueHist     telemetry.Histogram
	executeHist   telemetry.Histogram

	// execEWMA is an exponentially weighted moving average (α = 1/8) of
	// recent execute-stage latencies in nanoseconds, updated by every
	// worker after every job — cheap enough to stay on unconditionally.
	// It is the observed drain rate behind the adaptive Retry-After
	// hint; zero means no job has finished yet.
	execEWMA atomic.Int64

	// persist, when non-nil, retains rendered traces in the run store
	// too, so /trace/{id} outlives both the in-memory FIFO and the
	// daemon process.
	persist *store.Store
}

// newLocalExecutor builds the worker-pool executor and starts its
// workers. counters is shared with the enclosing Server (and, in cluster
// mode, the router) so /metrics stays one snapshot.
func newLocalExecutor(reg *core.Registry, cfg config, counters *telemetry.CounterSet) *LocalExecutor {
	l := &LocalExecutor{
		reg:      reg,
		cfg:      cfg,
		queue:    make(chan *job, cfg.queueDepth),
		counters: counters,
	}
	l.traces.capacity = cfg.traceCapacity
	if cfg.cluster != nil {
		// Node-qualify trace ids in cluster mode: every member counts
		// "t1, t2, …" independently, and a forwarder's id→node proxy map
		// must never confuse a peer's t1 with its own. Single-node ids
		// stay byte-identical to the PR 5 daemon.
		l.traces.prefix = cfg.cluster.Self + "-"
	}
	l.wg.Add(cfg.workers)
	for i := 0; i < cfg.workers; i++ {
		go l.worker()
	}
	return l
}

// worker drains the admission queue until Shutdown closes it. Ranging
// over the channel guarantees the drain invariant: every job admitted
// before the close is executed (or, if its context already expired,
// returned with that error) before the worker exits.
func (l *LocalExecutor) worker() {
	defer l.wg.Done()
	for j := range l.queue {
		start := time.Now()
		l.queueHist.Record(start.Sub(j.acceptedAt).Nanoseconds())
		l.running.Add(1)
		j.res, j.err = j.run(j.ctx)
		l.running.Add(-1)
		elapsed := time.Since(start)
		l.observeExecute(elapsed)
		l.executeHist.Record(elapsed.Nanoseconds())
		switch {
		case j.err == nil:
			l.counters.Counter(ctrCompleted).Inc()
		case errors.Is(j.err, context.DeadlineExceeded), errors.Is(j.err, context.Canceled):
			l.counters.Counter(ctrTimedOut).Inc()
		default:
			l.counters.Counter(ctrFailed).Inc()
		}
		close(j.done)
	}
}

// submit admits a job or reports backpressure. Non-blocking by design:
// under saturation the caller learns immediately instead of holding a
// connection that may never be served in time.
func (l *LocalExecutor) submit(j *job) error {
	l.counters.Counter(ctrSubmitted).Inc()
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		l.counters.Counter(ctrRejected).Inc()
		return errBusy
	}
	select {
	case l.queue <- j:
		l.counters.Counter(ctrAccepted).Inc()
		return nil
	default:
		l.counters.Counter(ctrRejected).Inc()
		return errBusy
	}
}

// Execute implements Executor: queue (or bounce), wait for a worker, run
// through the registry, retain the trace if asked.
func (l *LocalExecutor) Execute(ctx context.Context, req ExecRequest) (ExecResult, error) {
	return l.executeFunc(ctx, req, func(ctx context.Context) (core.Result, error) {
		return l.reg.Run(ctx, req.Key, req.Opts)
	})
}

// executeFunc admits fn through the queue under req's identity. The
// sharded executor passes the world-spanning closure here so distributed
// runs obey the same admission control as local ones.
func (l *LocalExecutor) executeFunc(ctx context.Context, req ExecRequest, fn func(ctx context.Context) (core.Result, error)) (ExecResult, error) {
	// Stamped before the queue send — the channel handoff is the
	// happens-before edge the worker's queue-dwell read rides on.
	j := &job{ctx: ctx, run: fn, acceptedAt: time.Now(), done: make(chan struct{})}
	err := l.submit(j)
	l.admissionHist.RecordSince(j.acceptedAt)
	if err != nil {
		return ExecResult{Result: core.Result{Key: req.Key}}, err
	}
	// The worker always closes done — even for a job whose context
	// expired while queued (Registry.Run returns the ctx error without
	// starting the body) — so this wait cannot leak.
	<-j.done
	out := ExecResult{Result: j.res}
	if req.Trace && len(j.res.Events) > 0 {
		var buf bytes.Buffer
		if terr := telemetry.WriteChromeTrace(&buf, j.res.Events, j.res.Counters); terr == nil {
			out.TraceID = l.traces.put(buf.Bytes())
			if l.persist != nil {
				// Best-effort: the FIFO already holds the trace; the
				// store copy is what survives eviction and restarts.
				l.persist.PutTrace(out.TraceID, buf.Bytes())
			}
		}
	}
	return out, j.err
}

// observeExecute folds one execute-stage latency into the drain-rate
// EWMA (α = 1/8, the TCP RTT-estimator gain: smooth enough to ride out
// one slow collective, fresh enough to track a workload shift within a
// few jobs). Every finished job counts — a timed-out run occupied a
// worker for exactly as long as it says, which is precisely what the
// backlog hint needs to know.
func (l *LocalExecutor) observeExecute(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 1 {
		ns = 1 // keep "no samples yet" (zero) distinguishable
	}
	for {
		old := l.execEWMA.Load()
		next := ns
		if old != 0 {
			next = old + (ns-old)/8
			if next < 1 {
				next = 1
			}
		}
		if l.execEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterHint derives the 503 Retry-After from the observed queue
// drain rate: the execute-latency EWMA times the jobs ahead of a new
// arrival (queued + running), spread over the worker pool. Until the
// first job finishes there is no observed rate, and the configured
// static hint is all we can honestly say.
func (l *LocalExecutor) retryAfterHint() time.Duration {
	ewma := l.execEWMA.Load()
	if ewma == 0 {
		return l.cfg.retryAfter
	}
	backlog := int64(len(l.queue)) + l.running.Load()
	if backlog < 1 {
		// Rejected while the queue reads empty (draining, or the backlog
		// cleared between the bounce and this estimate): one job's worth
		// is the floor.
		backlog = 1
	}
	return time.Duration(ewma * backlog / int64(l.cfg.workers))
}

// Shutdown stops admission and drains: already-accepted jobs (queued or
// running) complete, new submissions bounce, and Shutdown returns when
// the worker pool has exited or ctx fires, whichever is first.
func (l *LocalExecutor) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.queue)
	}
	l.mu.Unlock()
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// draining reports whether Shutdown has begun.
func (l *LocalExecutor) draining() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.closed
}

// traceStore retains the last capacity Chrome-trace exports keyed by id,
// evicting oldest-first — enough for a classroom's worth of "look at my
// run" links without unbounded growth.
type traceStore struct {
	mu       sync.Mutex
	capacity int
	prefix   string // node qualifier in cluster mode; "" on a single node
	next     int64
	byID     map[string][]byte
	order    []string
}

// put stores one rendered trace and returns its id.
func (t *traceStore) put(data []byte) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byID == nil {
		t.byID = map[string][]byte{}
	}
	t.next++
	id := fmt.Sprintf("%st%d", t.prefix, t.next)
	t.byID[id] = data
	t.order = append(t.order, id)
	for len(t.order) > t.capacity {
		delete(t.byID, t.order[0])
		t.order = t.order[1:]
	}
	return id
}

// get returns the trace with the given id, if still retained.
func (t *traceStore) get(id string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, ok := t.byID[id]
	return data, ok
}

// len reports how many traces are currently retained.
func (t *traceStore) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}
