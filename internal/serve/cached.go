package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Cache counters, alongside the serve.* admission set. The store's own
// store.* counters (log hits, misses, evictions, …) are merged into
// /metrics next to these when a store is configured.
const (
	ctrCacheHit    = "serve.cache.hit"    // runs answered from the store, no execution
	ctrCacheMiss   = "serve.cache.miss"   // cache-eligible runs that had to execute
	ctrCacheStore  = "serve.cache.store"  // executed results persisted for next time
	ctrCacheShared = "serve.cache.shared" // singleflight followers served the leader's run
)

// CachedExecutor wraps the local execution path with the content-
// addressed run store: a cache-eligible request whose digest is already
// stored is answered from the log without touching admission — no queue
// slot, no worker, no serve.submitted tick — and a miss executes once and
// persists the result. Concurrent identical misses collapse to a single
// execution (singleflight): one leader runs, the rest wait and share its
// result, marked Cached like a store hit.
//
// Eligibility is deliberately narrow: only patternlets tagged
// core.Patternlet.Deterministic — whose Output is byte-identical for a
// fixed (tasks, toggles, seed) — and only plain runs. Collect and Trace
// runs carry timing-dependent events and counters, and Distribute spans
// live cluster members; all three execute fresh every time. Ineligible
// requests pass straight through to the wrapped executor, untouched.
//
// In cluster mode the cache sits owner-side: the sharded router routes
// first and the owner consults its store, so each digest is cached
// exactly once in the cluster (on the node the ring maps it to) and a
// forwarded hit carries its Cached marker back through the wire.
type CachedExecutor struct {
	base     Executor
	reg      *core.Registry
	store    *store.Store
	catalog  string // registry fingerprint, folded into every digest
	counters *telemetry.CounterSet

	// lookupHist is the cache_lookup stage histogram: the cost of
	// canonicalizing the request and probing the store, recorded for
	// every request crossing this layer.
	lookupHist telemetry.Histogram

	mu       sync.Mutex
	inflight map[store.Digest]*flight

	// waiting gauges how many followers are currently parked on a
	// leader's flight; tests use it to sequence herds deterministically.
	waiting atomic.Int64
}

// flight is one in-progress execution that followers may share.
type flight struct {
	done chan struct{}
	res  core.Result
	id   string
	err  error
}

// newCachedExecutor wraps base with st. The registry fingerprint is
// captured once: the catalog is immutable after startup, and folding it
// into every digest makes a store directory carried across a catalog
// change miss cleanly instead of serving stale transcripts.
func newCachedExecutor(base Executor, reg *core.Registry, st *store.Store, counters *telemetry.CounterSet) *CachedExecutor {
	c := &CachedExecutor{
		base:     base,
		reg:      reg,
		store:    st,
		catalog:  reg.Fingerprint(),
		counters: counters,
		inflight: map[store.Digest]*flight{},
	}
	// Create the cache counters eagerly so /metrics.json shows the full
	// cache section at zero on a fresh store-enabled daemon.
	for _, name := range []string{ctrCacheHit, ctrCacheMiss, ctrCacheStore, ctrCacheShared} {
		c.counters.Counter(name)
	}
	return c
}

// digest canonicalizes a cache-eligible request into its content
// address; ok=false means the request must execute fresh. Inputs are
// resolved before hashing — tasks through the patternlet's default
// chain, toggles to the full effective directive set, seed to the
// shipped default — so every spelling of the same configuration shares
// one cache entry.
func (c *CachedExecutor) digest(req ExecRequest) (store.Digest, bool) {
	if req.Trace || req.Distribute || req.Opts.Collect ||
		req.Opts.Stream != nil || req.Opts.Trace != nil || req.Opts.Remote != nil {
		return store.Digest{}, false
	}
	p, ok := c.reg.Get(req.Key)
	if !ok || !p.Deterministic {
		return store.Digest{}, false
	}
	seed := req.Opts.Seed
	if seed == 0 {
		seed = core.DefaultSeed
	}
	return store.ResultDigest(
		c.catalog,
		p.Key(),
		p.ResolveTasks(req.Opts.NumTasks),
		p.EffectiveDirectives(req.Opts.Toggles),
		p.EffectiveParams(req.Opts.Params),
		seed,
		req.Opts.UseTCP,
		req.Opts.Nodes,
	), true
}

// Execute implements Executor: store hit, singleflight share, or execute-
// and-persist — in that order. Ineligible requests bypass all of it.
func (c *CachedExecutor) Execute(ctx context.Context, req ExecRequest) (ExecResult, error) {
	start := time.Now()
	d, eligible := c.digest(req)
	if !eligible {
		c.lookupHist.RecordSince(start)
		return c.base.Execute(ctx, req)
	}
	res, id, ok := c.store.GetResult(d)
	c.lookupHist.RecordSince(start)
	if ok {
		c.counters.Counter(ctrCacheHit).Inc()
		return ExecResult{Result: res, Cached: true, RunID: id}, nil
	}
	c.mu.Lock()
	if f, ok := c.inflight[d]; ok {
		c.mu.Unlock()
		c.waiting.Add(1)
		defer c.waiting.Add(-1)
		select {
		case <-f.done:
			if f.err == nil {
				c.counters.Counter(ctrCacheShared).Inc()
				return ExecResult{Result: f.res, Cached: true, RunID: f.id}, nil
			}
			// The leader failed (busy, timeout, error); its outcome is
			// not shareable, so this follower runs for itself.
			return c.executeAndStore(ctx, req, d)
		case <-ctx.Done():
			return ExecResult{Result: core.Result{Key: req.Key}}, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[d] = f
	c.mu.Unlock()

	out, err := c.executeAndStore(ctx, req, d)
	f.res, f.id, f.err = out.Result, out.RunID, err
	c.mu.Lock()
	delete(c.inflight, d)
	c.mu.Unlock()
	close(f.done)
	return out, err
}

// executeAndStore runs the request through the wrapped executor and, on
// success, persists the result under its digest. A store write failure
// (an oversize record, a full disk) degrades to uncached — the run
// already succeeded and its result ships regardless.
func (c *CachedExecutor) executeAndStore(ctx context.Context, req ExecRequest, d store.Digest) (ExecResult, error) {
	c.counters.Counter(ctrCacheMiss).Inc()
	out, err := c.base.Execute(ctx, req)
	if err != nil {
		return out, err
	}
	if id, perr := c.store.PutResult(d, req.Key, out.Result); perr == nil {
		out.RunID = id
		c.counters.Counter(ctrCacheStore).Inc()
	}
	return out, nil
}
