package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ring"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Cluster routing counters, alongside the serve.* admission set.
const (
	ctrForwardOut   = "serve.forward.out"       // runs forwarded to a peer
	ctrForwardIn    = "serve.forward.in"        // forwarded runs received from peers
	ctrForwardRetry = "serve.forward.retry"     // per-peer retry attempts
	ctrForwardHedge = "serve.forward.hedge"     // hedged failover requests launched
	ctrRehash       = "serve.forward.rehash"    // members removed from the ring as dead
	ctrRecovered    = "serve.forward.recovered" // marked-down members probed back onto the ring
	ctrRedirected   = "serve.redirected"        // 307s issued instead of proxying
	ctrWorkerRanks  = "serve.worker.ranks"      // world ranks hosted for peers
	ctrSpanWorlds   = "serve.span.worlds"       // distributed worlds launched here
)

// Defaults for the cluster knobs below.
const (
	DefaultForwardAttempts = 3
	DefaultForwardBackoff  = 25 * time.Millisecond
	DefaultHedgeDelay      = 2 * time.Second
	DefaultProbeInterval   = 2 * time.Second
)

// ClusterConfig names this node and its static membership table. Peers
// maps node id to the HTTP address (host:port) the daemon serves on and
// must include Self with its own advertised address; every member is
// configured with the identical table, so their rings agree without
// coordination.
type ClusterConfig struct {
	Self  string
	Peers map[string]string

	// Replicas is the virtual-node count per member; <= 0 selects
	// ring.DefaultReplicas.
	Replicas int

	// ForwardAttempts bounds how many times one peer is tried before it
	// is declared dead (<= 0 selects DefaultForwardAttempts); retries
	// back off exponentially from ForwardBackoff.
	ForwardAttempts int
	ForwardBackoff  time.Duration

	// HedgeDelay is how long a forward may sit unanswered before a
	// hedged attempt is launched at the next node in the key's
	// preference order (<= 0 selects DefaultHedgeDelay).
	HedgeDelay time.Duration

	// ProbeInterval is how often members marked down are re-probed with
	// GET /healthz; one that answers 200 again rejoins the ring (its
	// vnode positions are deterministic, so it reclaims exactly the keys
	// it owned). <= 0 selects DefaultProbeInterval. Without the probe a
	// transient blip — a peer restart inside the retry window — would
	// remove the peer until this daemon itself restarts.
	ProbeInterval time.Duration
}

// Validate checks the table shape early, so a daemon with a typoed
// -peers flag dies at startup rather than at first forward.
func (cc ClusterConfig) Validate() error {
	if cc.Self == "" {
		return errors.New("serve: cluster config needs a node id")
	}
	if len(cc.Peers) < 1 {
		return errors.New("serve: cluster config needs at least one peer entry")
	}
	if _, ok := cc.Peers[cc.Self]; !ok {
		return fmt.Errorf("serve: peer table is missing this node %q", cc.Self)
	}
	for id, addr := range cc.Peers {
		if id == "" || addr == "" {
			return fmt.Errorf("serve: empty peer entry %q=%q", id, addr)
		}
	}
	return nil
}

// peerDownError marks a forward that failed at the transport level (dial
// refused, connection reset, exhausted retries): the peer is presumed
// dead and its keys rehash to the survivors.
type peerDownError struct {
	node string
	err  error
}

func (e *peerDownError) Error() string {
	return fmt.Sprintf("serve: peer %s down: %v", e.node, e.err)
}

func (e *peerDownError) Unwrap() error { return e.err }

// shardedExecutor places runs on the cluster: keys this node owns (by
// the ring) execute locally through the LocalExecutor; keys owned by a
// peer are forwarded to it over HTTP. Peer death is handled by removing
// the peer from the ring — consistent hashing guarantees only the dead
// node's keys move — and walking the key's preference order with bounded
// retry and a hedged parallel attempt when the owner is slow.
type shardedExecutor struct {
	self     string
	addrs    map[string]string
	local    *LocalExecutor
	here     Executor // local path for owned keys: the cache wrapper when a store is configured, else local itself
	ring     *ring.Ring
	client   *http.Client
	counters *telemetry.CounterSet

	// routeHist is the ring_route stage histogram: the placement
	// decision for keys executed here, the full forward round trip for
	// peer-owned keys.
	routeHist telemetry.Histogram

	attempts int
	backoff  time.Duration
	hedge    time.Duration
	probe    time.Duration

	mu   sync.Mutex
	down map[string]bool

	stopOnce sync.Once
	stopCh   chan struct{}
}

// newShardedExecutor wires the router over an already-started local
// executor. cc must have been Validated by the caller (New panics on a
// bad table, matching MustRegister's fail-fast convention).
func newShardedExecutor(local *LocalExecutor, here Executor, cc ClusterConfig, counters *telemetry.CounterSet) *shardedExecutor {
	if err := cc.Validate(); err != nil {
		panic(err)
	}
	members := make([]string, 0, len(cc.Peers))
	addrs := make(map[string]string, len(cc.Peers))
	for id, addr := range cc.Peers {
		members = append(members, id)
		addrs[id] = addr
	}
	sort.Strings(members)
	x := &shardedExecutor{
		self:     cc.Self,
		addrs:    addrs,
		local:    local,
		here:     here,
		ring:     ring.New(cc.Replicas, members...),
		client:   &http.Client{},
		counters: counters,
		attempts: cc.ForwardAttempts,
		backoff:  cc.ForwardBackoff,
		hedge:    cc.HedgeDelay,
		probe:    cc.ProbeInterval,
		down:     map[string]bool{},
		stopCh:   make(chan struct{}),
	}
	if x.attempts <= 0 {
		x.attempts = DefaultForwardAttempts
	}
	if x.backoff <= 0 {
		x.backoff = DefaultForwardBackoff
	}
	if x.hedge <= 0 {
		x.hedge = DefaultHedgeDelay
	}
	if x.probe <= 0 {
		x.probe = DefaultProbeInterval
	}
	// Create the routing counters eagerly so a fresh cluster node's
	// /metrics.json already shows the full routing section at zero.
	for _, name := range []string{
		ctrForwardOut, ctrForwardIn, ctrForwardRetry, ctrForwardHedge,
		ctrRehash, ctrRecovered, ctrRedirected, ctrWorkerRanks, ctrSpanWorlds,
	} {
		x.counters.Counter(name)
	}
	go x.probeLoop()
	return x
}

// stop halts the background peer prober and drops idle peer
// connections, whose read loops would otherwise outlive the server;
// Server.Shutdown calls it.
func (x *shardedExecutor) stop() {
	x.stopOnce.Do(func() { close(x.stopCh) })
	x.client.CloseIdleConnections()
}

// Execute implements Executor with ring placement.
func (x *shardedExecutor) Execute(ctx context.Context, req ExecRequest) (ExecResult, error) {
	start := time.Now()
	if req.Forwarded {
		// A peer already routed this run here; executing locally no
		// matter what our ring says is what makes routing loop-free even
		// while two nodes disagree about a death.
		x.counters.Counter(ctrForwardIn).Inc()
		x.routeHist.RecordSince(start)
		return x.executeHere(ctx, req)
	}
	owner := x.ring.Owner(req.Key)
	if owner == "" || owner == x.self {
		x.routeHist.RecordSince(start)
		return x.executeHere(ctx, req)
	}
	if req.Redirect {
		x.counters.Counter(ctrRedirected).Inc()
		x.routeHist.RecordSince(start)
		return ExecResult{Result: core.Result{Key: req.Key}}, &RedirectError{Node: owner, Addr: x.addrs[owner]}
	}
	out, err := x.forward(ctx, req)
	// For a forwarded key the route stage is the whole remote round trip
	// from this node's chair; the executing peer's own stage histograms
	// break down where that time went on its side.
	x.routeHist.RecordSince(start)
	return out, err
}

// executeHere runs the request on this node: through the plain local
// path, or — for a distribute request — as the launcher of a world
// spanning the live members.
func (x *shardedExecutor) executeHere(ctx context.Context, req ExecRequest) (ExecResult, error) {
	if req.Distribute {
		out, err := x.local.executeFunc(ctx, req, func(ctx context.Context) (core.Result, error) {
			return x.span(ctx, req)
		})
		out.Node = x.self
		return out, err
	}
	// Plain runs go through the here seam: the cache wrapper when this
	// node has a run store, so owned keys (and forwarded runs — the
	// cache is owner-side) hit it before admission.
	out, err := x.here.Execute(ctx, req)
	out.Node = x.self
	return out, err
}

// markDown removes a dead peer from the ring (once); its keys rehash to
// the survivors, and everything else stays put — the minimal-churn
// property internal/ring's tests pin.
func (x *shardedExecutor) markDown(node string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.down[node] || node == x.self {
		return
	}
	x.down[node] = true
	x.ring.Remove(node)
	x.counters.Counter(ctrRehash).Inc()
}

// markUp returns a recovered peer to the ring. The vnode positions are
// deterministic, so it reclaims exactly the keys it owned before the
// blip; everything else stays put.
func (x *shardedExecutor) markUp(node string) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.down[node] {
		return
	}
	delete(x.down, node)
	x.ring.Add(node)
	x.counters.Counter(ctrRecovered).Inc()
}

// probeLoop periodically re-probes marked-down members so a peer that
// was only briefly unreachable (a restart inside the retry window, a
// network blip) is not exiled until this daemon itself restarts.
func (x *shardedExecutor) probeLoop() {
	t := time.NewTicker(x.probe)
	defer t.Stop()
	for {
		select {
		case <-x.stopCh:
			return
		case <-t.C:
			x.mu.Lock()
			down := make([]string, 0, len(x.down))
			for id := range x.down {
				down = append(down, id)
			}
			x.mu.Unlock()
			for _, id := range down {
				if x.probeNode(id) {
					x.markUp(id)
				}
			}
		}
	}
}

// probeNode reports whether the member answers GET /healthz with 200.
// A draining node's 503 keeps it off the ring: it is alive but asked
// the cluster to steer work elsewhere.
func (x *shardedExecutor) probeNode(node string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), x.probe)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+x.addrs[node]+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := x.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// live reports whether the node is still believed up.
func (x *shardedExecutor) live(node string) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	return !x.down[node]
}

// liveMembers returns the members currently on the ring, sorted.
func (x *shardedExecutor) liveMembers() []string {
	return x.ring.Members()
}

// forward routes the run along the key's preference order: the ring
// owner first, then — if the owner is declared dead or stays silent past
// the hedge delay — the nodes that would own the key after each rehash.
// The first definitive answer (success, peer backpressure, or an
// application error) wins; only transport-level death moves on.
func (x *shardedExecutor) forward(ctx context.Context, req ExecRequest) (ExecResult, error) {
	x.counters.Counter(ctrForwardOut).Inc()
	prefs := x.ring.Owners(req.Key, x.ring.Len())
	if len(prefs) == 0 {
		return x.executeHere(ctx, req)
	}
	type attemptResult struct {
		out  ExecResult
		err  error
		node string
	}
	results := make(chan attemptResult, len(prefs))
	attempt := func(node string) {
		if node == x.self {
			out, err := x.executeHere(ctx, req)
			results <- attemptResult{out, err, node}
			return
		}
		out, err := x.forwardTo(ctx, node, req)
		results <- attemptResult{out, err, node}
	}

	launched := 1
	go attempt(prefs[0])
	hedge := time.NewTimer(x.hedge)
	defer hedge.Stop()
	var lastErr error
	for pending := 1; pending > 0; {
		select {
		case r := <-results:
			pending--
			var pd *peerDownError
			if r.err != nil && errors.As(r.err, &pd) {
				// Transport-level death: rehash and try the next owner.
				x.markDown(r.node)
				lastErr = r.err
				if launched < len(prefs) {
					go attempt(prefs[launched])
					launched++
					pending++
				}
				continue
			}
			// Success, peer backpressure, and application errors are all
			// definitive — a hedged sibling still in flight just parks
			// its answer in the buffered channel.
			return r.out, r.err
		case <-hedge.C:
			// The primary is up but slow (or silently gone): race a
			// second attempt at the next node in preference order.
			if launched < len(prefs) {
				x.counters.Counter(ctrForwardHedge).Inc()
				go attempt(prefs[launched])
				launched++
				pending++
			}
		case <-ctx.Done():
			return ExecResult{Result: core.Result{Key: req.Key}}, ctx.Err()
		}
	}
	return ExecResult{Result: core.Result{Key: req.Key}},
		fmt.Errorf("serve: no live owner for %q: %w", req.Key, lastErr)
}

// forwardTo tries one peer with bounded retry and exponential backoff;
// transport failures after the last attempt surface as peerDownError.
func (x *shardedExecutor) forwardTo(ctx context.Context, node string, req ExecRequest) (ExecResult, error) {
	backoff := x.backoff
	var lastErr error
	for attempt := 0; attempt < x.attempts; attempt++ {
		if attempt > 0 {
			x.counters.Counter(ctrForwardRetry).Inc()
			select {
			case <-time.After(backoff):
				backoff *= 2
			case <-ctx.Done():
				return ExecResult{}, ctx.Err()
			}
		}
		out, err, transport := x.post(ctx, node, req)
		if !transport {
			return out, err
		}
		lastErr = err
	}
	return ExecResult{}, &peerDownError{node: node, err: lastErr}
}

// post performs one forwarded /run round trip. transport=true marks
// failures at the connection level (worth retrying / declaring death);
// definitive HTTP answers — success, 503 backpressure, 504 timeout,
// application errors — return transport=false.
func (x *shardedExecutor) post(ctx context.Context, node string, req ExecRequest) (_ ExecResult, _ error, transport bool) {
	wire := RunRequest{
		Key:        req.Key,
		Tasks:      req.Opts.NumTasks,
		Toggles:    req.Opts.Toggles,
		Params:     req.Opts.Params,
		Seed:       req.Opts.Seed,
		UseTCP:     req.Opts.UseTCP,
		Nodes:      req.Opts.Nodes,
		Collect:    req.Opts.Collect,
		Trace:      req.Trace,
		Distribute: req.Distribute,
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		wire.TimeoutMS = ms
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return ExecResult{}, fmt.Errorf("serve: encode forward: %w", err), false
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+x.addrs[node]+"/run", bytes.NewReader(body))
	if err != nil {
		return ExecResult{}, err, false
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardedHeader, x.self)
	resp, err := x.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return ExecResult{}, ctx.Err(), false
		}
		return ExecResult{}, err, true
	}
	defer resp.Body.Close()

	if resp.StatusCode == http.StatusServiceUnavailable {
		// The peer is alive but saturated (or draining): surface its own
		// Retry-After hint, not ours.
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		if secs < 1 {
			secs = 1
		}
		return ExecResult{Result: core.Result{Key: req.Key}},
			&BusyError{RetryAfter: time.Duration(secs) * time.Second}, false
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		// The address answered with a body that is not a RunResponse —
		// an intermediary's HTML error page, a truncated reply. The HTTP
		// status proves something is alive there; declaring the peer dead
		// over it would rehash keys away from a healthy node, so this is
		// a definitive application error, not transport death.
		return ExecResult{Result: core.Result{Key: req.Key}},
			fmt.Errorf("serve: malformed reply from %s (status %d): %w", node, resp.StatusCode, err), false
	}
	out := ExecResult{
		Result: core.Result{
			Key:      rr.Key,
			NumTasks: rr.Tasks,
			Elapsed:  time.Duration(rr.ElapsedMS * float64(time.Millisecond)),
			Output:   rr.Output,
			Counters: rr.Counters,
		},
		Node:    rr.Node,
		TraceID: rr.TraceID,
		// The owner's cache marker and run id ride back with the result;
		// GET /runs/{id} resolves on the node named in Node.
		Cached: rr.Cached,
		RunID:  rr.RunID,
	}
	if out.Node == "" {
		out.Node = node
	}
	for _, ph := range rr.Phases {
		out.Result.Phases = append(out.Result.Phases, trace.Event{
			Seq: ph.Seq, Task: ph.Task, Phase: ph.Phase, Value: ph.Value,
		})
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return out, nil, false
	case http.StatusGatewayTimeout:
		return out, fmt.Errorf("serve: run on %s: %w", node, context.DeadlineExceeded), false
	default:
		msg := rr.Error
		if msg == "" {
			msg = readErrorBody(resp.Body)
		}
		return out, fmt.Errorf("serve: run on %s failed (%d): %s", node, resp.StatusCode, msg), false
	}
}

// readErrorBody salvages a plain error string from a non-RunResponse
// reply body (already partially consumed decodes return "").
func readErrorBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	return string(bytes.TrimSpace(b))
}

// forwardedHeader carries the origin node id on forwarded requests; its
// presence tells the receiving node to execute locally.
const forwardedHeader = "X-Patternlet-Forwarded"

// proxyTrace serves GET /trace/{id} for a trace retained on another
// member: cluster trace ids are node-qualified (<node>-t<seq>), so the
// trace link in a /run reply works against whichever member the client
// contacts. It reports whether it wrote a response (true even for a
// relayed miss or an unreachable peer — the id was ours to answer for).
func (x *shardedExecutor) proxyTrace(w http.ResponseWriter, id string) bool {
	i := strings.LastIndex(id, "-t")
	if i < 0 {
		return false
	}
	node := id[:i]
	if _, member := x.addrs[node]; !member || node == x.self {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+x.addrs[node]+"/trace/"+id, nil)
	if err != nil {
		return false
	}
	resp, err := x.client.Do(req)
	if err != nil {
		httpError(w, http.StatusBadGateway,
			"trace %q is retained on %s, which did not answer: %v", id, node, err)
		return true
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// MemberInfo is one node's row in the /healthz ring section.
type MemberInfo struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Live  bool   `json:"live"`
	Owned int    `json:"owned"` // catalog keys this member currently owns
}

// RingInfo is the cluster-placement view /healthz reports on a member.
type RingInfo struct {
	Self     string       `json:"self"`
	Replicas int          `json:"replicas"`
	Members  []MemberInfo `json:"members"`
}

// ringInfo snapshots membership and catalog ownership.
func (x *shardedExecutor) ringInfo() *RingInfo {
	keys := make([]string, 0, x.local.reg.Len())
	for _, p := range x.local.reg.All() {
		keys = append(keys, p.Key())
	}
	shares := x.ring.Shares(keys)
	ids := make([]string, 0, len(x.addrs))
	for id := range x.addrs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	info := &RingInfo{Self: x.self, Replicas: x.ring.Replicas()}
	for _, id := range ids {
		info.Members = append(info.Members, MemberInfo{
			ID:    id,
			Addr:  x.addrs[id],
			Live:  x.live(id),
			Owned: shares[id],
		})
	}
	return info
}
