package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// cacheRegistry builds the registry the cache tests drive: a tagged-
// deterministic patternlet whose actual executions are counted, an
// untagged (assume-racy) twin, a deterministic one that blocks on the
// gate (for singleflight herds), and the usual gated saturator.
func cacheRegistry(t *testing.T) (*core.Registry, *atomic.Int64, *gate) {
	t.Helper()
	r := core.NewRegistry()
	g := &gate{ch: make(chan struct{})}
	var execs atomic.Int64

	det := pattern("det")
	det.Deterministic = true
	det.Run = func(rc *core.RunContext) error {
		execs.Add(1)
		rc.W.Printf("det ran with %d tasks seed %d\n", rc.NumTasks, rc.BaseSeed())
		return nil
	}
	r.MustRegister(det)

	sized := pattern("sized")
	sized.Deterministic = true
	sized.Params = []core.Param{
		{Name: "n", Doc: "problem size", Default: 64, Min: 8, Max: 1024},
	}
	sized.Run = func(rc *core.RunContext) error {
		execs.Add(1)
		rc.W.Printf("sized ran with n=%d\n", rc.Param("n"))
		return nil
	}
	r.MustRegister(sized)

	racy := pattern("racy")
	racy.Run = func(rc *core.RunContext) error {
		execs.Add(1)
		rc.W.Printf("racy ran\n")
		rc.Record(0, "ran", rc.NumTasks)
		return nil
	}
	r.MustRegister(racy)

	slow := pattern("slowdet")
	slow.Deterministic = true
	slow.Run = func(rc *core.RunContext) error {
		execs.Add(1)
		g.started()
		select {
		case <-g.ch:
		case <-rc.Context().Done():
			return rc.Context().Err()
		}
		rc.W.Printf("slowdet done\n")
		return nil
	}
	r.MustRegister(slow)

	gated := pattern("gated")
	gated.Run = func(rc *core.RunContext) error {
		g.started()
		select {
		case <-g.ch:
		case <-rc.Context().Done():
		}
		return nil
	}
	r.MustRegister(gated)

	return r, &execs, g
}

// openStore opens a run store in a per-test dir and closes it on cleanup.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func decodeRun(t *testing.T, resp *http.Response) RunResponse {
	t.Helper()
	defer resp.Body.Close()
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("decode /run reply (%d): %v", resp.StatusCode, err)
	}
	return rr
}

// Resolved params are part of the content address: the same size is one
// cache entry however it is spelled (omitted vs explicit default), and a
// different size is a different entry — "n=512" must never be served a
// cached "n=64" transcript.
func TestParamsDistinguishCacheEntries(t *testing.T) {
	reg, execs, _ := cacheRegistry(t)
	st := openStore(t, t.TempDir())
	s := New(reg, WithStore(st))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := decodeRun(t, post(t, ts, `{"key":"sized.omp","params":{"n":512}}`))
	if first.Cached || first.Output != "sized ran with n=512\n" {
		t.Fatalf("first run: %+v", first)
	}
	repeat := decodeRun(t, post(t, ts, `{"key":"sized.omp","params":{"n":512}}`))
	if !repeat.Cached || repeat.Output != first.Output {
		t.Fatalf("repeat run not served from store: %+v", repeat)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions after repeat, want 1", got)
	}

	// A different size misses and executes fresh.
	other := decodeRun(t, post(t, ts, `{"key":"sized.omp","params":{"n":256}}`))
	if other.Cached || other.Output != "sized ran with n=256\n" {
		t.Fatalf("different param served stale entry: %+v", other)
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("%d executions after different size, want 2", got)
	}

	// The two spellings of the default share one entry: the implicit run
	// executes once, the explicit spelling hits it.
	implicit := decodeRun(t, post(t, ts, `{"key":"sized.omp"}`))
	if implicit.Cached {
		t.Fatalf("implicit default unexpectedly cached: %+v", implicit)
	}
	explicit := decodeRun(t, post(t, ts, `{"key":"sized.omp","params":{"n":64}}`))
	if !explicit.Cached || explicit.Output != implicit.Output {
		t.Fatalf("explicit default did not hit the implicit entry: %+v", explicit)
	}
	if got := execs.Load(); got != 3 {
		t.Fatalf("%d executions total, want 3", got)
	}
}

// A repeat run of a deterministic patternlet is served from the store:
// marked cached, byte-identical output, no second execution, and no
// admission traffic — the hit never touches the queue.
func TestCacheHitServesStoredResult(t *testing.T) {
	reg, execs, _ := cacheRegistry(t)
	st := openStore(t, t.TempDir())
	s := New(reg, WithStore(st))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := decodeRun(t, post(t, ts, `{"key":"det.omp"}`))
	if first.Cached {
		t.Fatal("first run marked cached")
	}
	if first.RunID == "" {
		t.Fatal("first run has no run_id; the result was not stored")
	}
	second := decodeRun(t, post(t, ts, `{"key":"det.omp"}`))
	if !second.Cached {
		t.Fatal("repeat run not served from the store")
	}
	if second.Output != first.Output {
		t.Fatalf("cached output not byte-identical:\nfirst:  %q\nsecond: %q", first.Output, second.Output)
	}
	if second.RunID != first.RunID {
		t.Fatalf("cached run id %q != stored id %q", second.RunID, first.RunID)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("patternlet executed %d times, want 1", n)
	}
	st2 := s.Stats()
	if st2.Counters[ctrSubmitted] != 1 {
		t.Fatalf("serve.submitted = %d after a hit, want 1 — the hit went through admission", st2.Counters[ctrSubmitted])
	}
	if st2.Counters[ctrCacheHit] != 1 || st2.Counters[ctrCacheMiss] != 1 || st2.Counters[ctrCacheStore] != 1 {
		t.Fatalf("cache counters = %v", st2.Counters)
	}

	// Different spellings of the same configuration share the entry:
	// explicit default tasks, explicitly-spelled default toggle, and the
	// shipped default seed all hit.
	for _, body := range []string{
		fmt.Sprintf(`{"key":"det.omp","tasks":%d}`, first.Tasks),
		`{"key":"det.omp","toggles":{"parallel":true}}`,
		fmt.Sprintf(`{"key":"det.omp","seed":%d}`, core.DefaultSeed),
	} {
		rr := decodeRun(t, post(t, ts, body))
		if !rr.Cached {
			t.Fatalf("canonically-equal request %s missed the cache", body)
		}
	}
	// A different seed is a different entry.
	rr := decodeRun(t, post(t, ts, `{"key":"det.omp","seed":7}`))
	if rr.Cached {
		t.Fatal("seed=7 served the seed-default entry")
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("patternlet executed %d times, want 2", n)
	}
}

// Untagged patternlets and instrumented runs always execute — the cache
// must never serve a transcript for a run whose output or events can
// legitimately differ.
func TestCacheIneligibleRunsExecute(t *testing.T) {
	reg, execs, _ := cacheRegistry(t)
	st := openStore(t, t.TempDir())
	s := New(reg, WithStore(st))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, body := range []string{
		`{"key":"racy.omp"}`, // untagged: assume timing-nondeterministic
		`{"key":"racy.omp"}`,
		`{"key":"det.omp","collect":true}`, // instrumented: events carry real timings
		`{"key":"det.omp","collect":true}`,
		`{"key":"det.omp","trace":true}`, // trace implies collect
	} {
		rr := decodeRun(t, post(t, ts, body))
		if rr.Cached {
			t.Fatalf("ineligible request %d (%s) served from the cache", i, body)
		}
	}
	if n := execs.Load(); n != 5 {
		t.Fatalf("executed %d times, want 5 (every request)", n)
	}
}

// The cache is persistent: a result stored by one daemon process is a
// hit in the next one over the same store directory.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := cacheRegistry(t)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(reg, WithStore(st))
	ts := httptest.NewServer(s.Handler())
	first := decodeRun(t, post(t, ts, `{"key":"det.omp"}`))
	ts.Close()
	s.Shutdown(context.Background())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh registry instance of the same catalog has the same
	// fingerprint, so the reopened store hits.
	reg2, execs2, _ := cacheRegistry(t)
	st2 := openStore(t, dir)
	s2 := New(reg2, WithStore(st2))
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	rr := decodeRun(t, post(t, ts2, `{"key":"det.omp"}`))
	if !rr.Cached {
		t.Fatal("restart lost the cache")
	}
	if rr.Output != first.Output {
		t.Fatalf("post-restart output differs: %q vs %q", rr.Output, first.Output)
	}
	if n := execs2.Load(); n != 0 {
		t.Fatalf("restarted daemon executed %d times, want 0", n)
	}
}

// Concurrent identical misses collapse to one execution: a leader runs,
// the rest share its result, marked cached.
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	reg, execs, g := cacheRegistry(t)
	g.startCh = make(chan struct{}, 8)
	st := openStore(t, t.TempDir())
	s := New(reg, WithStore(st), WithWorkers(1), WithQueueDepth(0))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const herd = 5
	results := make(chan RunResponse, herd)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results <- decodeRun(t, post(t, ts, `{"key":"slowdet.omp"}`))
	}()
	<-g.startCh // the leader holds the only worker mid-run

	// Followers arrive while the leader executes. The queue has depth 0
	// and the worker is busy — if any follower went through admission it
	// would bounce 503; sharing the leader's flight is what admits them.
	for i := 1; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- decodeRun(t, post(t, ts, `{"key":"slowdet.omp"}`))
		}()
	}
	waitFor(t, func() bool { return activeFlights(s) == 1 && s.cached.waiting.Load() == herd-1 })
	if got := s.Stats().Counters[ctrSubmitted]; got != 1 {
		t.Fatalf("serve.submitted = %d with the herd parked, want 1 — followers went through admission", got)
	}
	g.release()
	wg.Wait()
	close(results)

	cached := 0
	for rr := range results {
		if rr.Error != "" {
			t.Fatalf("herd member failed: %s", rr.Error)
		}
		if rr.Cached {
			cached++
		}
	}
	if cached != herd-1 {
		t.Fatalf("%d of %d herd members shared the flight, want %d", cached, herd, herd-1)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("herd executed %d times, want 1", n)
	}
	if got := s.Stats().Counters[ctrCacheShared]; got != herd-1 {
		t.Fatalf("%s = %d, want %d", ctrCacheShared, got, herd-1)
	}
}

// activeFlights counts in-progress singleflight executions.
func activeFlights(s *Server) int {
	s.cached.mu.Lock()
	defer s.cached.mu.Unlock()
	return len(s.cached.inflight)
}

// A saturated node still serves cache hits — they bypass admission —
// while misses bounce with 503 and a Retry-After hint. The priming run
// has already fed the drain-rate EWMA by the time the node saturates,
// so the hint is the measured one (a fast patternlet drains in
// microseconds → the 1-second floor), not the configured fallback; the
// fallback path is pinned by TestQueueSaturationRejectsWithRetryAfter,
// where no job ever completes.
func TestCacheHitBypassesSaturation(t *testing.T) {
	reg, execs, g := cacheRegistry(t)
	g.startCh = make(chan struct{}, 8)
	st := openStore(t, t.TempDir())
	s := New(reg, WithStore(st), WithWorkers(1), WithQueueDepth(0), WithRetryAfter(9*time.Second))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Prime the cache while the node is idle.
	decodeRun(t, post(t, ts, `{"key":"det.omp"}`))
	base := execs.Load()

	// Saturate: the gated run holds the only worker, queue depth 0. The
	// priming run's answer can reach the client before its worker is
	// back at the queue, so a gated run bounced with 503 is sent again.
	done := make(chan *http.Response, 1)
	for started := false; !started; {
		go func() { done <- post(t, ts, `{"key":"gated.omp"}`) }()
		select {
		case <-g.startCh:
			started = true
		case resp := <-done:
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("gated run answered %d before it started", resp.StatusCode)
			}
		}
	}

	// A miss bounces with the drain-rate-derived Retry-After hint...
	resp := post(t, ts, `{"key":"racy.omp"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("miss under saturation: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (measured drain hint, not the configured 9)", ra)
	}
	resp.Body.Close()

	// ...while the hit is served despite the full node.
	hit := post(t, ts, `{"key":"det.omp"}`)
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("hit under saturation: status %d, want 200", hit.StatusCode)
	}
	rr := decodeRun(t, hit)
	if !rr.Cached {
		t.Fatal("saturated hit not marked cached")
	}
	if execs.Load() != base {
		t.Fatal("saturated hit executed the patternlet")
	}

	g.release()
	(<-done).Body.Close()
}

// GET /runs exposes the stored history, filtered by key, and
// GET /runs/{id} returns the full stored result.
func TestRunsHistoryEndpoints(t *testing.T) {
	reg, _, _ := cacheRegistry(t)
	st := openStore(t, t.TempDir())
	s := New(reg, WithStore(st))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	det := decodeRun(t, post(t, ts, `{"key":"det.omp"}`))
	decodeRun(t, post(t, ts, `{"key":"det.omp","seed":5}`))

	var all []StoredRun
	getJSON(t, ts.URL+"/runs", &all)
	if len(all) != 2 {
		t.Fatalf("/runs listed %d records, want 2", len(all))
	}
	var filtered []StoredRun
	getJSON(t, ts.URL+"/runs?key=det.omp", &filtered)
	if len(filtered) != 2 {
		t.Fatalf("/runs?key=det.omp listed %d, want 2", len(filtered))
	}
	getJSON(t, ts.URL+"/runs?key=racy.omp", &filtered)
	if len(filtered) != 0 {
		t.Fatalf("/runs?key=racy.omp listed %d, want 0", len(filtered))
	}

	var one StoredRun
	getJSON(t, ts.URL+"/runs/"+det.RunID, &one)
	if one.Result == nil || one.Result.Output != det.Output {
		t.Fatalf("/runs/%s = %+v, want the stored output", det.RunID, one)
	}
	resp, err := http.Get(ts.URL + "/runs/r999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run id: status %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

// A trace evicted from the in-memory FIFO (capacity 1) is still served
// from the store, and /metrics.json carries the merged store counters.
func TestTraceFallsBackToStore(t *testing.T) {
	reg, _, _ := cacheRegistry(t)
	st := openStore(t, t.TempDir())
	s := New(reg, WithStore(st), WithTraceCapacity(1))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a := decodeRun(t, post(t, ts, `{"key":"racy.omp","trace":true}`))
	b := decodeRun(t, post(t, ts, `{"key":"racy.omp","trace":true}`))
	if a.TraceID == "" || b.TraceID == "" {
		t.Fatalf("trace ids missing: %q %q", a.TraceID, b.TraceID)
	}
	if got := s.local.traces.len(); got != 1 {
		t.Fatalf("FIFO retains %d traces at capacity 1", got)
	}
	// The evicted trace still answers, from the store.
	resp, err := http.Get(ts.URL + "/trace/" + a.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "traceEvents") {
		t.Fatalf("evicted trace: status %d body %.60q", resp.StatusCode, body)
	}

	var metrics map[string]int64
	getJSON(t, ts.URL+"/metrics.json", &metrics)
	if _, ok := metrics["store.put.trace"]; !ok {
		t.Fatalf("store counters not merged into /metrics.json: %v", metrics)
	}
}

// Without WithStore the server is byte-identical to the store-less
// daemon: no cached/run_id response fields, no /runs routes, no store
// counters in /metrics.
func TestDisabledStoreIsByteIdentical(t *testing.T) {
	reg, _, _ := cacheRegistry(t)
	s := New(reg)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts, `{"key":"det.omp"}`)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, field := range []string{`"cached"`, `"run_id"`} {
		if strings.Contains(string(raw), field) {
			t.Fatalf("store-less /run reply leaks %s: %s", field, raw)
		}
	}
	r2, err := http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("store-less GET /runs: status %d, want 404", r2.StatusCode)
	}
	var metrics map[string]int64
	getJSON(t, ts.URL+"/metrics.json", &metrics)
	for name := range metrics {
		if strings.HasPrefix(name, "store.") || strings.HasPrefix(name, "serve.cache.") {
			t.Fatalf("store-less /metrics.json carries %s", name)
		}
	}
}

// --- cluster-mode cache placement ---

// startCachedCluster boots an in-process cluster whose members each own
// a run store, over the deterministic cache registry.
func startCachedCluster(t *testing.T, n int) ([]*testNode, []*atomic.Int64) {
	t.Helper()
	listeners := make([]net.Listener, n)
	table := map[string]string{}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		table[fmt.Sprintf("n%d", i+1)] = ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	execCounts := make([]*atomic.Int64, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i+1)
		reg, execs, g := cacheRegistry(t)
		execCounts[i] = execs
		st := openStore(t, t.TempDir())
		srv := New(reg,
			WithStore(st),
			WithCluster(ClusterConfig{
				Self:            id,
				Peers:           table,
				ForwardAttempts: 2,
				ForwardBackoff:  5 * time.Millisecond,
			}))
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(listeners[i])
		nodes[i] = &testNode{id: id, addr: table[id], srv: srv, hs: hs, ln: listeners[i], gate: g}
		t.Cleanup(func() {
			hs.Close()
			listeners[i].Close()
			srv.Shutdown(context.Background())
		})
	}
	return nodes, execCounts
}

// In cluster mode the cache sits on the owning node, and a forwarded hit
// carries its cached marker back through the wire without re-entering
// the owner's admission path.
func TestForwardedHitCarriesCacheMarker(t *testing.T) {
	nodes, execCounts := startCachedCluster(t, 2)
	const key = "det.omp"
	owner := ownerOf(nodes, key)
	entry := nonOwnerOf(nodes, key)
	if owner == nil || entry == nil {
		t.Fatal("placement did not split owner and non-owner")
	}
	var ownerExecs *atomic.Int64
	for i, n := range nodes {
		if n == owner {
			ownerExecs = execCounts[i]
		}
	}

	// First request through the non-owner: forwarded, executed at the
	// owner, stored there.
	resp, rr := postJSON(t, entry.url(), fmt.Sprintf(`{"key":%q}`, key))
	resp.Body.Close()
	if rr.Node != owner.id {
		t.Fatalf("executed on %q, want owner %q", rr.Node, owner.id)
	}
	if rr.Cached {
		t.Fatal("first forwarded run marked cached")
	}
	firstOutput := rr.Output

	ownerSubmitted := owner.srv.Stats().Counters[ctrSubmitted]
	entrySubmitted := entry.srv.Stats().Counters[ctrSubmitted]

	// Second request through the non-owner again: the owner's store
	// answers; the marker survives the forward hop.
	resp2, rr2 := postJSON(t, entry.url(), fmt.Sprintf(`{"key":%q}`, key))
	resp2.Body.Close()
	if !rr2.Cached {
		t.Fatal("forwarded hit lost its cached marker on the wire")
	}
	if rr2.Output != firstOutput {
		t.Fatalf("forwarded hit output differs: %q vs %q", rr2.Output, firstOutput)
	}
	if rr2.Node != owner.id {
		t.Fatalf("hit reported node %q, want owner %q", rr2.Node, owner.id)
	}
	if n := ownerExecs.Load(); n != 1 {
		t.Fatalf("owner executed %d times, want 1", n)
	}
	// The hit bypassed the owner's admission (no submit, no worker slot)
	// and the entry node never admitted anything — it only forwarded.
	if got := owner.srv.Stats().Counters[ctrSubmitted]; got != ownerSubmitted {
		t.Fatalf("owner serve.submitted went %d → %d on a forwarded hit", ownerSubmitted, got)
	}
	if got := entry.srv.Stats().Counters[ctrSubmitted]; got != entrySubmitted {
		t.Fatalf("entry serve.submitted went %d → %d on a forwarded run", entrySubmitted, got)
	}
	if hits := owner.srv.Stats().Counters[ctrCacheHit]; hits != 1 {
		t.Fatalf("owner serve.cache.hit = %d, want 1", hits)
	}
}
