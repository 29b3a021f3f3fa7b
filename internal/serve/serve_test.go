package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/omp"
)

// testRegistry builds a registry with the patternlets the lifecycle
// tests drive: a fast one, a gated one (blocks until released), and a
// context-aware taskloop whose per-iteration grain sets the poll
// interval the timeout guarantee is stated against.
func testRegistry(t testing.TB) (*core.Registry, *gate) {
	t.Helper()
	r := core.NewRegistry()
	g := &gate{ch: make(chan struct{})}

	fast := pattern("fast")
	fast.Run = func(rc *core.RunContext) error {
		rc.W.Printf("fast ran with %d tasks\n", rc.NumTasks)
		rc.Record(0, "ran", rc.NumTasks)
		return nil
	}
	r.MustRegister(fast)

	gated := pattern("gated")
	gated.Run = func(rc *core.RunContext) error {
		g.started()
		select {
		case <-g.ch:
		case <-rc.Context().Done():
		}
		rc.W.Printf("gated done\n")
		return nil
	}
	r.MustRegister(gated)

	loop := pattern("loop")
	loop.Run = func(rc *core.RunContext) error {
		// 64 iterations of iterGrain each: far longer than any request
		// timeout the tests set, so completing early proves cancellation.
		omp.Parallel(func(th *omp.Thread) {
			th.SingleNoWait(func() {
				th.Taskloop(0, 64, 1, func(i int) {
					time.Sleep(iterGrain)
				})
			})
		}, omp.WithNumThreads(2), omp.WithContext(rc.Context()))
		rc.W.Printf("loop returned\n")
		return nil
	}
	r.MustRegister(loop)

	bad := pattern("boom")
	bad.Run = func(rc *core.RunContext) error { return fmt.Errorf("kaboom") }
	r.MustRegister(bad)

	sized := pattern("sized")
	sized.Params = []core.Param{
		{Name: "n", Doc: "problem size", Default: 64, Min: 8, Max: 1024},
	}
	sized.Run = func(rc *core.RunContext) error {
		rc.W.Printf("sized ran with n=%d\n", rc.Param("n"))
		return nil
	}
	r.MustRegister(sized)

	return r, g
}

// iterGrain is the taskloop poll interval for the cancellation-latency
// test: the serving layer promises a timed-out run returns within two of
// these.
const iterGrain = 50 * time.Millisecond

func pattern(name string) *core.Patternlet {
	return &core.Patternlet{
		Name:     name,
		Model:    core.OpenMP,
		Patterns: []core.Pattern{core.SPMD},
		Synopsis: name + " test patternlet",
		Exercise: "none",
		Directives: []core.Directive{
			{Name: "parallel", Pragma: "#pragma omp parallel", Default: true},
		},
	}
}

// gate coordinates with the "gated" patternlet: tests learn when a run
// has started and decide when it may finish.
type gate struct {
	mu      sync.Mutex
	ch      chan struct{}
	starts  int
	startCh chan struct{}
}

func (g *gate) started() {
	g.mu.Lock()
	g.starts++
	if g.startCh != nil {
		select {
		case g.startCh <- struct{}{}:
		default:
		}
	}
	g.mu.Unlock()
}

func (g *gate) release() { close(g.ch) }

// --- admission and backpressure ---

// Queue saturation must bounce with 503 + Retry-After, not block or
// accept unboundedly.
func TestQueueSaturationRejectsWithRetryAfter(t *testing.T) {
	reg, g := testRegistry(t)
	g.startCh = make(chan struct{}, 8)
	s := New(reg, WithWorkers(1), WithQueueDepth(1), WithRetryAfter(7*time.Second))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First request occupies the only worker...
	done := make(chan *http.Response, 2)
	go func() { done <- post(t, ts, `{"key":"gated.omp"}`) }()
	<-g.startCh
	// ...second fills the one queue slot. It sits queued (no second
	// worker), so wait until the server reports it accepted.
	go func() { done <- post(t, ts, `{"key":"gated.omp"}`) }()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	// Third must bounce immediately.
	resp := post(t, ts, `{"key":"fast.omp"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want \"7\"", ra)
	}
	resp.Body.Close()

	g.release()
	for i := 0; i < 2; i++ {
		r := <-done
		if r.StatusCode != http.StatusOK {
			t.Fatalf("accepted job %d: status %d, want 200", i, r.StatusCode)
		}
		r.Body.Close()
	}
	st := s.Stats()
	if st.Counters[ctrSubmitted] != 3 || st.Counters[ctrAccepted] != 2 || st.Counters[ctrRejected] != 1 {
		t.Fatalf("counters = %v, want 3 submitted / 2 accepted / 1 rejected", st.Counters)
	}
}

// Once the daemon has observed executions, a 503's Retry-After is no
// longer the configured constant but the estimated drain time of the
// backlog in front of the caller: execute-EWMA × (queued + running) /
// workers. With a 2 s EWMA and a full 1-worker/1-slot pool the caller
// is behind two jobs, so the honest hint is 4 s — not the 7 s default.
func TestRetryAfterDerivedFromDrainRate(t *testing.T) {
	reg, g := testRegistry(t)
	g.startCh = make(chan struct{}, 8)
	s := New(reg, WithWorkers(1), WithQueueDepth(1), WithRetryAfter(7*time.Second))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Seed the drain estimate directly: runs "observed" to take 2 s.
	s.local.execEWMA.Store((2 * time.Second).Nanoseconds())

	// Saturate: one gated run on the worker, one in the queue slot.
	done := make(chan *http.Response, 2)
	go func() { done <- post(t, ts, `{"key":"gated.omp"}`) }()
	<-g.startCh
	go func() { done <- post(t, ts, `{"key":"gated.omp"}`) }()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	resp := post(t, ts, `{"key":"fast.omp"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated submit: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "4" {
		t.Fatalf("Retry-After = %q, want \"4\" (2s ewma x 2 backlog / 1 worker)", ra)
	}
	resp.Body.Close()

	g.release()
	for i := 0; i < 2; i++ {
		(<-done).Body.Close()
	}
}

// --- request timeout cancels a running region ---

// A request timeout must cancel the omp taskloop mid-run: the region
// observes the context within one iteration chunk, so the whole request
// returns within 2× the poll interval of the deadline (plus dispatch
// slack), with HTTP 504.
func TestRequestTimeoutCancelsRunningTaskloop(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg, WithWorkers(1), WithQueueDepth(1))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	timeout := 75 * time.Millisecond
	start := time.Now()
	resp := post(t, ts, fmt.Sprintf(`{"key":"loop.omp","timeout_ms":%d}`, timeout.Milliseconds()))
	elapsed := time.Since(start)

	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rr.Error == "" || !strings.Contains(rr.Error, "deadline") {
		t.Fatalf("Error = %q, want a deadline error", rr.Error)
	}
	// Full run would be 64×50ms = 3.2s. The bound: deadline + 2 polls,
	// plus scheduling slack.
	limit := timeout + 2*iterGrain + 100*time.Millisecond
	if elapsed > limit {
		t.Fatalf("timed-out request took %v, want < %v", elapsed, limit)
	}
	// The cancelled region still surfaced its post-loop output.
	if !strings.Contains(rr.Output, "loop returned") {
		t.Fatalf("partial output = %q", rr.Output)
	}
	if s.Stats().Counters[ctrTimedOut] != 1 {
		t.Fatalf("timedout counter = %v", s.Stats().Counters)
	}
}

// --- graceful shutdown ---

// Shutdown drains exactly the accepted jobs: both the running and the
// queued one complete, later submissions bounce, and nothing else runs.
func TestShutdownDrainsExactlyAcceptedJobs(t *testing.T) {
	reg, g := testRegistry(t)
	g.startCh = make(chan struct{}, 8)
	s := New(reg, WithWorkers(1), WithQueueDepth(4))

	type outcome struct {
		res core.Result
		err error
	}
	results := make(chan outcome, 2)
	run := func() {
		res, err := s.Execute(context.Background(), "gated.omp", core.RunOptions{})
		results <- outcome{res, err}
	}
	go run() // occupies the worker
	<-g.startCh
	go run() // sits in the queue
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, func() bool { return s.Stats().Draining })

	// Post-shutdown submission bounces even though the queue has room.
	if _, err := s.Execute(context.Background(), "fast.omp", core.RunOptions{}); err != errBusy {
		t.Fatalf("submit after shutdown: err = %v, want errBusy", err)
	}

	g.release()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("drained job %d: %v", i, o.err)
		}
		if !strings.Contains(o.res.Output, "gated done") {
			t.Fatalf("drained job %d output = %q", i, o.res.Output)
		}
	}
	st := s.Stats()
	if st.Counters[ctrCompleted] != 2 {
		t.Fatalf("completed = %d, want exactly the 2 accepted jobs", st.Counters[ctrCompleted])
	}
	if g.starts != 2 {
		t.Fatalf("%d runs started, want 2", g.starts)
	}
}

// A Shutdown whose own context fires before the drain finishes reports
// that instead of hanging.
func TestShutdownHonorsItsContext(t *testing.T) {
	reg, g := testRegistry(t)
	g.startCh = make(chan struct{}, 1)
	s := New(reg, WithWorkers(1))
	go s.Execute(context.Background(), "gated.omp", core.RunOptions{})
	<-g.startCh
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil with a job still holding the worker")
	}
	g.release()
}

// --- HTTP surface ---

func TestRunEndpointStatuses(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg, WithWorkers(2))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"ok", `{"key":"fast.omp","tasks":3}`, http.StatusOK},
		{"unknown key", `{"key":"nope.omp"}`, http.StatusNotFound},
		{"missing key", `{}`, http.StatusBadRequest},
		{"bad json", `{"key":`, http.StatusBadRequest},
		{"unknown toggle", `{"key":"fast.omp","toggles":{"warp":true}}`, http.StatusBadRequest},
		{"negative tasks", `{"key":"fast.omp","tasks":-2}`, http.StatusBadRequest},
		{"body error", `{"key":"boom.omp"}`, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		resp := post(t, ts, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}

	// The ok case round-trips output and task count.
	resp := post(t, ts, `{"key":"fast.omp","tasks":3}`)
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rr.Tasks != 3 || !strings.Contains(rr.Output, "fast ran with 3 tasks") {
		t.Fatalf("RunResponse = %+v", rr)
	}
}

// Absurd task and node counts are rejected with 400 by the same
// core.CheckOptions bound Registry.Run applies, before admission, and so
// are bytes after the body's JSON value (as /worker refuses them): the
// hostile bodies never take a queue slot, so serve.submitted does not
// move.
func TestHostileSizesRejectedBeforeAdmission(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, body := range []string{
		`{"key":"fast.omp","tasks":1000000}`,
		`{"key":"fast.omp","nodes":1000000000}`,
		`{"key":"fast.omp","nodes":-1}`,
		fmt.Sprintf(`{"key":"fast.omp","tasks":%d}`, core.MaxTasks+1),
		`{"key":"fast.omp"} trailing garbage`,
		`{"key":"fast.omp"}{"key":"fast.omp"}`,
	} {
		resp := post(t, ts, body)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, raw)
		}
	}
	if got := s.Stats().Counters[ctrSubmitted]; got != 0 {
		t.Fatalf("serve.submitted = %d after hostile bodies, want 0", got)
	}
	// The bound itself is inclusive, and trailing whitespace is no
	// trailing value.
	resp := post(t, ts, fmt.Sprintf("{\"key\":\"fast.omp\",\"tasks\":%d,\"nodes\":%d}\n", core.MaxTasks, core.MaxTasks))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tasks=nodes=MaxTasks: status %d, want 200", resp.StatusCode)
	}
}

// FuzzRunBody posts arbitrary bytes to /run on a store-less single node.
// No body may panic the server, and a body it does not admit
// (serve.submitted unchanged) must be answered with a 4xx: only an
// admitted run may end in a 5xx. The short timeouts keep an admitted
// gated or loop run from stalling the fuzzer.
func FuzzRunBody(f *testing.F) {
	for _, seed := range []string{
		`{"key":"fast.omp","tasks":2}`,
		`{"key":"sized.omp","params":{"n":7}}`,
		`{"key":"sized.omp","params":{"m":8}}`,
		`{"key":"fast.omp","toggles":{"nope":true}}`,
		`{"key":"fast.omp","tasks":1000000,"nodes":-1}`,
		`{"key":"fast.omp","distribute":true}`,
		`{"key":"gated.omp","timeout_ms":1}`,
		`{"key":"boom.omp","trace":true}`,
		`{"key":"nope.omp"}`,
		`{"key":""}`,
		`{"key":7}`,
		`{"key":"fast.omp"} trailing`,
		`{"key":"fast.omp"} trailing garbage`,
		`[]`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	reg, _ := testRegistry(f)
	s := New(reg, WithTimeout(20*time.Millisecond), WithMaxTimeout(20*time.Millisecond))
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		before := s.Stats().Counters[ctrSubmitted]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
		if s.Stats().Counters[ctrSubmitted] == before && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("body %q was not admitted but got status %d: %s", body, rec.Code, rec.Body)
		}
	})
}

func TestCollectAndTraceEndpoint(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg, WithTraceCapacity(2))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts, `{"key":"fast.omp","trace":true}`)
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(rr.Phases) == 0 || rr.Phases[0].Phase != "ran" {
		t.Fatalf("Phases = %+v", rr.Phases)
	}
	if rr.TraceID == "" {
		t.Fatal("trace=true produced no trace id")
	}

	get, err := http.Get(ts.URL + "/trace/" + rr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(get.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("retained trace has no events")
	}

	// Capacity 2: after two more traced runs the first id is evicted.
	for i := 0; i < 2; i++ {
		r := post(t, ts, `{"key":"fast.omp","trace":true}`)
		r.Body.Close()
	}
	gone, err := http.Get(ts.URL + "/trace/" + rr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted trace: status %d, want 404", gone.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg, WithWorkers(3), WithQueueDepth(5))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, `{"key":"fast.omp"}`).Body.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
		Stats
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Workers != 3 || hz.QueueDepth != 5 {
		t.Fatalf("healthz = %+v", hz)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), ctrCompleted) {
		t.Fatalf("/metrics missing %s:\n%s", ctrCompleted, buf.String())
	}

	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&counters); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if counters[ctrCompleted] != 1 || counters[ctrAccepted] != 1 {
		t.Fatalf("metrics.json = %v", counters)
	}

	// Draining flips healthz to 503.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", resp.StatusCode)
	}
}

func TestPatternletsListing(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/patternlets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []PatternletInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != reg.Len() {
		t.Fatalf("%d entries, want %d", len(infos), reg.Len())
	}
	byKey := map[string]PatternletInfo{}
	for _, in := range infos {
		byKey[in.Key] = in
	}
	fast, ok := byKey["fast.omp"]
	if !ok || fast.Model != "OpenMP" || len(fast.Directives) != 1 {
		t.Fatalf("fast.omp entry = %+v (present: %v)", fast, ok)
	}
	// Declared params surface with name, default and range, so clients
	// can discover tunable sizes without reading source.
	sized, ok := byKey["sized.omp"]
	if !ok || len(sized.Params) != 1 {
		t.Fatalf("sized.omp entry = %+v (present: %v)", sized, ok)
	}
	if p := sized.Params[0]; p.Name != "n" || p.Default != 64 || p.Min != 8 || p.Max != 1024 || p.Doc == "" {
		t.Fatalf("sized.omp param = %+v", sized.Params[0])
	}
}

// The /run body's "params" map resolves like the CLI's -param flag:
// overrides reach the patternlet, unknown names and out-of-range values
// bounce with 400 before admission.
func TestRunWithParams(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := post(t, ts, `{"key":"sized.omp","params":{"n":256}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	rr := decodeRun(t, resp)
	if rr.Output != "sized ran with n=256\n" {
		t.Fatalf("output %q", rr.Output)
	}

	for _, body := range []string{
		`{"key":"sized.omp","params":{"bogus":1}}`,
		`{"key":"sized.omp","params":{"n":4}}`,
		`{"key":"sized.omp","params":{"n":2048}}`,
	} {
		resp := post(t, ts, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// --- helpers ---

func post(t *testing.T, ts *httptest.Server, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// A /run or /worker body over maxBodyBytes is refused with 413 before
// it is decoded; the daemon never buffers more than the limit.
func TestOversizeBodyRejected(t *testing.T) {
	node := startCluster(t, 1)[0]
	big := `{"key":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	for _, path := range []string{"/run", "/worker"} {
		resp, err := http.Post(node.url()+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want %d", path, resp.StatusCode, http.StatusRequestEntityTooLarge)
		}
	}
}
