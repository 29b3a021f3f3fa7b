package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// Every serving stage of a single-node daemon must appear in
// /metrics.json with a consistent percentile ladder, and the stage
// counts must add up to the requests served.
func TestStageHistogramsRecordAndExport(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg, WithWorkers(2))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const runs = 5
	for i := 0; i < runs; i++ {
		post(t, ts, `{"key":"fast.omp"}`).Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, stage := range []string{stageAdmission, stageQueue, stageExecute, stageRespond, stageE2E} {
		prefix := "serve.stage." + stage + "."
		count, ok := snap[prefix+"count"]
		if !ok {
			t.Fatalf("/metrics.json missing %scount: %v", prefix, snap)
		}
		// The e2e and respond histograms see every handled request; the
		// executor stages see every admitted run. Both equal runs here.
		if count != runs {
			t.Fatalf("%scount = %d, want %d", prefix, count, runs)
		}
		p50, p99, max := snap[prefix+"p50_ns"], snap[prefix+"p99_ns"], snap[prefix+"max_ns"]
		if p50 <= 0 && stage != stageQueue && stage != stageAdmission {
			// Queue dwell and admission can legitimately round to 0 ns
			// on an idle pool; execute/respond/e2e cannot.
			t.Fatalf("%sp50_ns = %d, want > 0", prefix, p50)
		}
		if p50 > p99 || p99 > max {
			t.Fatalf("%s percentiles not monotone: p50=%d p99=%d max=%d", prefix, p50, p99, max)
		}
	}
	// A store-less single node has no cache or route layer, so those
	// stages must not invent series.
	for name := range snap {
		if strings.Contains(name, stageCache) || strings.Contains(name, stageRoute) {
			t.Fatalf("single-node store-less daemon exports %s", name)
		}
	}
	// /metrics (text) carries the same keys through Summarize.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "serve.stage.e2e.p99_ns") {
		t.Fatalf("/metrics missing stage percentiles:\n%s", body)
	}
}

// The cache layer contributes its cache_lookup stage when a store is
// configured, counting hits and misses alike.
func TestCacheLookupStageRecorded(t *testing.T) {
	reg, _, _ := cacheRegistry(t)
	st := openStore(t, t.TempDir())
	s := New(reg, WithStore(st))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, `{"key":"det.omp"}`).Body.Close() // miss + execute
	post(t, ts, `{"key":"det.omp"}`).Body.Close() // hit

	var snap map[string]int64
	getJSON(t, ts.URL+"/metrics.json", &snap)
	if got := snap["serve.stage."+stageCache+".count"]; got != 2 {
		t.Fatalf("cache_lookup count = %d, want 2 (miss + hit)", got)
	}
	// The hit never crossed admission, so the executor stages saw one
	// run while e2e saw both.
	if got := snap["serve.stage."+stageExecute+".count"]; got != 1 {
		t.Fatalf("execute count = %d, want 1", got)
	}
	if got := snap["serve.stage."+stageE2E+".count"]; got != 2 {
		t.Fatalf("e2e count = %d, want 2", got)
	}
}

// A cluster member contributes the ring_route stage for every /run that
// crosses the router.
func TestRingRouteStageRecorded(t *testing.T) {
	reg, _ := testRegistry(t)
	cc := ClusterConfig{Self: "n1", Peers: map[string]string{"n1": "127.0.0.1:1"}}
	s := New(reg, WithCluster(cc))
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, `{"key":"fast.omp"}`).Body.Close()

	var snap map[string]int64
	getJSON(t, ts.URL+"/metrics.json", &snap)
	if got := snap["serve.stage."+stageRoute+".count"]; got != 1 {
		t.Fatalf("ring_route count = %d, want 1", got)
	}
}

// A store-less single node's /metrics.json after one run is exactly the
// three counters that run created plus the five stage families the node
// has, in sorted order: no cache_lookup or ring_route series, because no
// request crosses those layers. The key set is golden; the values are
// latencies and vary.
func TestUninstrumentedMetricsGolden(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, `{"key":"fast.omp"}`).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var keys []string
	for _, m := range regexp.MustCompile(`"([^"]*)":`).FindAllSubmatch(body, -1) {
		keys = append(keys, string(m[1]))
	}
	var golden []string
	for _, stage := range []string{"admission_wait", "e2e", "execute", "queue_dwell", "respond"} {
		for _, suffix := range []string{"count", "max_ns", "p50_ns", "p90_ns", "p95_ns", "p999_ns", "p99_ns"} {
			golden = append(golden, "serve.stage."+stage+"."+suffix)
		}
	}
	golden = append([]string{"serve.accepted", "serve.completed"}, golden...)
	golden = append(golden, "serve.submitted")
	if strings.Join(keys, " ") != strings.Join(golden, " ") {
		t.Fatalf("/metrics.json keys =\n%v\nwant golden\n%v", keys, golden)
	}
	// And the run response itself carries no cluster or store fields.
	rr := decodeRun(t, post(t, ts, `{"key":"fast.omp","tasks":2}`))
	if rr.Node != "" || rr.Cached || rr.RunID != "" || rr.TraceID != "" {
		t.Fatalf("single-node response grew fields: %+v", rr)
	}
}

// Consecutive /metrics.json scrapes must present keys in the same
// sorted order even while counters move — the property scrape-diffing
// tooling relies on.
func TestMetricsJSONStableSortedOrder(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	keysOf := func(raw []byte) []string {
		// Keys in document order, straight off the wire.
		matches := regexp.MustCompile(`"((?:[^"\\]|\\.)*)":`).FindAllSubmatch(raw, -1)
		out := make([]string, len(matches))
		for i, m := range matches {
			out[i] = string(m[1])
		}
		return out
	}
	scrape := func() []byte {
		resp, err := http.Get(ts.URL + "/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return raw
	}

	post(t, ts, `{"key":"fast.omp"}`).Body.Close()
	first := keysOf(scrape())
	post(t, ts, `{"key":"fast.omp"}`).Body.Close()
	post(t, ts, `{"key":"boom.omp"}`).Body.Close() // creates serve.failed mid-stream
	second := keysOf(scrape())

	if len(first) == 0 {
		t.Fatal("no keys parsed from first scrape")
	}
	for i := 1; i < len(second); i++ {
		if second[i-1] >= second[i] {
			t.Fatalf("scrape keys not strictly sorted at %d: %q >= %q", i, second[i-1], second[i])
		}
	}
	// Every key of the first scrape appears in the second in the same
	// relative order (new counters may interleave, sorted).
	pos := map[string]int{}
	for i, k := range second {
		pos[k] = i
	}
	last := -1
	for _, k := range first {
		p, ok := pos[k]
		if !ok {
			t.Fatalf("key %q vanished between scrapes", k)
		}
		if p <= last {
			t.Fatalf("key %q moved out of order between scrapes", k)
		}
		last = p
	}
}

// The drain-rate hint: no samples → the configured fallback; with an
// EWMA and a known backlog, hint = ewma × backlog / workers.
func TestRetryAfterHintFormula(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg, WithWorkers(2), WithRetryAfter(7*time.Second))
	defer s.Shutdown(context.Background())

	if got := s.local.retryAfterHint(); got != 7*time.Second {
		t.Fatalf("hint before any sample = %v, want the configured 7s", got)
	}
	s.local.execEWMA.Store((3 * time.Second).Nanoseconds())
	// Empty queue, nothing running: backlog floors at 1 job.
	if got := s.local.retryAfterHint(); got != 1500*time.Millisecond {
		t.Fatalf("hint with empty backlog = %v, want 1.5s (one job over two workers)", got)
	}
}
