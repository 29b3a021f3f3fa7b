package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

// clusterRegistry builds one node's registry for the cluster tests:
// many fast keys (so membership changes have a population to move), a
// gated key for saturation, and an MPI hello for world-spanning runs.
func clusterRegistry(t testing.TB) (*core.Registry, *gate) {
	t.Helper()
	r := core.NewRegistry()
	g := &gate{ch: make(chan struct{})}
	for i := 0; i < 20; i++ {
		p := pattern(fmt.Sprintf("fast%d", i))
		key := p.Key()
		p.Run = func(rc *core.RunContext) error {
			rc.W.Printf("ran %s with %d tasks\n", key, rc.NumTasks)
			rc.Record(0, "ran", rc.NumTasks)
			return nil
		}
		r.MustRegister(p)
	}
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

	hello := &core.Patternlet{
		Name:     "hello",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.SPMD},
		Synopsis: "cluster-span test patternlet",
		Exercise: "none",
	}
	hello.Run = func(rc *core.RunContext) error {
		body := func(c *mpi.Comm) error {
			rc.W.Printf("rank %d of %d\n", c.Rank(), c.Size())
			return nil
		}
		if rc.Remote != nil {
			return mpi.RunWorker(rc.Remote.Rank, rc.Remote.NP, rc.Remote.Transport, body)
		}
		return mpi.Run(rc.NumTasks, body)
	}
	r.MustRegister(hello)
	return r, g
}

// testNode is one daemon of an in-process cluster: a Server bound to a
// real TCP listener, so peers reach it exactly as they would a separate
// patternletd process.
type testNode struct {
	id   string
	addr string
	srv  *Server
	hs   *http.Server
	ln   net.Listener
	gate *gate
}

func (n *testNode) url() string { return "http://" + n.addr }

// kill simulates a node death: the listener and all connections drop
// without any drain, as a SIGKILL would.
func (n *testNode) kill() {
	n.hs.Close()
	n.ln.Close()
	n.srv.Shutdown(context.Background())
}

// startCluster boots n cluster members on ephemeral loopback ports with
// a shared static membership table. extra options apply to every node.
func startCluster(t *testing.T, n int, extra ...Option) []*testNode {
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
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i+1)
		reg, g := clusterRegistry(t)
		opts := append([]Option{
			WithCluster(ClusterConfig{
				Self:            id,
				Peers:           table,
				ForwardAttempts: 2,
				ForwardBackoff:  5 * time.Millisecond,
			}),
		}, extra...)
		srv := New(reg, opts...)
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(listeners[i])
		nodes[i] = &testNode{id: id, addr: table[id], srv: srv, hs: hs, ln: listeners[i], gate: g}
		t.Cleanup(func() {
			hs.Close()
			listeners[i].Close()
			srv.Shutdown(context.Background())
		})
	}
	return nodes
}

// byID finds a node, and ownerOf/nonOwnerOf resolve placement through
// node's own ring — the same answer every member computes.
func byID(nodes []*testNode, id string) *testNode {
	for _, n := range nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

func ownerOf(nodes []*testNode, key string) *testNode {
	return byID(nodes, nodes[0].srv.sharded.ring.Owner(key))
}

func nonOwnerOf(nodes []*testNode, key string) *testNode {
	owner := nodes[0].srv.sharded.ring.Owner(key)
	for _, n := range nodes {
		if n.id != owner {
			return n
		}
	}
	return nil
}

func postJSON(t *testing.T, url, body string) (*http.Response, RunResponse) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr RunResponse
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusTemporaryRedirect {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("decode /run reply (%d): %v", resp.StatusCode, err)
		}
	}
	return resp, rr
}

// A run submitted to a non-owner is forwarded to the ring owner and
// reports the owner as its executing node; both sides count the hop.
func TestForwardedRunExecutesAtOwner(t *testing.T) {
	nodes := startCluster(t, 3)
	const key = "fast7.omp"
	owner, origin := ownerOf(nodes, key), nonOwnerOf(nodes, key)
	if owner == nil || origin == nil || owner == origin {
		t.Fatalf("placement: owner=%v origin=%v", owner, origin)
	}

	resp, rr := postJSON(t, origin.url(), fmt.Sprintf(`{"key":%q,"tasks":3}`, key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if rr.Node != owner.id {
		t.Fatalf("executed on %q, ring owner is %q", rr.Node, owner.id)
	}
	if !strings.Contains(rr.Output, "ran "+key+" with 3 tasks") {
		t.Fatalf("output = %q", rr.Output)
	}
	if got := origin.srv.Stats().Counters[ctrForwardOut]; got != 1 {
		t.Fatalf("origin forward.out = %d, want 1", got)
	}
	if got := owner.srv.Stats().Counters[ctrForwardIn]; got != 1 {
		t.Fatalf("owner forward.in = %d, want 1", got)
	}
}

// A run submitted to its owner executes locally with no forwarding.
func TestOwnerExecutesLocally(t *testing.T) {
	nodes := startCluster(t, 3)
	const key = "fast3.omp"
	owner := ownerOf(nodes, key)
	resp, rr := postJSON(t, owner.url(), fmt.Sprintf(`{"key":%q}`, key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if rr.Node != owner.id {
		t.Fatalf("node = %q, want %q", rr.Node, owner.id)
	}
	if got := owner.srv.Stats().Counters[ctrForwardOut]; got != 0 {
		t.Fatalf("forward.out = %d, want 0", got)
	}
}

// redirect:true answers a remote-owned key with 307 + Location instead
// of proxying the run.
func TestRedirectToOwner(t *testing.T) {
	nodes := startCluster(t, 3)
	const key = "fast11.omp"
	owner, origin := ownerOf(nodes, key), nonOwnerOf(nodes, key)

	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Post(origin.url()+"/run", "application/json",
		strings.NewReader(fmt.Sprintf(`{"key":%q,"redirect":true}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://"+owner.addr+"/run" {
		t.Fatalf("Location = %q, want owner %s", loc, owner.addr)
	}
	if got := origin.srv.Stats().Counters[ctrRedirected]; got != 1 {
		t.Fatalf("redirected = %d, want 1", got)
	}
}

// Killing a node mid-load moves exactly its keys to survivors: every
// catalog key routed through a surviving node still succeeds, the dead
// member is rehashed off the ring, and /healthz reports it not live.
func TestDeadNodeKeysRehashToSurvivors(t *testing.T) {
	nodes := startCluster(t, 3)
	dead := nodes[1]
	dead.kill()

	// Every key in the catalog must run successfully through a survivor,
	// including (especially) the keys the dead node owned.
	deadOwned := 0
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("fast%d.omp", i)
		if nodes[0].srv.sharded.ring.Owner(key) == dead.id {
			deadOwned++
		}
		resp, rr := postJSON(t, nodes[0].url(), fmt.Sprintf(`{"key":%q}`, key))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("key %s through survivor: status %d", key, resp.StatusCode)
		}
		if rr.Node == dead.id {
			t.Fatalf("key %s reportedly executed on dead node", key)
		}
	}
	if deadOwned == 0 {
		t.Skip("dead node owned no test keys; vnode layout starved it (unexpected at 128 replicas)")
	}

	// The first failed forward rehashed the dead member off the ring.
	x := nodes[0].srv.sharded
	if x.ring.Has(dead.id) {
		t.Fatal("dead node still on the ring after failed forwards")
	}
	if got := nodes[0].srv.Stats().Counters[ctrRehash]; got != 1 {
		t.Fatalf("rehash counter = %d, want 1", got)
	}
	// And every key now resolves to a live owner.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("fast%d.omp", i)
		if owner := x.ring.Owner(key); owner == dead.id || owner == "" {
			t.Fatalf("key %s owned by %q after rehash", key, owner)
		}
	}

	// /healthz on a survivor reports the dead member as not live.
	resp, err := http.Get(nodes[0].url() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Ring *RingInfo `json:"ring"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Ring == nil {
		t.Fatal("healthz has no ring section in cluster mode")
	}
	lives := map[string]bool{}
	owned := map[string]int{}
	for _, m := range hz.Ring.Members {
		lives[m.ID] = m.Live
		owned[m.ID] = m.Owned
	}
	if lives[dead.id] {
		t.Fatalf("healthz still reports %s live: %+v", dead.id, hz.Ring)
	}
	if owned[dead.id] != 0 {
		t.Fatalf("dead node still owns %d keys", owned[dead.id])
	}
}

// A saturated peer's 503 carries the peer's own Retry-After through the
// forwarder, not the origin's default.
func TestPeerBusyRetryAfterPassesThrough(t *testing.T) {
	nodes := startCluster(t, 3, WithWorkers(1), WithQueueDepth(0), WithRetryAfter(9*time.Second))
	const key = "fast5.omp"
	owner, origin := ownerOf(nodes, key), nonOwnerOf(nodes, key)

	// Saturate the owner's only worker with a gated run; the forwarded
	// header pins it to the owner whatever its ring says.
	owner.gate.startCh = make(chan struct{}, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, owner.url()+"/run", strings.NewReader(`{"key":"gated.omp"}`))
		req.Header.Set(forwardedHeader, "test")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-owner.gate.startCh
	defer owner.gate.release()

	resp, err := http.Post(origin.url()+"/run", "application/json",
		strings.NewReader(fmt.Sprintf(`{"key":%q}`, key)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "9" {
		t.Fatalf("Retry-After = %q, want the peer's \"9\"", ra)
	}
}

// A peer that accepts connections but never answers is failed over by a
// hedged request to the next node in the key's preference order.
func TestHedgedFailoverPastSilentPeer(t *testing.T) {
	// Hand-build a 3-member table where one member is a black hole: it
	// accepts /run and sleeps forever.
	blackLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blackLn.Close()
	hang := make(chan struct{})
	defer close(hang)
	blackSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hang
	})}
	go blackSrv.Serve(blackLn)
	defer blackSrv.Close()

	liveLn1, _ := net.Listen("tcp", "127.0.0.1:0")
	liveLn2, _ := net.Listen("tcp", "127.0.0.1:0")
	defer liveLn1.Close()
	defer liveLn2.Close()
	table := map[string]string{
		"nb": blackLn.Addr().String(),
		"n1": liveLn1.Addr().String(),
		"n2": liveLn2.Addr().String(),
	}
	mk := func(id string, ln net.Listener) *Server {
		reg, _ := clusterRegistry(t)
		srv := New(reg, WithCluster(ClusterConfig{
			Self:       id,
			Peers:      table,
			HedgeDelay: 50 * time.Millisecond,
		}))
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		t.Cleanup(func() {
			hs.Close()
			srv.Shutdown(context.Background())
		})
		return srv
	}
	n1 := mk("n1", liveLn1)
	mk("n2", liveLn2)

	// Find a key the black hole owns and run it through n1.
	key := ""
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("fast%d.omp", i)
		if n1.sharded.ring.Owner(k) == "nb" {
			key = k
			break
		}
	}
	if key == "" {
		t.Skip("black-hole node owns none of the test keys")
	}
	start := time.Now()
	resp, rr := postJSON(t, "http://"+table["n1"], fmt.Sprintf(`{"key":%q}`, key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 via hedge", resp.StatusCode)
	}
	if rr.Node == "nb" || rr.Node == "" {
		t.Fatalf("executed on %q, want a live node", rr.Node)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged failover took %v, hedge delay was 50ms", elapsed)
	}
	if got := n1.Stats().Counters[ctrForwardHedge]; got != 1 {
		t.Fatalf("hedge counter = %d, want 1", got)
	}
}

// distribute:true spans the MPI world across the cluster: ranks run in
// separate daemon processes over RemoteTransport, outputs splice in rank
// order, and the hosting members count their ranks.
func TestDistributedWorldSpansMembers(t *testing.T) {
	nodes := startCluster(t, 3)
	const key = "hello.mpi"
	origin := nonOwnerOf(nodes, key)
	owner := ownerOf(nodes, key)

	resp, rr := postJSON(t, origin.url(), fmt.Sprintf(`{"key":%q,"tasks":4,"distribute":true}`, key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (error %q)", resp.StatusCode, rr.Error)
	}
	for rank := 0; rank < 4; rank++ {
		want := fmt.Sprintf("rank %d of 4", rank)
		if !strings.Contains(rr.Output, want) {
			t.Fatalf("output missing %q:\n%s", want, rr.Output)
		}
	}
	// Rank order is spliced deterministically.
	if i0, i1 := strings.Index(rr.Output, "rank 0"), strings.Index(rr.Output, "rank 3"); i0 > i1 {
		t.Fatalf("ranks out of order:\n%s", rr.Output)
	}
	if got := owner.srv.Stats().Counters[ctrSpanWorlds]; got != 1 {
		t.Fatalf("owner span.worlds = %d, want 1", got)
	}
	hosted := int64(0)
	for _, n := range nodes {
		if n != owner {
			hosted += n.srv.Stats().Counters[ctrWorkerRanks]
		}
	}
	if hosted == 0 {
		t.Fatal("no peer hosted a rank; world did not span the cluster")
	}
}

// A /worker body is refused with 400 before the rank listens or dials:
// serve.worker.ranks does not move.
func TestWorkerBodyRefusedBeforeHosting(t *testing.T) {
	node := startCluster(t, 1)[0]
	for _, body := range []string{
		`{"key":"hello.mpi","rank":0,"np":1000000000,"rendezvous":"127.0.0.1:1"}`,
		`{"key":"nope.mpi","rank":0,"np":2,"rendezvous":"127.0.0.1:1"}`,
		`{"key":"hello.mpi","rank":0,"np":2,"rendezvous":"127.0.0.1:1","params":{"n":4}}`,
		`{"key":"hello.mpi","rank":0,"np":2,"rendezvous":"127.0.0.1:1","toggles":{"nope":true}}`,
		`{"key":"hello.mpi","rank":2,"np":2,"rendezvous":"127.0.0.1:1"}`,
		`{"key":"hello.mpi","rank":0,"np":2}`,
		`{"key":"fast1.omp","rank":0,"np":2,"rendezvous":"127.0.0.1:1"}`,
		`{"key":"hello.mpi"} trailing`,
	} {
		resp, err := http.Post(node.url()+"/worker", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if got := node.srv.Stats().Counters[ctrWorkerRanks]; got != 0 {
		t.Fatalf("serve.worker.ranks = %d after refused bodies, want 0", got)
	}
}

// FuzzWorkerBody feeds arbitrary bytes to parseWorkerBody. No body may
// panic it, and a body it accepts must encode to JSON that it accepts
// again and that encodes the same.
func FuzzWorkerBody(f *testing.F) {
	for _, seed := range []string{
		`{"key":"hello.mpi","rank":1,"np":4,"rendezvous":"127.0.0.1:9","seed":7,"timeout_ms":50}`,
		`{"key":"hello.mpi","rank":0,"np":1000000000,"rendezvous":"127.0.0.1:9"}`,
		`{"key":"hello.mpi","rank":0,"np":2,"rendezvous":"x","params":{"n":4}}`,
		`{"key":"hello.mpi","rank":0,"np":2,"rendezvous":"x","toggles":{}}`,
		`{"key":"nope.mpi","rank":0,"np":2,"rendezvous":"x"}`,
		`{"key":"fast1.omp","rank":0,"np":2,"rendezvous":"x"}`,
		`{"key":"hello.mpi","rank":-1,"np":0}`,
		`{"key":7}`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	reg, _ := clusterRegistry(f)
	s := New(reg)
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, body []byte) {
		wreq, err := s.parseWorkerBody(body)
		if err != nil {
			return
		}
		enc, err := json.Marshal(wreq)
		if err != nil {
			t.Fatalf("accepted %q but cannot encode it: %v", body, err)
		}
		again, err := s.parseWorkerBody(enc)
		if err != nil {
			t.Fatalf("accepted %q but refused its encoding %s: %v", body, enc, err)
		}
		if enc2, _ := json.Marshal(again); string(enc2) != string(enc) {
			t.Fatalf("accepted %q: encoding %s decodes and re-encodes as %s", body, enc, enc2)
		}
	})
}

// distribute on a non-MPI patternlet or a single-node server is a 400,
// before admission.
func TestDistributeValidation(t *testing.T) {
	nodes := startCluster(t, 2)
	resp, _ := postJSON(t, nodes[0].url(), `{"key":"fast1.omp","distribute":true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("distribute omp: status %d, want 400", resp.StatusCode)
	}

	reg, _ := testRegistry(t)
	single := New(reg)
	defer single.Shutdown(context.Background())
	w := httptest.NewRecorder()
	single.handleRun(w, httptest.NewRequest(http.MethodPost, "/run",
		strings.NewReader(`{"key":"fast.omp","distribute":true}`)))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("single-node distribute: status %d, want 400", w.Code)
	}
}

// Single-node servers keep the PR 5 wire format exactly: no node field
// in /run replies, no ring section in /healthz.
func TestSingleNodeResponsesHaveNoClusterFields(t *testing.T) {
	reg, _ := testRegistry(t)
	s := New(reg)
	defer s.Shutdown(context.Background())

	w := httptest.NewRecorder()
	s.handleRun(w, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(`{"key":"fast.omp"}`)))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if strings.Contains(w.Body.String(), `"node"`) {
		t.Fatalf("single-node /run reply leaks a node field: %s", w.Body.String())
	}

	w = httptest.NewRecorder()
	s.handleHealthz(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if strings.Contains(w.Body.String(), `"ring"`) {
		t.Fatalf("single-node /healthz leaks a ring section: %s", w.Body.String())
	}
}

// Concurrent forwards racing a node death must stay safe and converge:
// all requests eventually succeed on survivors (run under -race).
func TestConcurrentForwardsDuringNodeDeath(t *testing.T) {
	nodes := startCluster(t, 3)
	dead := nodes[2]
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("fast%d.omp", i)
			resp, err := http.Post(nodes[0].url()+"/run", "application/json",
				strings.NewReader(fmt.Sprintf(`{"key":%q}`, key)))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("key %s: status %d", key, resp.StatusCode)
			}
		}(i)
		if i == 5 {
			dead.kill()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A span whose context expires mid-flight must not declare the worker's
// host dead: every in-flight /worker POST fails with the span's own ctx
// error, which says nothing about the peers' health.
func TestSpanCancellationDoesNotMarkPeerDown(t *testing.T) {
	blackLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blackLn.Close()
	hang := make(chan struct{})
	defer close(hang)
	blackSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hang
	})}
	go blackSrv.Serve(blackLn)
	defer blackSrv.Close()

	reg, _ := clusterRegistry(t)
	srv := New(reg, WithCluster(ClusterConfig{
		Self:  "n1",
		Peers: map[string]string{"n1": "127.0.0.1:1", "nb": blackLn.Addr().String()},
	}))
	defer srv.Shutdown(context.Background())
	x := srv.sharded

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = x.remoteRank(ctx, "nb", "hello.mpi", 1, 2, "127.0.0.1:9", core.RunOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the span's deadline", err)
	}
	var pd *peerDownError
	if errors.As(err, &pd) {
		t.Fatalf("the span's own cancellation surfaced as peer death: %v", err)
	}
	if !x.live("nb") || !x.ring.Has("nb") {
		t.Fatal("healthy peer marked down by the span's own cancellation")
	}
}

// A peer fronted by something that answers non-JSON (an intermediary's
// 502 page, a truncated body) delivered a definitive HTTP status: the
// forward fails as an application error, without retries and without
// rehashing a live member off the ring.
func TestMalformedPeerReplyIsDefinitive(t *testing.T) {
	garbLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer garbLn.Close()
	garbSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprint(w, "<html>502 Bad Gateway</html>")
	})}
	go garbSrv.Serve(garbLn)
	defer garbSrv.Close()

	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln1.Close()
	table := map[string]string{"n1": ln1.Addr().String(), "ng": garbLn.Addr().String()}
	reg, _ := clusterRegistry(t)
	srv := New(reg, WithCluster(ClusterConfig{
		Self: "n1", Peers: table,
		ForwardAttempts: 3, ForwardBackoff: 2 * time.Millisecond,
	}))
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln1)
	defer hs.Close()
	defer srv.Shutdown(context.Background())

	key := ""
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("fast%d.omp", i)
		if srv.sharded.ring.Owner(k) == "ng" {
			key = k
			break
		}
	}
	if key == "" {
		t.Skip("garbage node owns none of the test keys")
	}
	resp, rr := postJSON(t, "http://"+ln1.Addr().String(), fmt.Sprintf(`{"key":%q}`, key))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(rr.Error, "malformed reply") {
		t.Fatalf("error = %q, want a malformed-reply error", rr.Error)
	}
	if !srv.sharded.ring.Has("ng") {
		t.Fatal("live peer rehashed off the ring over a malformed reply")
	}
	if got := srv.Stats().Counters[ctrForwardRetry]; got != 0 {
		t.Fatalf("retry counter = %d, want 0 (definitive answers are not retried)", got)
	}
	if got := srv.Stats().Counters[ctrRehash]; got != 0 {
		t.Fatalf("rehash counter = %d, want 0", got)
	}
}

// A marked-down member that comes back is re-probed onto the ring: the
// exile is a liveness belief, not a permanent sentence, and the vnode
// positions being deterministic means it reclaims exactly its old keys.
func TestMarkedDownPeerRecoversViaProbe(t *testing.T) {
	// Reserve an address for n2, then free it so the probe is refused
	// while n2 is "down".
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2 := ln2.Addr().String()
	ln2.Close()

	reg, _ := clusterRegistry(t)
	srv := New(reg, WithCluster(ClusterConfig{
		Self:          "n1",
		Peers:         map[string]string{"n1": "127.0.0.1:1", "n2": addr2},
		ProbeInterval: 20 * time.Millisecond,
	}))
	defer srv.Shutdown(context.Background())
	x := srv.sharded

	x.markDown("n2")
	if x.live("n2") || x.ring.Has("n2") {
		t.Fatal("markDown did not take")
	}

	// While the address refuses connections the probe must not revive it.
	time.Sleep(80 * time.Millisecond)
	if x.live("n2") {
		t.Fatal("probe revived a peer that is still refusing connections")
	}

	// n2 restarts: its address answers /healthz 200 again.
	ln2b, err := net.Listen("tcp", addr2)
	if err != nil {
		t.Skipf("could not rebind %s after releasing it: %v", addr2, err)
	}
	defer ln2b.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	hs2 := &http.Server{Handler: mux}
	go hs2.Serve(ln2b)
	defer hs2.Close()

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if x.live("n2") && x.ring.Has("n2") {
			if got := srv.Stats().Counters[ctrRecovered]; got < 1 {
				t.Fatalf("recovered counter = %d, want >= 1", got)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("marked-down peer never recovered after coming back")
}

// A forwarded trace=true run's trace link works against the node the
// client contacted: ids are node-qualified, the forwarder remembers who
// retained the bytes, and GET /trace/{id} proxies there.
func TestForwardedTraceProxiedFromOrigin(t *testing.T) {
	nodes := startCluster(t, 3)
	const key = "fast2.omp"
	owner, origin := ownerOf(nodes, key), nonOwnerOf(nodes, key)
	if owner == nil || origin == nil || owner == origin {
		t.Fatalf("placement: owner=%v origin=%v", owner, origin)
	}

	resp, rr := postJSON(t, origin.url(), fmt.Sprintf(`{"key":%q,"trace":true}`, key))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (error %q)", resp.StatusCode, rr.Error)
	}
	if rr.TraceID == "" {
		t.Fatal("trace=true produced no trace id")
	}
	if !strings.HasPrefix(rr.TraceID, owner.id+"-") {
		t.Fatalf("trace id %q not qualified by executing node %s", rr.TraceID, owner.id)
	}

	fetch := func(base string) (*http.Response, error) {
		return http.Get(base + "/trace/" + rr.TraceID)
	}
	for _, n := range []*testNode{origin, owner} {
		got, err := fetch(n.url())
		if err != nil {
			t.Fatal(err)
		}
		var chrome struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if got.StatusCode != http.StatusOK {
			got.Body.Close()
			t.Fatalf("GET /trace on %s: status %d, want 200", n.id, got.StatusCode)
		}
		if err := json.NewDecoder(got.Body).Decode(&chrome); err != nil {
			t.Fatal(err)
		}
		got.Body.Close()
		if len(chrome.TraceEvents) == 0 {
			t.Fatalf("trace via %s has no events", n.id)
		}
	}

	// A member that never saw the run has no pointer to relay.
	for _, n := range nodes {
		if n == owner || n == origin {
			continue
		}
		got, err := fetch(n.url())
		if err != nil {
			t.Fatal(err)
		}
		got.Body.Close()
		if got.StatusCode != http.StatusNotFound {
			t.Fatalf("uninvolved member %s: status %d, want 404", n.id, got.StatusCode)
		}
	}
}

// advertiseHost extracts the bindable host from a peer-table entry and
// falls back to loopback (empty) on wildcards and garbage.
func TestAdvertiseHost(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:7101": "127.0.0.1",
		"nodeA:80":       "nodeA",
		"[::1]:9":        "::1",
		":8080":          "",
		"0.0.0.0:8080":   "",
		"[::]:8080":      "",
		"garbage":        "",
	}
	for in, want := range cases {
		if got := advertiseHost(in); got != want {
			t.Errorf("advertiseHost(%q) = %q, want %q", in, got, want)
		}
	}
}
