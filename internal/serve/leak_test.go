package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// waitGoroutines polls for up to a second until the goroutine count is
// back at base, and fails with a full dump if it never gets there.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after shutdown, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// New, one run and Shutdown must leave no goroutine behind: not the
// worker pool, not the peer prober, not an idle forwarding connection.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	ctx := context.Background()
	t.Run("single-node", func(t *testing.T) {
		base := runtime.NumGoroutine()
		reg, _ := testRegistry(t)
		s := New(reg)
		if _, err := s.Execute(ctx, "fast.omp", core.RunOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
	})
	// The store's writer goroutine starts in Open and is joined by Close,
	// both inside the window.
	t.Run("store", func(t *testing.T) {
		reg, _, _ := cacheRegistry(t)
		base := runtime.NumGoroutine()
		st := openStore(t, t.TempDir())
		s := New(reg, WithStore(st))
		for i := 0; i < 2; i++ { // a miss, then a hit
			if _, err := s.Execute(ctx, "det.omp", core.RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
	})
	t.Run("two-member-cluster", func(t *testing.T) {
		base := runtime.NumGoroutine()
		table := map[string]string{}
		lns := map[string]net.Listener{}
		for _, id := range []string{"n1", "n2"} {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			lns[id], table[id] = ln, ln.Addr().String()
		}
		nodes := map[string]*Server{}
		var hss []*http.Server
		for id, ln := range lns {
			reg, _ := clusterRegistry(t)
			nodes[id] = New(reg, WithCluster(ClusterConfig{Self: id, Peers: table}))
			hs := &http.Server{Handler: nodes[id].Handler()}
			hss = append(hss, hs)
			go hs.Serve(ln)
		}
		// Run a key n2 owns through n1, so the run crosses a forward.
		key := ""
		for i := 0; key == ""; i++ {
			if k := fmt.Sprintf("fast%d.omp", i); nodes["n1"].sharded.ring.Owner(k) == "n2" {
				key = k
			}
		}
		out, err := nodes["n1"].Executor().Execute(ctx, ExecRequest{Key: key})
		if err != nil || out.Node != "n2" {
			t.Fatalf("forwarded run = (node %q, %v), want node n2", out.Node, err)
		}
		for _, s := range nodes {
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for _, hs := range hss {
			hs.Close()
		}
		waitGoroutines(t, base)
	})
}
