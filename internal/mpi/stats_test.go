package mpi

import (
	"testing"
	"time"
)

// Comm.Stats: per-communicator traffic accounting at mpi's send and
// receive sites. Counters are read after Run returns — they outlive the
// transport — via a *Comm captured from inside the body.

// captureComm returns the communicator rank 0 saw, for post-Run Stats
// reads. All ranks share the world's counters, so one handle suffices.
func captureComm(t *testing.T, np int, body func(c *Comm) error, opts ...Option) *Comm {
	t.Helper()
	var captured *Comm
	err := Run(np, func(c *Comm) error {
		if c.Rank() == 0 {
			captured = c
		}
		return body(c)
	}, append(opts, WithRecvTimeout(collGuard))...)
	if err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("rank 0 never ran")
	}
	return captured
}

// A binomial broadcast over 8 ranks must put exactly 7 messages on the
// wire — each non-root receives the frame exactly once.
func TestBinomialBcastNp8SendsExactlySeven(t *testing.T) {
	c := captureComm(t, 8, func(c *Comm) error {
		_, err := Bcast(c, 42, 0)
		return err
	}, WithCollectiveAlgorithm(CollBcast, AlgoBinomial))
	st := c.Stats()
	if st.Sends != 7 {
		t.Fatalf("binomial bcast np=8: %d sends, want 7", st.Sends)
	}
	if st.Recvs != 7 {
		t.Fatalf("binomial bcast np=8: %d recvs, want 7", st.Recvs)
	}
}

// The same program must report identical message counts whether the world
// runs over in-process channels or loopback TCP: counting happens at mpi's
// send and receive sites, above the transport.
func TestStatsIdenticalAcrossTransports(t *testing.T) {
	script := func(c *Comm) error {
		if err := Barrier(c); err != nil {
			return err
		}
		if _, err := Bcast(c, []int{1, 2, 3}, 0); err != nil {
			return err
		}
		if _, err := Reduce(c, c.Rank(), Sum[int](), 0); err != nil {
			return err
		}
		if _, err := Allgather(c, []int{c.Rank()}); err != nil {
			return err
		}
		if _, err := Scan(c, c.Rank(), Sum[int]()); err != nil {
			return err
		}
		_, err := Alltoall(c, []int{c.Rank(), c.Rank() + 1, c.Rank() + 2, c.Rank() + 3})
		return err
	}
	chanStats := captureComm(t, 4, script).Stats()
	tcpStats := captureComm(t, 4, script, WithTCP()).Stats()

	if chanStats.Sends == 0 {
		t.Fatal("no traffic recorded")
	}
	if chanStats.Sends != tcpStats.Sends || chanStats.Recvs != tcpStats.Recvs {
		t.Errorf("message counts differ: chan %d/%d, tcp %d/%d",
			chanStats.Sends, chanStats.Recvs, tcpStats.Sends, tcpStats.Recvs)
	}
	if chanStats.BytesSent != tcpStats.BytesSent || chanStats.BytesRecvd != tcpStats.BytesRecvd {
		t.Errorf("byte counts differ: chan %d/%d, tcp %d/%d",
			chanStats.BytesSent, chanStats.BytesRecvd, tcpStats.BytesSent, tcpStats.BytesRecvd)
	}
	if len(chanStats.PeerSends) != len(tcpStats.PeerSends) {
		t.Fatalf("peer maps differ: chan %v, tcp %v", chanStats.PeerSends, tcpStats.PeerSends)
	}
	for peer, n := range chanStats.PeerSends {
		if tcpStats.PeerSends[peer] != n {
			t.Errorf("peer %d: chan %d sends, tcp %d", peer, n, tcpStats.PeerSends[peer])
		}
	}
	// Collectives fully drain their traffic: every send is received.
	if chanStats.Sends != chanStats.Recvs {
		t.Errorf("sends %d != recvs %d", chanStats.Sends, chanStats.Recvs)
	}
}

// Per-peer send counts expose the schedule's shape: a linear reduce lands
// everything on the root, the binomial tree spreads fan-in over interior
// nodes.
func TestStatsPerPeerCountsReflectAlgorithm(t *testing.T) {
	reduce := func(c *Comm) error {
		_, err := Reduce(c, c.Rank(), Sum[int](), 0)
		return err
	}
	lin := captureComm(t, 4, reduce, WithCollectiveAlgorithm(CollReduce, AlgoLinear)).Stats()
	if lin.Sends != 3 || lin.PeerSends[0] != 3 {
		t.Errorf("linear reduce np=4: sends=%d peers=%v, want all 3 at root", lin.Sends, lin.PeerSends)
	}
	bin := captureComm(t, 4, reduce, WithCollectiveAlgorithm(CollReduce, AlgoBinomial)).Stats()
	// Tree: 1->0 and 3->2 in round one, 2->0 in round two.
	if bin.Sends != 3 || bin.PeerSends[0] != 2 || bin.PeerSends[2] != 1 {
		t.Errorf("binomial reduce np=4: sends=%d peers=%v, want {0:2, 2:1}", bin.Sends, bin.PeerSends)
	}
}

// Split communicators account separately: traffic on a subcommunicator
// never bleeds into the parent's counters.
func TestStatsPerCommIsolation(t *testing.T) {
	var world, sub *Comm
	err := Run(4, func(c *Comm) error {
		child, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			world, sub = c, child
		}
		// Parent traffic done (the Split's allgather); now only the
		// subcommunicators talk.
		for i := 0; i < 3; i++ {
			if _, err := Allreduce(child, c.Rank(), Sum[int]()); err != nil {
				return err
			}
		}
		return nil
	}, WithRecvTimeout(collGuard))
	if err != nil {
		t.Fatal(err)
	}

	ws, ss := world.Stats(), sub.Stats()
	if ws.Sends == 0 {
		t.Fatal("split produced no parent traffic")
	}
	if ss.Sends == 0 {
		t.Fatal("subcomm allreduce produced no traffic")
	}
	// The even and odd subcomms derive distinct ids, and both differ from
	// the parent: equal send/recv totals within each scope confirm no
	// cross-attribution.
	if ws.Recvs != ws.Sends || ss.Recvs != ss.Sends {
		t.Errorf("unbalanced per-comm counters: world %d/%d, sub %d/%d",
			ws.Sends, ws.Recvs, ss.Sends, ss.Recvs)
	}
}

// Stats compose with the latency middleware and the TCP transport:
// counting happens above every transport layer.
func TestStatsWithLatencyOverTCP(t *testing.T) {
	start := time.Now()
	c := captureComm(t, 2, func(c *Comm) error {
		return Barrier(c)
	}, WithTCP(), WithLatency(5*time.Millisecond))
	if c.Stats().Sends == 0 {
		t.Fatal("no traffic recorded through latency middleware")
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("latency not applied over TCP: run took %v", elapsed)
	}
}
