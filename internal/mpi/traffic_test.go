package mpi

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/wirecodec"
)

// Traffic accounting at the runtime's send and receive sites: per
// communicator, per peer, into telemetry at world end, and never
// allocating on the message path.

// encodedLen is the payload size of v on the wire.
func encodedLen[T any](t *testing.T, v T) uint64 {
	t.Helper()
	b, err := encode(v)
	if err != nil {
		t.Fatal(err)
	}
	defer wirecodec.Put(b)
	return uint64(len(b))
}

// twoCommTraffic builds a 3-rank world over a chan transport with a
// telemetry collector and moves messages on two communicators. World: 0
// sends 1234 twice to 1 and once to 2. Communicator 9 holds world ranks 1
// and 2 as ranks 0 and 1; world 2 sends "xy" once to world 1. World rank
// 1 receives all three of its messages; the one to rank 2 stays queued.
// It returns the world, its collector and world ranks 0 and 1 of both
// communicators.
func twoCommTraffic(t *testing.T) (w *world, col *telemetry.Collector, r0, r1, s1, s2 *Comm) {
	t.Helper()
	tr := cluster.NewChanTransport(3)
	t.Cleanup(func() { tr.Close() })
	w, err := newWorld(3, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	col = telemetry.New()
	w.tele, w.codecBase = col, codecSnapshot()
	r0, r1 = newWorldComm(w, 0), newWorldComm(w, 1)
	s1, s2 = newComm(w, 9, 0, []int{1, 2}), newComm(w, 9, 1, []int{1, 2})

	for _, dest := range []int{1, 1, 2} {
		if err := sendRaw(r0, 1234, dest, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sendRaw(s2, "xy", 0, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := recvRaw[int](r1, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := recvRaw[string](s1, 1, 4); err != nil {
		t.Fatal(err)
	}
	return w, col, r0, r1, s1, s2
}

// Each communicator counts only its own traffic, broken down by peer
// world rank in both directions.
func TestStatsPerCommPeerBreakdown(t *testing.T) {
	w, _, r0, r1, s1, _ := twoCommTraffic(t)
	n, s := encodedLen(t, 1234), encodedLen(t, "xy")
	ws := r0.Stats()
	if ws.Sends != 3 || ws.BytesSent != 3*n || ws.Recvs != 2 || ws.BytesRecvd != 2*n {
		t.Errorf("world sends/bytes/recvs/bytes = %d/%d/%d/%d, want 3/%d/2/%d",
			ws.Sends, ws.BytesSent, ws.Recvs, ws.BytesRecvd, 3*n, 2*n)
	}
	if len(ws.PeerSends) != 2 || ws.PeerSends[1] != 2 || ws.PeerSends[2] != 1 {
		t.Errorf("world PeerSends = %v, want map[1:2 2:1]", ws.PeerSends)
	}
	if len(ws.PeerRecvs) != 1 || ws.PeerRecvs[0] != 2 {
		t.Errorf("world PeerRecvs = %v, want map[0:2]", ws.PeerRecvs)
	}
	// Every rank of a communicator reads the same shared counters.
	if r1.Stats().Sends != 3 {
		t.Errorf("rank 1 sees %d world sends, want 3", r1.Stats().Sends)
	}
	ss := s1.Stats()
	if ss.Sends != 1 || ss.BytesSent != s || ss.Recvs != 1 || ss.BytesRecvd != s {
		t.Errorf("comm 9 stats = %+v", ss)
	}
	if len(ss.PeerSends) != 1 || ss.PeerSends[1] != 1 || len(ss.PeerRecvs) != 1 || ss.PeerRecvs[2] != 1 {
		t.Errorf("comm 9 peers: sends %v recvs %v, want map[1:1] and map[2:1]", ss.PeerSends, ss.PeerRecvs)
	}
	unseen := newComm(w, 42, 0, []int{0}).Stats()
	if unseen.Sends != 0 || unseen.Recvs != 0 || unseen.PeerSends == nil || unseen.PeerRecvs == nil {
		t.Errorf("a silent communicator must report zeroes with both maps set, got %+v", unseen)
	}
}

// The world-end fold sums every communicator's traffic under the
// cluster.* telemetry names.
func TestStatsFoldIntoClusterNames(t *testing.T) {
	w, col, _, _, _, _ := twoCommTraffic(t)
	n, s := encodedLen(t, 1234), encodedLen(t, "xy")
	w.fold()
	snap := col.Counters().Snapshot()
	for name, v := range map[string]int64{
		"cluster.sends": 4, "cluster.recvs": 3,
		"cluster.bytes_sent": int64(3*n + s), "cluster.bytes_recvd": int64(2*n + s),
	} {
		if snap[name] != v {
			t.Errorf("%s = %d, want %d", name, snap[name], v)
		}
	}
}

// A send the transport refuses is not traffic.
func TestStatsSkipFailedSend(t *testing.T) {
	fi := cluster.NewFaultInjector(cluster.NewChanTransport(2))
	fi.FailSend(2, nil)
	c := captureComm(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			_, _, err := Recv[int](c, 0, 0)
			return err
		}
		if err := Send(c, 1, 1, 0); err != nil {
			return err
		}
		if err := Send(c, 2, 1, 0); !errors.Is(err, cluster.ErrInjected) {
			return errors.New("second send was not refused")
		}
		return nil
	}, WithTransport(fi))
	if st := c.Stats(); st.Sends != 1 || st.Recvs != 1 || len(st.PeerSends) != 1 {
		t.Fatalf("stats = %+v, want one send and one receive (the failed send excluded)", st)
	}
	if fi.SendCount() != 2 {
		t.Fatalf("injector saw %d sends, want 2", fi.SendCount())
	}
}

// rawFrame writes one transport frame by hand in the cluster wire format
// ([4B LE length][1B meta length][zigzag varints dst, src, tag, comm]
// [payload]) — a frame no well-behaved sender would write.
func rawFrame(b []byte, dst, src, tag, comm int, payload []byte) []byte {
	var meta []byte
	for _, v := range []int{dst, src, tag, comm} {
		meta = wirecodec.AppendVarint(meta, int64(v))
	}
	b = wirecodec.AppendUint32(b, uint32(1+len(meta)+len(payload)))
	b = append(b, byte(len(meta)))
	return append(append(b, meta...), payload...)
}

// A RemoteTransport counts and drops frames from sources outside the
// world, as it does frames addressed to another rank: both surface in
// telemetry as cluster.misrouted_frames and neither reaches a receive.
func TestRemoteFramesWithBadRanksAreCounted(t *testing.T) {
	const np = 2
	ln, err := cluster.ListenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 is never dialed; the address only fills the table.
	tr, err := cluster.NewRemoteTransport(0, np, []string{ln.Addr().String(), "127.0.0.1:1"}, ln)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad, err := encode(7)
	if err != nil {
		t.Fatal(err)
	}
	good, err := encode(8)
	if err != nil {
		t.Fatal(err)
	}
	// The read loop handles frames in order, so once the valid frame
	// from rank 1 arrives the three bad frames before it have been
	// counted and dropped.
	wire := rawFrame(nil, 7, 0, 5, 0, bad)
	for _, src := range []int{-1, np + 3} {
		wire = rawFrame(wire, 0, src, 5, 0, bad)
	}
	wire = rawFrame(wire, 0, 1, 5, 0, good)
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}

	col := telemetry.New()
	telemetry.Enable(col)
	defer telemetry.Disable()
	var st TrafficStats
	err = RunWorker(0, np, tr, func(c *Comm) error {
		v, status, err := Recv[int](c, AnySource, 5)
		if err != nil {
			return err
		}
		if v != 8 || status.Source != 1 {
			t.Errorf("got %d from comm rank %d, want 8 from 1", v, status.Source)
		}
		st = c.Stats()
		return nil
	}, WithRecvTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if m, err := tr.Recv(0, cluster.MatchAny(), 10*time.Millisecond); !errors.Is(err, cluster.ErrTimeout) {
		t.Errorf("a bad frame was delivered: %+v, %v", m, err)
	}
	if st.Recvs != 1 || st.BytesRecvd != uint64(len(good)) || st.PeerRecvs[1] != 1 {
		t.Errorf("stats = %+v, want one receive from rank 1", st)
	}
	snap := col.Counters().Snapshot()
	if snap["cluster.recvs"] != 1 || snap["cluster.misrouted_frames"] != 3 {
		t.Errorf("cluster.recvs = %d, cluster.misrouted_frames = %d, want 1 and 3",
			snap["cluster.recvs"], snap["cluster.misrouted_frames"])
	}
}

// Probe waits under the same deadline as a receive. The watchdog fails
// the test instead of hanging the suite when it does not.
func TestProbeHonorsRecvTimeout(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				_, err := Probe(c, 1, 0)
				return err
			}
			return nil
		}, WithRecvTimeout(100*time.Millisecond))
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("Probe of a silent source: %v, want ErrDeadlock", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Probe ignored WithRecvTimeout: still blocked after 5s")
	}
}

// Counting a message allocates nothing, even for the first message to
// each peer on a new communicator. A 4-rank world that sends one small
// message from rank 0 to each other rank is compared with the same world
// without those messages, on the world communicator and on a split one.
// The messages may still cost a receiver's mailbox queue a grow (a fresh
// world's queues are empty; in the split world, rank 0's message can land
// before the receiver has taken the Split's last frame), so the bound is
// two allocations per message. Per-peer counters built on first use cost
// more than ten per message.
func TestTrafficAccountingAllocatesNothingPerPeer(t *testing.T) {
	const msgs, perMsg = 3, 2
	fanOut := func(c *Comm) error {
		if c.Rank() == 0 {
			for r := 1; r < c.Size(); r++ {
				if err := Send(c, r, r, 0); err != nil {
					return err
				}
			}
			return nil
		}
		_, _, err := Recv[int](c, 0, 0)
		return err
	}
	split := func(c *Comm) (*Comm, error) { return c.Split(0, c.Rank()) }
	cases := []struct {
		name       string
		idle, busy func(c *Comm) error
	}{
		{"world", func(*Comm) error { return nil }, fanOut},
		{"split", func(c *Comm) error { _, err := split(c); return err }, func(c *Comm) error {
			sub, err := split(c)
			if err != nil {
				return err
			}
			return fanOut(sub)
		}},
	}
	for _, tc := range cases {
		allocs := func(body func(c *Comm) error) float64 {
			return testing.AllocsPerRun(50, func() {
				if err := Run(msgs+1, body); err != nil {
					t.Fatal(err)
				}
			})
		}
		idle, busy := allocs(tc.idle), allocs(tc.busy)
		t.Logf("%s: %.0f allocations per run idle, %.0f with %d messages", tc.name, idle, busy, msgs)
		if busy-idle > msgs*perMsg {
			t.Errorf("%s: %d messages cost %.0f allocations, want <= %d",
				tc.name, msgs, busy-idle, msgs*perMsg)
		}
	}
}
