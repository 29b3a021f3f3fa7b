package cluster

import (
	"errors"
	"net"
	"sync"
	"testing"
)

// newRemoteWorld builds np RemoteTransports sharing an address table, each
// playing one rank. In production each lives in its own OS process; the
// transport cannot tell the difference, since all traffic crosses TCP.
func newRemoteWorld(t *testing.T, np int) []*RemoteTransport {
	t.Helper()
	listeners := make([]net.Listener, np)
	addrs := make([]string, np)
	for i := 0; i < np; i++ {
		ln, err := ListenLoopback()
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*RemoteTransport, np)
	for i := 0; i < np; i++ {
		tr, err := NewRemoteTransport(i, np, addrs, listeners[i])
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	})
	return trs
}

func TestRemoteTransportSendRecv(t *testing.T) {
	trs := newRemoteWorld(t, 3)
	if err := trs[0].Send(2, Message{Src: 0, Tag: 5, Payload: []byte("over the wire")}); err != nil {
		t.Fatal(err)
	}
	m, err := trs[2].Recv(2, anyMsg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Src != 0 || m.Tag != 5 || string(m.Payload) != "over the wire" {
		t.Fatalf("got %+v", m)
	}
}

func TestRemoteTransportSelfSendStaysLocal(t *testing.T) {
	trs := newRemoteWorld(t, 2)
	if err := trs[1].Send(1, Message{Src: 1, Tag: 0, Payload: []byte("self")}); err != nil {
		t.Fatal(err)
	}
	m, err := trs[1].Recv(1, anyMsg, 0)
	if err != nil || string(m.Payload) != "self" {
		t.Fatalf("self-send: (%+v, %v)", m, err)
	}
}

func TestRemoteTransportRejectsForeignRankRecv(t *testing.T) {
	trs := newRemoteWorld(t, 2)
	if _, err := trs[0].Recv(1, anyMsg, 0); err == nil {
		t.Fatal("receiving for a rank this process does not host succeeded")
	}
	if _, err := trs[0].Probe(1, anyMsg, 0); err == nil {
		t.Fatal("probing a foreign rank succeeded")
	}
}

func TestRemoteTransportValidation(t *testing.T) {
	ln, err := ListenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := NewRemoteTransport(5, 2, []string{"a", "b"}, ln); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := NewRemoteTransport(0, 2, []string{"a"}, ln); err == nil {
		t.Fatal("short address table accepted")
	}
}

func TestRemoteTransportBadDestination(t *testing.T) {
	trs := newRemoteWorld(t, 2)
	var re *RankError
	if err := trs[0].Send(7, Message{Src: 0}); !errors.As(err, &re) {
		t.Fatalf("Send(7) err = %v", err)
	}
}

func TestRemoteTransportNonOvertaking(t *testing.T) {
	trs := newRemoteWorld(t, 2)
	const n = 100
	for i := 0; i < n; i++ {
		if err := trs[0].Send(1, Message{Src: 0, Tag: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m, err := trs[1].Recv(1, anyMsg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if m.Payload[0] != byte(i) {
			t.Fatalf("message %d overtaken (got %d)", i, m.Payload[0])
		}
	}
}

func TestRemoteTransportConcurrentAllToOne(t *testing.T) {
	const np, per = 4, 30
	trs := newRemoteWorld(t, np)
	var wg sync.WaitGroup
	for src := 1; src < np; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := trs[src].Send(0, Message{Src: src, Tag: i}); err != nil {
					t.Errorf("send from %d: %v", src, err)
					return
				}
			}
		}(src)
	}
	wg.Wait()
	counts := map[int]int{}
	for i := 0; i < (np-1)*per; i++ {
		m, err := trs[0].Recv(0, anyMsg, 0)
		if err != nil {
			t.Fatal(err)
		}
		counts[m.Src]++
	}
	for src := 1; src < np; src++ {
		if counts[src] != per {
			t.Fatalf("src %d: %d messages", src, counts[src])
		}
	}
}

func TestRemoteTransportCloseUnblocks(t *testing.T) {
	trs := newRemoteWorld(t, 2)
	errCh := make(chan error, 1)
	go func() {
		_, err := trs[0].Recv(0, anyMsg, 0)
		errCh <- err
	}()
	_ = trs[0].Close()
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := trs[0].Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestRemoteTransportAccessors(t *testing.T) {
	trs := newRemoteWorld(t, 2)
	if trs[1].Rank() != 1 {
		t.Fatalf("Rank = %d", trs[1].Rank())
	}
	if len(trs[0].Addrs()) != 2 {
		t.Fatalf("Addrs = %v", trs[0].Addrs())
	}
}

// Close must serialize with an in-flight dial: dial holds connMu for the
// whole TCP connect, so a concurrent Close either waits out the dial and
// closes the fresh conn, or wins and makes the dial observe closure.
// Hammer lazy-dialing Sends against Close under the race detector, then
// pin the post-Close invariant: a dial to a peer that was never connected
// reports ErrClosed instead of opening a new socket on a dead transport.
func TestRemoteTransportCloseWhileDialing(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		trs := newRemoteWorld(t, 4)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				// Ranks 1 and 2 get dialed during the race; rank 3 never is.
				to := 1 + g%2
				_ = trs[0].Send(to, Message{Src: 0, Tag: g, Payload: []byte("racing close")})
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_ = trs[0].Close()
		}()
		close(start)
		wg.Wait()

		if err := trs[0].Send(3, Message{Src: 0, Tag: 99}); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: send after close to undialed rank: err = %v, want ErrClosed", iter, err)
		}
	}
}
