package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestNewClusterNames(t *testing.T) {
	c := New(4)
	want := []string{"node-01", "node-02", "node-03", "node-04"}
	got := c.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if c.Size() != 4 {
		t.Fatalf("Size = %d", c.Size())
	}
}

func TestClusterClampsToOneNode(t *testing.T) {
	for _, n := range []int{0, -3} {
		c := New(n)
		if c.Size() != 1 || c.NodeFor(0).Name != "node-01" {
			t.Fatalf("New(%d) = %v", n, c.Names())
		}
	}
}

func TestNodeForRoundRobin(t *testing.T) {
	c := New(3)
	cases := map[int]string{0: "node-01", 1: "node-02", 2: "node-03", 3: "node-01", 7: "node-02"}
	for rank, want := range cases {
		if got := c.NodeFor(rank).Name; got != want {
			t.Errorf("NodeFor(%d) = %q, want %q", rank, got, want)
		}
	}
	if c.NodeFor(-1).Name != "node-01" {
		t.Error("negative rank should clamp to the first node")
	}
}

func TestTwoDigitNodeNamesPadded(t *testing.T) {
	c := New(12)
	if c.NodeFor(9).Name != "node-10" || c.NodeFor(0).Name != "node-01" {
		t.Fatalf("padding wrong: %v", c.Names())
	}
}

// transportCases runs a subtest against both transports.
func transportCases(t *testing.T, f func(t *testing.T, tr Transport)) {
	t.Helper()
	t.Run("chan", func(t *testing.T) {
		tr := NewChanTransport(4)
		defer tr.Close()
		f(t, tr)
	})
	t.Run("tcp", func(t *testing.T) {
		tr, err := NewTCPTransport(4)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		f(t, tr)
	})
}

var anyMsg = MatchAny()

func TestTransportSendRecv(t *testing.T) {
	transportCases(t, func(t *testing.T, tr Transport) {
		msg := Message{Src: 0, Tag: 7, Comm: 0, Payload: []byte("hello")}
		if err := tr.Send(2, msg); err != nil {
			t.Fatal(err)
		}
		got, err := tr.Recv(2, anyMsg, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Src != 0 || got.Tag != 7 || string(got.Payload) != "hello" {
			t.Fatalf("got %+v", got)
		}
	})
}

// TestTransportNonOvertaking: messages from one sender with one tag arrive
// in send order.
func TestTransportNonOvertaking(t *testing.T) {
	transportCases(t, func(t *testing.T, tr Transport) {
		const n = 200
		for i := 0; i < n; i++ {
			if err := tr.Send(1, Message{Src: 0, Tag: 5, Payload: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			m, err := tr.Recv(1, anyMsg, 0)
			if err != nil {
				t.Fatal(err)
			}
			if m.Payload[0] != byte(i) {
				t.Fatalf("message %d arrived out of order (payload %d)", i, m.Payload[0])
			}
		}
	})
}

// TestTransportSelectiveMatch: a receive for tag B skips an earlier tag-A
// message, which a later receive still finds.
func TestTransportSelectiveMatch(t *testing.T) {
	transportCases(t, func(t *testing.T, tr Transport) {
		if err := tr.Send(1, Message{Src: 0, Tag: 1, Payload: []byte("A")}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(1, Message{Src: 0, Tag: 2, Payload: []byte("B")}); err != nil {
			t.Fatal(err)
		}
		b, err := tr.Recv(1, Match{Comm: AnyComm, Src: AnySrc, Tag: 2}, 0)
		if err != nil || string(b.Payload) != "B" {
			t.Fatalf("tag-2 recv = (%v, %v)", b, err)
		}
		a, err := tr.Recv(1, Match{Comm: AnyComm, Src: AnySrc, Tag: 1}, 0)
		if err != nil || string(a.Payload) != "A" {
			t.Fatalf("tag-1 recv = (%v, %v)", a, err)
		}
	})
}

func TestTransportProbeLeavesMessage(t *testing.T) {
	transportCases(t, func(t *testing.T, tr Transport) {
		if err := tr.Send(3, Message{Src: 1, Tag: 9, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		p, err := tr.Probe(3, anyMsg, 0)
		if err != nil || p.Tag != 9 {
			t.Fatalf("Probe = (%+v, %v)", p, err)
		}
		// The message must still be receivable.
		m, err := tr.Recv(3, anyMsg, 0)
		if err != nil || string(m.Payload) != "x" {
			t.Fatalf("Recv after Probe = (%+v, %v)", m, err)
		}
	})
}

func TestTransportRecvTimeout(t *testing.T) {
	transportCases(t, func(t *testing.T, tr Transport) {
		start := time.Now()
		_, err := tr.Recv(0, anyMsg, 30*time.Millisecond)
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
		if time.Since(start) < 25*time.Millisecond {
			t.Fatal("timed out too early")
		}
		// Probe takes the same deadline.
		if _, err := tr.Probe(0, anyMsg, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
			t.Fatalf("Probe err = %v, want ErrTimeout", err)
		}
	})
}

func TestTransportRecvBlocksUntilSend(t *testing.T) {
	transportCases(t, func(t *testing.T, tr Transport) {
		done := make(chan Message, 1)
		go func() {
			m, err := tr.Recv(1, anyMsg, 0)
			if err == nil {
				done <- m
			}
		}()
		time.Sleep(10 * time.Millisecond)
		select {
		case <-done:
			t.Fatal("Recv returned before any Send")
		default:
		}
		if err := tr.Send(1, Message{Src: 0, Tag: 0, Payload: []byte("late")}); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-done:
			if string(m.Payload) != "late" {
				t.Fatalf("got %q", m.Payload)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Recv never unblocked")
		}
	})
}

func TestTransportBadRank(t *testing.T) {
	transportCases(t, func(t *testing.T, tr Transport) {
		var re *RankError
		if err := tr.Send(99, Message{Src: 0}); !errors.As(err, &re) {
			t.Fatalf("Send(99) err = %v, want RankError", err)
		}
		if _, err := tr.Recv(-1, anyMsg, 0); !errors.As(err, &re) {
			t.Fatalf("Recv(-1) err = %v, want RankError", err)
		}
		if _, err := tr.Probe(4, anyMsg, 0); !errors.As(err, &re) {
			t.Fatalf("Probe(4) err = %v, want RankError", err)
		}
	})
}

func TestTransportCloseUnblocksReceivers(t *testing.T) {
	transportCases(t, func(t *testing.T, tr Transport) {
		errCh := make(chan error, 1)
		go func() {
			_, err := tr.Recv(0, anyMsg, 0)
			errCh <- err
		}()
		time.Sleep(5 * time.Millisecond)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("Recv after Close err = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("receiver not unblocked by Close")
		}
	})
}

func TestChanTransportSendAfterCloseFails(t *testing.T) {
	tr := NewChanTransport(2)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, Message{Src: 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close err = %v, want ErrClosed", err)
	}
}

func TestChanTransportPending(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	if tr.Pending(1) != 0 {
		t.Fatal("fresh mailbox not empty")
	}
	for i := 0; i < 3; i++ {
		if err := tr.Send(1, Message{Src: 0, Tag: i}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Pending(1) != 3 {
		t.Fatalf("Pending = %d, want 3", tr.Pending(1))
	}
	if tr.Pending(99) != 0 {
		t.Fatal("Pending for bad rank should be 0")
	}
}

func TestLatencyDecoratorDelaysSends(t *testing.T) {
	tr := NewLatency(NewChanTransport(2), 20*time.Millisecond)
	defer tr.Close()
	start := time.Now()
	if err := tr.Send(1, Message{Src: 0}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("latency not applied: send took %v", elapsed)
	}
}

// TestTransportManyToOneConcurrent: concurrent senders from all ranks are
// all delivered.
func TestTransportManyToOneConcurrent(t *testing.T) {
	transportCases(t, func(t *testing.T, tr Transport) {
		const perSender = 50
		var wg sync.WaitGroup
		for src := 0; src < 4; src++ {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					if err := tr.Send(0, Message{Src: src, Tag: i, Payload: []byte{byte(src)}}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}(src)
		}
		wg.Wait()
		counts := map[byte]int{}
		for i := 0; i < 4*perSender; i++ {
			m, err := tr.Recv(0, anyMsg, 0)
			if err != nil {
				t.Fatal(err)
			}
			counts[m.Payload[0]]++
		}
		for src := byte(0); src < 4; src++ {
			if counts[src] != perSender {
				t.Fatalf("src %d delivered %d messages, want %d", src, counts[src], perSender)
			}
		}
	})
}

func TestTCPTransportLargePayload(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := tr.Send(1, Message{Src: 0, Tag: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	m, err := tr.Recv(1, anyMsg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Payload) != len(payload) {
		t.Fatalf("payload length %d, want %d", len(m.Payload), len(payload))
	}
	for i := range payload {
		if m.Payload[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestTCPTransportAddrs(t *testing.T) {
	tr, err := NewTCPTransport(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	addrs := tr.Addrs()
	if len(addrs) != 3 {
		t.Fatalf("Addrs = %v", addrs)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if a == "" || seen[a] {
			t.Fatalf("bad or duplicate addr in %v", addrs)
		}
		seen[a] = true
	}
}

func TestTCPTransportDoubleCloseSafe(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestTCPSelfSend(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(0, Message{Src: 0, Tag: 4, Payload: []byte("self")}); err != nil {
		t.Fatal(err)
	}
	m, err := tr.Recv(0, anyMsg, 0)
	if err != nil || string(m.Payload) != "self" {
		t.Fatalf("self-send = (%+v, %v)", m, err)
	}
}

func TestRankErrorMessage(t *testing.T) {
	err := errBadRank(9, 4)
	if err.Error() == "" {
		t.Fatal("empty error message")
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 9 || re.Size != 4 {
		t.Fatalf("RankError fields wrong: %+v", re)
	}
}

func TestMessageFieldsSurviveTCPRoundTrip(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	in := Message{Src: 1, Tag: -42, Comm: 17, Payload: []byte{1, 2, 3}}
	if err := tr.Send(0, in); err != nil {
		t.Fatal(err)
	}
	out, err := tr.Recv(0, anyMsg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != in.Src || out.Tag != in.Tag || out.Comm != in.Comm ||
		fmt.Sprint(out.Payload) != fmt.Sprint(in.Payload) {
		t.Fatalf("round trip changed message: %+v -> %+v", in, out)
	}
}

// Close must stop every goroutine the transport started: each endpoint's
// accept loop and the read loop of every connection, after traffic has
// crossed every ordered pair of ranks (self-sends included).
func TestTCPTransportCloseLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	const np = 4
	tr, err := NewTCPTransport(np)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < np; src++ {
		for dst := 0; dst < np; dst++ {
			if err := tr.Send(dst, Message{Src: src, Tag: 1, Payload: []byte{byte(src)}}); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Recv(dst, Match{Comm: 0, Src: src, Tag: 1}, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
