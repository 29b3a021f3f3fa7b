package cluster

import (
	"bufio"
	"bytes"
	"net"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	msgs := []struct {
		dst int
		m   Message
	}{
		{1, Message{Src: 0, Tag: 7, Comm: 0, Payload: []byte("hello")}},
		{0, Message{Src: 3, Tag: -2, Comm: 12345678, Payload: nil}}, // internal collective tag
		{5, Message{Src: 2, Tag: 0, Comm: -1, Payload: make([]byte, 70000)}},
		// Over maxUpfront: the reader grows the payload as it arrives.
		{2, Message{Src: 1, Tag: 1, Comm: 0, Payload: bytes.Repeat([]byte("0123456789"), maxUpfront/4)}},
	}
	var wire []byte
	for _, x := range msgs {
		wire = appendFrame(wire, x.dst, x.m)
	}
	r := bufio.NewReader(bytes.NewReader(wire))
	for i, x := range msgs {
		dst, m, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if dst != x.dst || m.Src != x.m.Src || m.Tag != x.m.Tag || m.Comm != x.m.Comm {
			t.Fatalf("frame %d: got (dst=%d src=%d tag=%d comm=%d), want (%d %d %d %d)",
				i, dst, m.Src, m.Tag, m.Comm, x.dst, x.m.Src, x.m.Tag, x.m.Comm)
		}
		if !bytes.Equal(m.Payload, x.m.Payload) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(m.Payload), len(x.m.Payload))
		}
	}
	if _, _, err := readFrame(r); err == nil {
		t.Fatal("expected EOF after last frame")
	}
	// A frame whose meta carries a byte appendFrame would never write
	// (an overlong varint) is rejected, not silently re-read.
	overlong := []byte{6, 0, 0, 0, 5, 0x82, 0x00, 0, 0, 0}
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(overlong))); err == nil {
		t.Fatal("accepted non-canonical frame meta")
	}
}

func TestFrameHeaderMatchesFrame(t *testing.T) {
	// The vectored-write path emits header and payload as separate iovecs;
	// their concatenation must be byte-identical to the single-buffer frame.
	m := Message{Src: 4, Tag: 9, Comm: 2, Payload: []byte("vectored payload")}
	whole := appendFrame(nil, 3, m)
	hdr := appendFrameHeader(nil, 3, m)
	if !bytes.Equal(whole, append(hdr, m.Payload...)) {
		t.Fatal("appendFrameHeader + payload != appendFrame")
	}
}

func TestReadFrameRejectsBadLength(t *testing.T) {
	// frameLen smaller than 1+metaLen is structurally impossible on a
	// healthy stream; the reader must error instead of mis-slicing.
	bad := []byte{2, 0, 0, 0, 10} // frameLen=2, metaLen=10
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(bad))); err == nil {
		t.Fatal("accepted frameLen < 1+metaLen")
	}
	huge := []byte{0xff, 0xff, 0xff, 0xff, 1} // ~4 GiB > maxFrameLen
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Fatal("accepted frame above maxFrameLen")
	}
}

func TestTCPImmediateFlushCounters(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n = 4
	for i := 0; i < n; i++ {
		if err := tr.Send(1, Message{Src: 0, Tag: i, Comm: 0, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := tr.Recv(1, Match{Comm: 0, Src: 0, Tag: i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.WireStats()
	// One write per frame, and the flush counter is the only one besides
	// misrouted frames.
	if st[wireFlushImmediate] != n || len(st) != 2 {
		t.Fatalf("flush_immediate = %d, want %d (stats: %v)", st[wireFlushImmediate], n, st)
	}
}

func TestMisroutedFramesCounted(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// Hand-write a frame addressed to a rank this endpoint does not host,
	// followed by a well-routed one, on a raw connection to rank 1's
	// listener. The read loop processes them in order, so once the valid
	// message is delivered the misrouted frame has been counted.
	conn, err := net.Dial("tcp", tr.Addrs()[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wire []byte
	wire = appendFrame(wire, 7, Message{Src: 0, Tag: 1, Comm: 0, Payload: []byte("lost")})
	wire = appendFrame(wire, 1, Message{Src: 0, Tag: 2, Comm: 0, Payload: []byte("found")})
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	m, err := tr.Recv(1, Match{Comm: 0, Src: 0, Tag: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Payload) != "found" {
		t.Fatalf("payload = %q", m.Payload)
	}

	if got := tr.WireStats()[wireMisrouted]; got != 1 {
		t.Fatalf("misrouted_frames = %d, want 1", got)
	}
}

func TestMiddlewarePromotesWireInterfaces(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Stacked middleware (Latency over FaultInjector) must still report the
	// base transport's copy semantics and wire counters.
	stack := NewLatency(NewFaultInjector(tr), 0)
	if !SendCopiesPayload(stack) {
		t.Fatal("SendCopiesPayload not promoted through middleware stack")
	}
	if WireStats(stack) == nil {
		t.Fatal("WireStats not promoted through middleware stack")
	}
	trs := newRemoteWorld(t, 1)
	if !SendCopiesPayload(trs[0]) {
		t.Fatal("RemoteTransport must report copy-on-send")
	}
	ch := NewChanTransport(2)
	defer ch.Close()
	if SendCopiesPayload(ch) {
		t.Fatal("ChanTransport must not report copy-on-send")
	}
	if WireStats(ch) != nil {
		t.Fatal("ChanTransport has no wire counters")
	}
}

// A self-send must not park the caller's slice: SendCopiesPayload lets
// the sender reuse its buffer the moment Send returns, so the delivered
// payload is a copy on both transports.
func TestSelfSendCopiesPayload(t *testing.T) {
	tcp, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	remote := newRemoteWorld(t, 2)[1]
	for name, tr := range map[string]Transport{"tcp": tcp, "remote": remote} {
		rank := 1
		payload := []byte("mine")
		if err := tr.Send(rank, Message{Src: rank, Tag: 3, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		copy(payload, "XXXX") // the sender reuses its buffer at once
		m, err := tr.Recv(rank, anyMsg, 0)
		if err != nil || string(m.Payload) != "mine" {
			t.Fatalf("%s: self-send delivered (%q, %v), want a copy of %q", name, m.Payload, err, "mine")
		}
	}
}

// The frame reader is the first code to touch bytes from the network:
// on any input it must return a frame or an error, never panic, never
// allocate a payload over maxFrameLen, and every frame it accepts must
// re-encode through appendFrame to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for _, x := range []struct {
		dst int
		m   Message
	}{
		{1, Message{Src: 0, Tag: 7, Comm: 0, Payload: []byte("hello")}},
		{0, Message{Src: 3, Tag: -2, Comm: 12345678}},
		{-1 << 62, Message{Src: 1 << 62, Tag: -1, Comm: -1, Payload: make([]byte, 300)}},
	} {
		f.Add(appendFrame(nil, x.dst, x.m))
	}
	f.Add([]byte{2, 0, 0, 0, 10})            // frameLen < 1+metaLen
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}) // over maxFrameLen
	f.Add([]byte{3, 0, 0, 0, 2, 0x80, 0x80}) // meta varint never ends
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		consumed := 0
		for {
			dst, m, err := readFrame(r)
			if err != nil {
				return
			}
			if len(m.Payload) > maxFrameLen {
				t.Fatalf("payload of %d bytes over maxFrameLen", len(m.Payload))
			}
			end := len(data) - src.Len() - r.Buffered()
			if again := appendFrame(nil, dst, m); !bytes.Equal(again, data[consumed:end]) {
				t.Fatalf("accepted frame %x re-encodes as %x", data[consumed:end], again)
			}
			consumed = end
		}
	})
}
