package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/wirecodec"
)

// Transport frame format of RemoteTransport, and so of TCPTransport, which
// is built from RemoteTransport endpoints.
//
// Each message crosses a connection as one self-delimiting frame:
//
//	[4B LE frame length N] [1B meta length] [meta] [payload]
//
// where meta is zigzag varints (Dst, Src, Tag, Comm) and the payload is
// the remaining N-1-len(meta) bytes. The explicit meta length lets the
// reader slice the header without parsing ahead, and the length prefix
// lets frames ride back-to-back on one stream.

// maxFrameLen bounds a single frame (1 GiB); a larger prefix means a
// corrupt or hostile stream and closes the connection.
const maxFrameLen = 1 << 30

// appendFrame appends the wire encoding of (dst, m) to b.
func appendFrame(b []byte, dst int, m Message) []byte {
	return append(appendFrameHeader(b, dst, m), m.Payload...)
}

// appendFrameHeader appends the length prefix and meta of the frame for
// (dst, m) — everything but the payload, which the vectored-write path
// sends as its own iovec.
func appendFrameHeader(b []byte, dst int, m Message) []byte {
	var meta [42]byte // 4 zigzag varints, ≤ 10 bytes each
	mb := appendMeta(meta[:0], dst, m)
	b = wirecodec.AppendUint32(b, uint32(1+len(mb)+len(m.Payload)))
	b = append(b, byte(len(mb)))
	return append(b, mb...)
}

// appendMeta appends the frame meta: Dst, Src, Tag and Comm as zigzag
// varints.
func appendMeta(b []byte, dst int, m Message) []byte {
	b = wirecodec.AppendVarint(b, int64(dst))
	b = wirecodec.AppendVarint(b, int64(m.Src))
	b = wirecodec.AppendVarint(b, int64(m.Tag))
	return wirecodec.AppendVarint(b, int64(m.Comm))
}

// maxUpfront bounds the payload buffer readFrame allocates before the
// payload arrives. A header may claim up to maxFrameLen; a longer payload
// grows as its bytes are read, so a stream that lies about its length
// costs at most this much memory.
const maxUpfront = 4 << 20

// readFrame reads one frame from r. The returned payload is a pooled
// buffer owned by the caller (ownership passes to the receiving rank,
// which recycles it after decoding). Only canonical frames — the exact
// bytes appendFrame writes — are accepted.
func readFrame(r *bufio.Reader) (dst int, m Message, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, Message{}, err
	}
	frameLen := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	metaLen := int(hdr[4])
	if frameLen < 1+metaLen || frameLen > maxFrameLen {
		return 0, Message{}, fmt.Errorf("cluster: bad frame length %d (meta %d)", frameLen, metaLen)
	}
	var meta [255]byte
	if _, err = io.ReadFull(r, meta[:metaLen]); err != nil {
		return 0, Message{}, err
	}
	mb := meta[:metaLen]
	fields := [4]int64{}
	for i := range fields {
		v, rest, ok := wirecodec.Varint(mb)
		if !ok {
			return 0, Message{}, fmt.Errorf("cluster: truncated frame meta")
		}
		fields[i], mb = v, rest
	}
	dst = int(fields[0])
	m = Message{Src: int(fields[1]), Tag: int(fields[2]), Comm: int(fields[3])}
	var canon [42]byte
	if !bytes.Equal(appendMeta(canon[:0], dst, m), meta[:metaLen]) {
		return 0, Message{}, fmt.Errorf("cluster: non-canonical frame meta")
	}
	payloadLen := frameLen - 1 - metaLen
	n := min(payloadLen, maxUpfront)
	m.Payload = wirecodec.Get(n)[:n]
	for {
		if _, err = io.ReadFull(r, m.Payload[len(m.Payload)-n:]); err != nil {
			return 0, Message{}, err
		}
		if len(m.Payload) == payloadLen {
			return dst, m, nil
		}
		n = min(payloadLen-len(m.Payload), len(m.Payload))
		m.Payload = slices.Grow(m.Payload, n)[:len(m.Payload)+n]
	}
}

// Wire-level counter names, as they appear in WireStats maps (and, with
// the "cluster." prefix, in folded telemetry snapshots).
const (
	wireMisrouted      = "misrouted_frames"
	wireFlushImmediate = "flush_immediate"
)

// wireCounters is the counter block a frame-based transport keeps for its
// wire-level decisions: frames discarded because their destination rank
// does not live here, and frames written to a socket.
type wireCounters struct {
	set            telemetry.CounterSet
	misrouted      *telemetry.Counter
	flushImmediate *telemetry.Counter
}

func newWireCounters() *wireCounters {
	wc := &wireCounters{}
	wc.misrouted = wc.set.Counter(wireMisrouted)
	wc.flushImmediate = wc.set.Counter(wireFlushImmediate)
	return wc
}

func (wc *wireCounters) snapshot() map[string]int64 { return wc.set.Snapshot() }

// maxInlineCopy is the largest payload the writer copies into its
// staging buffer for a single write; larger payloads go out as a vectored
// write (header iovec + payload iovec) so a multi-megabyte frame is never
// memcpy'd an extra time.
const maxInlineCopy = 32 << 10

// wireConn is one direction of a connection between two ranks: it
// writes each message onto the socket as one frame before send returns,
// so the caller may reuse the payload at once. The dialer sets
// TCP_NODELAY: frames are small and latency-bound, and Nagle's timer
// would only delay them.
type wireConn struct {
	mu  sync.Mutex
	c   net.Conn
	wc  *wireCounters
	err error // first write error; poisons the connection
}

// send frames (dst, m) onto the connection: one frame, one write. The
// frame is staged in a pooled buffer (header + payload copy) so small
// messages cost a single syscall and no retained allocation; payloads
// too large to pool ride out as a vectored write instead of being
// copied. Flushes are counted before the write: once the peer can read
// the frame, the count must already show it.
func (w *wireConn) send(dst int, m Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.wc.flushImmediate.Inc()
	var err error
	if len(m.Payload) > maxInlineCopy {
		var hdr [64]byte
		bufs := net.Buffers{appendFrameHeader(hdr[:0], dst, m), m.Payload}
		_, err = bufs.WriteTo(w.c)
	} else {
		buf := appendFrame(wirecodec.Get(4+1+42+len(m.Payload)), dst, m)
		_, err = w.c.Write(buf)
		wirecodec.Put(buf)
	}
	w.err = err
	return err
}

// close closes the socket.
func (w *wireConn) close() error { return w.c.Close() }

// readFrames drains conn, delivering each frame addressed to ownRank into
// deliver and counting as misrouted the frames addressed elsewhere and
// those whose source is outside [0, np). It returns when the connection
// errors or closes.
func readFrames(conn net.Conn, ownRank, np int, wc *wireCounters, deliver func(Message)) {
	r := bufio.NewReaderSize(conn, 64<<10)
	for {
		dst, m, err := readFrame(r)
		if err != nil {
			_ = conn.Close()
			return
		}
		if dst != ownRank || m.Src < 0 || m.Src >= np {
			// A frame for a rank this endpoint does not host, or from a
			// rank the world does not have: the sender's routing table and
			// ours disagree, or the peer is corrupt. Count it where
			// operators can see it (WireStats → the MPI world's telemetry
			// fold) instead of dropping it invisibly.
			wc.misrouted.Inc()
			wirecodec.Put(m.Payload)
			continue
		}
		deliver(m)
	}
}
