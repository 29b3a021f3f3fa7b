package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wirecodec"
)

// Transport frame format, shared by TCPTransport and RemoteTransport.
//
// Each message crosses a connection as one self-delimiting frame:
//
//	[4B LE frame length N] [1B meta length] [meta] [payload]
//
// where meta is zigzag varints (Dst, Src, Tag, Comm) and the payload is
// the remaining N-1-len(meta) bytes. The explicit meta length lets the
// reader slice the header without parsing ahead, and the length prefix
// lets any number of frames ride back-to-back in one write — which is
// exactly what the coalescing writer does. (The previous wire format was
// a per-connection gob stream: ~10× the header bytes, an allocation per
// frame on both ends, and no way to batch.)

// maxFrameLen bounds a single frame (1 GiB); a larger prefix means a
// corrupt or hostile stream and closes the connection.
const maxFrameLen = 1 << 30

// appendFrame appends the wire encoding of (dst, m) to b.
func appendFrame(b []byte, dst int, m Message) []byte {
	var meta [42]byte // 4 zigzag varints, ≤ 10 bytes each
	mb := meta[:0]
	mb = wirecodec.AppendVarint(mb, int64(dst))
	mb = wirecodec.AppendVarint(mb, int64(m.Src))
	mb = wirecodec.AppendVarint(mb, int64(m.Tag))
	mb = wirecodec.AppendVarint(mb, int64(m.Comm))
	frameLen := 1 + len(mb) + len(m.Payload)
	b = wirecodec.AppendUint32(b, uint32(frameLen))
	b = append(b, byte(len(mb)))
	b = append(b, mb...)
	return append(b, m.Payload...)
}

// readFrame reads one frame from r. The returned payload is a pooled
// buffer owned by the caller (ownership passes to the receiving rank,
// which recycles it after decoding).
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
	payloadLen := frameLen - 1 - metaLen
	payload := wirecodec.Get(payloadLen)[:payloadLen]
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, Message{}, err
	}
	m = Message{Src: int(fields[1]), Tag: int(fields[2]), Comm: int(fields[3]), Payload: payload}
	return int(fields[0]), m, nil
}

// Wire-level counter names, as they appear in WireStats maps (and, with
// the "cluster." prefix, in folded telemetry snapshots).
const (
	wireMisrouted      = "misrouted_frames"
	wireFlushImmediate = "flush_immediate"
	wireFlushBatched   = "flush_batched"
	wireCoalesced      = "frames_coalesced"
)

// wireCounters is the counter block a frame-based transport keeps for its
// wire-level decisions: frames discarded because their destination rank
// does not live here, and the immediate-vs-batched flush split.
type wireCounters struct {
	set            telemetry.CounterSet
	once           sync.Once
	misrouted      *telemetry.Counter
	flushImmediate *telemetry.Counter
	flushBatched   *telemetry.Counter
	coalesced      *telemetry.Counter
}

func (wc *wireCounters) init() {
	wc.once.Do(func() {
		wc.misrouted = wc.set.Counter(wireMisrouted)
		wc.flushImmediate = wc.set.Counter(wireFlushImmediate)
		wc.flushBatched = wc.set.Counter(wireFlushBatched)
		wc.coalesced = wc.set.Counter(wireCoalesced)
	})
}

func (wc *wireCounters) snapshot() map[string]int64 {
	wc.init()
	return wc.set.Snapshot()
}

// flushHighWater forces a flush of a coalescing connection once the
// staged batch reaches this size, regardless of the window timer — the
// window trades latency for fewer writes on *small* frames; a large
// frame already fills a write on its own.
const flushHighWater = 64 << 10

// maxInlineCopy is the largest payload the immediate-mode writer copies
// into its staging buffer for a single write; larger payloads go out as
// a vectored write (header iovec + payload iovec) so a multi-megabyte
// frame is never memcpy'd an extra time.
const maxInlineCopy = 32 << 10

// wireConn is one direction of a connection between two ranks: it frames
// messages onto the socket, either immediately (window 0) or through a
// coalescing buffer that batches every frame queued within the send
// window into a single write.
type wireConn struct {
	mu     sync.Mutex
	c      net.Conn
	window time.Duration
	wc     *wireCounters

	// Coalescing state (window > 0): staged holds encoded frames awaiting
	// the flush timer; stagedFrames counts them for the telemetry split.
	staged       []byte
	stagedFrames int
	timer        *time.Timer
	err          error // first write error; poisons the connection
}

// newWireConn wraps an established connection. The caller decides
// TCP_NODELAY (Nagle would add a kernel-side batching timer under ours;
// the transports default it on and expose WithNoDelay for comparisons).
func newWireConn(c net.Conn, window time.Duration, wc *wireCounters) *wireConn {
	wc.init()
	return &wireConn{c: c, window: window, wc: wc}
}

// send frames (dst, m) onto the connection, honoring the send window.
func (w *wireConn) send(dst int, m Message) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.window <= 0 {
		// Immediate mode: one frame, one write. The frame is staged in a
		// pooled buffer (header + payload copy) so small messages cost a
		// single syscall and no retained allocation; payloads too large to
		// pool ride out as a vectored write instead of being copied.
		if len(m.Payload) > maxInlineCopy {
			var hdr [64]byte
			h := appendFrameHeader(hdr[:0], dst, m)
			bufs := net.Buffers{h, m.Payload}
			// Flushes are counted before the write: once the peer can
			// read the frame, the count must already show it.
			w.wc.flushImmediate.Inc()
			if _, err := bufs.WriteTo(w.c); err != nil {
				w.err = err
				return err
			}
			return nil
		}
		buf := wirecodec.Get(4 + 1 + 42 + len(m.Payload))
		buf = appendFrame(buf, dst, m)
		w.wc.flushImmediate.Inc()
		_, err := w.c.Write(buf)
		wirecodec.Put(buf)
		if err != nil {
			w.err = err
			return err
		}
		return nil
	}

	// Coalescing mode: stage the frame; first frame in an empty batch
	// arms the window timer, and crossing the high-water mark flushes
	// without waiting for it.
	if w.staged == nil {
		w.staged = wirecodec.Get(flushHighWater)
	}
	w.staged = appendFrame(w.staged, dst, m)
	w.stagedFrames++
	if len(w.staged) >= flushHighWater {
		return w.flushLocked()
	}
	if w.timer == nil {
		w.timer = time.AfterFunc(w.window, w.flushOnTimer)
	}
	return nil
}

// appendFrameHeader appends only the length-prefix + meta portion of a
// frame for (dst, m) — the vectored-write path sends the payload as its
// own iovec.
func appendFrameHeader(b []byte, dst int, m Message) []byte {
	var meta [42]byte
	mb := meta[:0]
	mb = wirecodec.AppendVarint(mb, int64(dst))
	mb = wirecodec.AppendVarint(mb, int64(m.Src))
	mb = wirecodec.AppendVarint(mb, int64(m.Tag))
	mb = wirecodec.AppendVarint(mb, int64(m.Comm))
	b = wirecodec.AppendUint32(b, uint32(1+len(mb)+len(m.Payload)))
	b = append(b, byte(len(mb)))
	return append(b, mb...)
}

func (w *wireConn) flushOnTimer() {
	w.mu.Lock()
	defer w.mu.Unlock()
	_ = w.flushLocked()
}

// flushLocked writes the staged batch in one call and recycles the
// staging buffer. Callers hold w.mu.
func (w *wireConn) flushLocked() error {
	if w.timer != nil {
		w.timer.Stop()
		w.timer = nil
	}
	if w.err != nil || len(w.staged) == 0 {
		return w.err
	}
	w.wc.flushBatched.Inc()
	if w.stagedFrames > 1 {
		w.wc.coalesced.Add(int64(w.stagedFrames - 1))
	}
	_, err := w.c.Write(w.staged)
	wirecodec.Put(w.staged)
	w.staged = nil
	w.stagedFrames = 0
	if err != nil {
		w.err = err
	}
	return w.err
}

// close flushes anything staged and closes the socket.
func (w *wireConn) close() error {
	w.mu.Lock()
	_ = w.flushLocked()
	w.mu.Unlock()
	return w.c.Close()
}

// readFrames drains conn, delivering each frame addressed to ownRank into
// deliver and counting frames addressed elsewhere as misrouted. It
// returns when the connection errors or closes.
func readFrames(conn net.Conn, ownRank int, wc *wireCounters, deliver func(Message)) {
	wc.init()
	r := bufio.NewReaderSize(conn, 64<<10)
	for {
		dst, m, err := readFrame(r)
		if err != nil {
			_ = conn.Close()
			return
		}
		if dst != ownRank {
			// A frame for a rank this endpoint does not host: the sender's
			// routing table and ours disagree. Count it where operators can
			// see it (WireStats → Instrumented → telemetry) instead of
			// dropping it invisibly.
			wc.misrouted.Inc()
			wirecodec.Put(m.Payload)
			continue
		}
		deliver(m)
	}
}
