package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wirecodec"
)

// RemoteTransport carries exactly one rank of the world, with the other
// ranks living in other processes (or other RemoteTransport instances).
// Each instance owns one listener and a mailbox for its own rank, and
// lazily dials peers by an address table agreed on at startup (see the
// launch package's rendezvous), speaking the length-prefixed binary frame
// format of wire.go. TCPTransport is np of these endpoints in one
// process.
//
// With this transport, the "distributed-memory" property is not merely
// simulated: ranks are separate operating-system processes with disjoint
// address spaces, exactly like the paper's Beowulf cluster runs.
type RemoteTransport struct {
	rank  int
	np    int
	addrs []string
	box   *mailbox
	ln    net.Listener
	wire  *wireCounters

	connMu sync.Mutex
	conns  map[int]*wireConn

	closeOnce sync.Once
	closed    chan struct{}
}

// dialTimeout bounds the lazy per-peer dial. A loopback dial succeeds or
// is refused at once; the bound matters off-host, where a peer process
// may still be starting.
const dialTimeout = 10 * time.Second

// NewRemoteTransport creates the transport for one rank. ln must already
// be listening on addrs[rank]; the address table must be identical in all
// processes.
func NewRemoteTransport(rank, np int, addrs []string, ln net.Listener) (*RemoteTransport, error) {
	if rank < 0 || rank >= np {
		return nil, fmt.Errorf("cluster: remote rank %d out of range for np %d", rank, np)
	}
	if len(addrs) != np {
		return nil, fmt.Errorf("cluster: %d addresses for np %d", len(addrs), np)
	}
	return newEndpoint(rank, np, append([]string(nil), addrs...), ln, newWireCounters()), nil
}

// newEndpoint starts the endpoint for rank on ln. addrs and wire may be
// shared with the other endpoints of an in-process world; neither is
// written after construction except through wire's atomic counters.
func newEndpoint(rank, np int, addrs []string, ln net.Listener, wire *wireCounters) *RemoteTransport {
	t := &RemoteTransport{
		rank:   rank,
		np:     np,
		addrs:  addrs,
		box:    newMailbox(),
		ln:     ln,
		wire:   wire,
		conns:  map[int]*wireConn{},
		closed: make(chan struct{}),
	}
	go t.acceptLoop()
	return t
}

// ListenLoopback binds an ephemeral loopback listener, for rank processes
// to create before the rendezvous.
func ListenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func (t *RemoteTransport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		go readFrames(conn, t.rank, t.np, t.wire, func(m Message) { _ = t.box.put(m) })
	}
}

func (t *RemoteTransport) dial(to int) (*wireConn, error) {
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if c, ok := t.conns[to]; ok {
		return c, nil
	}
	select {
	case <-t.closed:
		return nil, ErrClosed
	default:
	}
	nc, err := net.DialTimeout("tcp", t.addrs[to], dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial remote rank %d at %s: %w", to, t.addrs[to], err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	c := &wireConn{c: nc, wc: t.wire}
	t.conns[to] = c
	return c, nil
}

// Send implements Transport.
func (t *RemoteTransport) Send(to int, m Message) error {
	if to < 0 || to >= t.np {
		return errBadRank(to, t.np)
	}
	if to == t.rank {
		// A self-send stays local, but copies the payload into a pooled
		// buffer — the ownership rule readFrame follows — so the caller
		// may reuse its slice at once, as after a send over the wire.
		m.Payload = append(wirecodec.Get(len(m.Payload)), m.Payload...)
		return t.box.put(m)
	}
	c, err := t.dial(to)
	if err != nil {
		return err
	}
	if err := c.send(to, m); err != nil {
		return fmt.Errorf("cluster: send to remote rank %d: %w", to, err)
	}
	return nil
}

// SendCopiesPayload implements PayloadCopier: a send to a peer writes
// the frame to the socket and a self-send copies the payload, both before
// Send returns.
func (t *RemoteTransport) SendCopiesPayload() bool { return true }

// WireStats implements WireStatser.
func (t *RemoteTransport) WireStats() map[string]int64 { return t.wire.snapshot() }

// checkOwnRank rejects receive operations for ranks this process does not
// host.
func (t *RemoteTransport) checkOwnRank(rank int) error {
	if rank != t.rank {
		return fmt.Errorf("cluster: this process hosts rank %d, not %d", t.rank, rank)
	}
	return nil
}

// Recv implements Transport for this process's own rank.
func (t *RemoteTransport) Recv(rank int, mt Match, timeout time.Duration) (Message, error) {
	if err := t.checkOwnRank(rank); err != nil {
		return Message{}, err
	}
	return t.box.take(mt, true, timeout)
}

// Probe implements Transport.
func (t *RemoteTransport) Probe(rank int, mt Match, timeout time.Duration) (Message, error) {
	if err := t.checkOwnRank(rank); err != nil {
		return Message{}, err
	}
	return t.box.take(mt, false, timeout)
}

// Close implements Transport.
func (t *RemoteTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		_ = t.ln.Close()
		t.connMu.Lock()
		for _, c := range t.conns {
			_ = c.close()
		}
		t.connMu.Unlock()
		t.box.close()
	})
	return nil
}

// Rank returns the world rank this transport hosts.
func (t *RemoteTransport) Rank() int { return t.rank }

// Addrs returns the world address table.
func (t *RemoteTransport) Addrs() []string { return append([]string(nil), t.addrs...) }
