package cluster

import (
	"fmt"
	"net"
	"time"
)

// TCPTransport carries messages over loopback TCP sockets as compact
// length-prefixed binary frames (wire.go). It gives the MPI patternlets
// a real network substrate — every byte of every message between ranks
// traverses the kernel's TCP stack — standing in for the paper's Beowulf
// cluster interconnect.
//
// It is np loopback RemoteTransport endpoints in one process, one per
// rank, over one shared address table and one shared set of wire
// counters: Send dispatches on the sending rank (m.Src), Recv and Probe
// on the receiving rank. Each endpoint owns its listener,
// mailbox and lazily dialed connections, exactly as it would as the only
// rank of an OS process.
type TCPTransport struct {
	eps   []*RemoteTransport
	addrs []string
	wire  *wireCounters
}

// NewTCPTransport creates a loopback TCP transport for np ranks. It binds
// np ephemeral ports on 127.0.0.1 and starts an accept loop per rank.
func NewTCPTransport(np int) (*TCPTransport, error) {
	lns := make([]net.Listener, np)
	t := &TCPTransport{addrs: make([]string, np), wire: newWireCounters()}
	for i := range lns {
		ln, err := ListenLoopback()
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, fmt.Errorf("cluster: listen for rank %d: %w", i, err)
		}
		lns[i], t.addrs[i] = ln, ln.Addr().String()
	}
	for i, ln := range lns {
		t.eps = append(t.eps, newEndpoint(i, np, t.addrs, ln, t.wire))
	}
	return t, nil
}

// endpoint returns the endpoint hosting rank.
func (t *TCPTransport) endpoint(rank int) (*RemoteTransport, error) {
	if rank < 0 || rank >= len(t.eps) {
		return nil, errBadRank(rank, len(t.eps))
	}
	return t.eps[rank], nil
}

// Send implements Transport from the endpoint of the sending rank, m.Src.
func (t *TCPTransport) Send(to int, m Message) error {
	ep, err := t.endpoint(m.Src)
	if err != nil {
		return err
	}
	return ep.Send(to, m)
}

// SendCopiesPayload implements PayloadCopier: the payload is written to
// the socket, or copied into a pooled buffer for a self-send, before
// Send returns.
func (t *TCPTransport) SendCopiesPayload() bool { return true }

// WireStats implements WireStatser: misrouted-frame and flush counters
// summed over every endpoint.
func (t *TCPTransport) WireStats() map[string]int64 { return t.wire.snapshot() }

// Recv implements Transport.
func (t *TCPTransport) Recv(rank int, mt Match, timeout time.Duration) (Message, error) {
	ep, err := t.endpoint(rank)
	if err != nil {
		return Message{}, err
	}
	return ep.Recv(rank, mt, timeout)
}

// Probe implements Transport.
func (t *TCPTransport) Probe(rank int, mt Match, timeout time.Duration) (Message, error) {
	ep, err := t.endpoint(rank)
	if err != nil {
		return Message{}, err
	}
	return ep.Probe(rank, mt, timeout)
}

// Close implements Transport: closes every endpoint's listener,
// connections and mailbox.
func (t *TCPTransport) Close() error {
	for _, ep := range t.eps {
		_ = ep.Close()
	}
	return nil
}

// Addrs returns the listen addresses, one per rank (useful in tests).
func (t *TCPTransport) Addrs() []string { return append([]string(nil), t.addrs...) }
