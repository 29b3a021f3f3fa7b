package cluster

import "time"

// Transport middleware: composable decorators over any Transport.
//
// The message-passing stack treats the wire as a layered pipeline. At the
// bottom sits a base transport (ChanTransport, TCPTransport or
// RemoteTransport); above it, any number of decorators can be stacked,
// each adding one orthogonal concern — synthetic latency, fault
// injection — without the base transports or the MPI layer knowing.
// Every decorator embeds Middleware, which forwards all four Transport
// methods to the wrapped Inner transport, so a decorator overrides only
// the operations it cares about.

// Middleware is the embeddable pass-through base for transport
// decorators. On its own it is a transparent wrapper; decorators embed it
// and override individual methods:
//
//	type Logging struct{ cluster.Middleware }
//	func (l *Logging) Send(to int, m cluster.Message) error {
//	    log.Printf("-> %d tag %d", to, m.Tag)
//	    return l.Inner.Send(to, m)
//	}
type Middleware struct {
	Inner Transport
}

// Send implements Transport by forwarding to Inner.
func (w Middleware) Send(to int, m Message) error { return w.Inner.Send(to, m) }

// Recv implements Transport by forwarding to Inner.
func (w Middleware) Recv(rank int, mt Match, timeout time.Duration) (Message, error) {
	return w.Inner.Recv(rank, mt, timeout)
}

// Probe implements Transport by forwarding to Inner.
func (w Middleware) Probe(rank int, mt Match, timeout time.Duration) (Message, error) {
	return w.Inner.Probe(rank, mt, timeout)
}

// Close implements Transport by forwarding to Inner.
func (w Middleware) Close() error { return w.Inner.Close() }

// SendCopiesPayload implements PayloadCopier by probing the wrapped
// transport, so the payload-ownership contract survives any decorator
// stack (a Latency-wrapped TCPTransport still copies on Send).
func (w Middleware) SendCopiesPayload() bool { return SendCopiesPayload(w.Inner) }

// WireStats implements WireStatser by probing the wrapped transport, so
// wire-level counters surface through decorator stacks.
func (w Middleware) WireStats() map[string]int64 { return WireStats(w.Inner) }

var _ Transport = Middleware{}
var _ PayloadCopier = Middleware{}
var _ WireStatser = Middleware{}

// Latency delays every Send by a fixed one-way duration, modeling the
// interconnect cost of a distributed-memory system. It works over any
// transport — in-process channels, loopback TCP, or the multi-process
// remote transport — replacing the latency model that used to be wired
// into ChanTransport alone. The sleep happens in the sending goroutine
// before the message is handed down, so concurrent senders overlap their
// delays exactly as independent wire transfers would.
type Latency struct {
	Middleware
	d time.Duration
}

// NewLatency wraps inner with a synthetic per-message one-way delay.
func NewLatency(inner Transport, d time.Duration) *Latency {
	return &Latency{Middleware: Middleware{Inner: inner}, d: d}
}

// Send implements Transport: sleep the configured delay, then forward.
func (l *Latency) Send(to int, m Message) error {
	if l.d > 0 {
		time.Sleep(l.d)
	}
	return l.Inner.Send(to, m)
}
