// Package cluster simulates the Beowulf cluster the paper runs its MPI
// patternlets on: a set of named nodes (node-01, node-02, …), a placement
// of ranked processes onto those nodes, and a wire transport that carries
// tagged messages between ranks.
//
// ChanTransport delivers through in-process mailboxes and is the
// default. RemoteTransport hosts one rank and carries every message to
// other ranks over TCP as length-prefixed binary frames (see wire.go);
// TCPTransport is np such endpoints on loopback in one process, so the
// message-passing patternlets exercise an actual network path (the
// distributed-memory column of the paper's §I.A taxonomy). All present
// the same Transport interface, and the MPI layer is oblivious to which
// one is underneath.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Message is the unit carried by a Transport. Payloads are opaque bytes:
// the typed MPI layer above serializes values into Payload (the compact
// wire codec with a gob fallback), which is also what enforces MPI's
// no-shared-memory model — only bytes ever cross between ranks, never
// pointers into another rank's heap.
//
// Payload buffer ownership transfers with the message: once a Message is
// handed to Send, the payload belongs to the transport and, after
// delivery, to the receiving rank — the sender must not reuse or recycle
// it. This is what lets the layer above return received payload buffers
// to the wirecodec pool after decoding without a reference count.
type Message struct {
	Src     int    // sending world rank
	Tag     int    // user tags are >= 0; negative tags are reserved for collectives
	Comm    int    // communicator id, so split communicators have isolated tag spaces
	Payload []byte // wire-encoded value
}

// ErrClosed is returned by transport operations after Close.
var ErrClosed = errors.New("cluster: transport closed")

// ErrTimeout is returned by Transport.Recv and Transport.Probe when their
// timeout expires before a matching message arrives. The MPI layer maps
// it to its deadlock-detection error.
var ErrTimeout = errors.New("cluster: receive timed out")

// Wildcard values for Match fields. Communicator ids and ranks are always
// non-negative, so -1 is free to mean "any"; tags use the whole negative
// range for internal collective traffic, so the tag sentinels sit at the
// far end of the int range where no real tag can ever land.
const (
	// AnyComm matches messages on every communicator.
	AnyComm = -1
	// AnySrc matches messages from every sender.
	AnySrc = -1
	// AnyTag matches every tag, including the negative tags reserved for
	// collective traffic.
	AnyTag = math.MinInt
	// AnyUserTag matches every non-negative tag — the wildcard the MPI
	// layer uses so MPI_ANY_TAG can never swallow internal collective
	// frames.
	AnyUserTag = math.MinInt + 1
)

// Match selects messages in a mailbox by (communicator, source, tag).
// It is a plain value — receives pass it by copy, so the hot receive
// path allocates nothing and transports can evaluate it without an
// indirect call. (It replaced a func(Message) bool predicate; every
// matching rule the runtime ever used is expressible as this triple.)
type Match struct {
	Comm int // communicator id, or AnyComm
	Src  int // sending world rank, or AnySrc
	Tag  int // exact tag, AnyTag, or AnyUserTag
}

// MatchAny matches every message — what tests and drain loops want.
func MatchAny() Match { return Match{Comm: AnyComm, Src: AnySrc, Tag: AnyTag} }

// Matches reports whether m satisfies the selector.
func (mt Match) Matches(m Message) bool {
	if mt.Comm != AnyComm && m.Comm != mt.Comm {
		return false
	}
	if mt.Src != AnySrc && m.Src != mt.Src {
		return false
	}
	switch mt.Tag {
	case AnyTag:
		return true
	case AnyUserTag:
		return m.Tag >= 0
	default:
		return m.Tag == mt.Tag
	}
}

// Transport moves messages between world ranks.
type Transport interface {
	// Send delivers m to the destination rank's mailbox. It may block for
	// flow control but must not wait for a matching receive (i.e. it has
	// MPI buffered-send semantics, like eager-protocol MPI_Send).
	// Ownership of m.Payload passes to the transport.
	Send(to int, m Message) error
	// Recv blocks until a message matching mt is available for the given
	// rank and removes it from the mailbox. Matching is in arrival order:
	// the earliest buffered match wins, which preserves MPI's
	// non-overtaking guarantee per (source, tag, comm). A positive timeout
	// bounds the wait and fails it with ErrTimeout; 0 waits forever.
	Recv(rank int, mt Match, timeout time.Duration) (Message, error)
	// Probe waits like Recv but leaves the message in the mailbox,
	// returning a copy (MPI_Probe).
	Probe(rank int, mt Match, timeout time.Duration) (Message, error)
	// Close releases transport resources. All blocked operations return
	// ErrClosed.
	Close() error
}

// PayloadCopier is the optional interface a transport implements when its
// Send serializes the payload onto a wire (or into a private staging
// buffer) before returning, instead of retaining the caller's slice. When
// a transport reports true, the sender may recycle the payload buffer the
// moment Send returns; when false (or when the interface is absent), the
// payload is referenced until the receiving rank consumes it.
type PayloadCopier interface {
	SendCopiesPayload() bool
}

// SendCopiesPayload probes t (through any middleware chain) for the
// PayloadCopier contract, defaulting to false — the conservative answer
// that keeps buffers alive until delivery.
func SendCopiesPayload(t Transport) bool {
	if p, ok := t.(PayloadCopier); ok {
		return p.SendCopiesPayload()
	}
	return false
}

// WireStatser is the optional interface a transport implements to expose
// internal wire-level counters (misrouted frames, frames written). The MPI
// layer folds these into telemetry at the end of a world, so they surface
// next to the traffic counters instead of vanishing inside the transport.
type WireStatser interface {
	WireStats() map[string]int64
}

// WireStats probes t for wire-level counters, returning nil when the
// transport keeps none.
func WireStats(t Transport) map[string]int64 {
	if ws, ok := t.(WireStatser); ok {
		return ws.WireStats()
	}
	return nil
}

// Node is one machine of the simulated cluster.
type Node struct {
	Name string // e.g. "node-01"
}

// Cluster is a set of named nodes with a round-robin placement of world
// ranks onto them.
type Cluster struct {
	nodes []Node
}

// New creates a cluster of n nodes named node-01 … node-NN, matching the
// host names in Figures 5 and 6 of the paper. n below 1 is clamped to 1.
func New(n int) *Cluster {
	if n < 1 {
		n = 1
	}
	c := &Cluster{nodes: make([]Node, n)}
	for i := range c.nodes {
		c.nodes[i] = Node{Name: fmt.Sprintf("node-%02d", i+1)}
	}
	return c
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// NodeFor returns the node hosting the given world rank under round-robin
// placement, the scheme mpirun uses by default across a machinefile.
func (c *Cluster) NodeFor(rank int) Node {
	if rank < 0 {
		rank = 0
	}
	return c.nodes[rank%len(c.nodes)]
}

// Names returns the node names in order.
func (c *Cluster) Names() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Name
	}
	return out
}
