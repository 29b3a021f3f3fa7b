package mpi

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/wirecodec"
)

// Point-to-point messaging: the Message Passing pattern (§III.E). Methods
// cannot have type parameters in Go, so the typed operations are free
// functions taking the communicator first.

// Send delivers v to the process with rank dest in c's communicator,
// labeled with tag (MPI_Send). Sends are buffered ("eager"): Send returns
// once the message is queued for the destination, without waiting for a
// matching Recv, which matches the small-message behaviour of real MPI
// implementations that the patternlets rely on.
func Send[T any](c *Comm, v T, dest, tag int) error {
	if dest < 0 || dest >= len(c.ranks) {
		return ErrInvalidRank
	}
	if tag < 0 {
		return ErrInvalidTag
	}
	return sendRaw(c, v, dest, tag)
}

// sendRaw is Send without user-facing validation, shared with collectives
// (which use reserved negative tags). The encoded payload is a pooled
// buffer: when the transport copies on Send (TCP endpoints), it is recycled
// here immediately; otherwise ownership rides with the message and the
// receiving rank recycles it after decoding.
func sendRaw[T any](c *Comm, v T, dest, tag int) error {
	payload, err := encodeMode(v, c.w.gobOnly)
	if err != nil {
		return err
	}
	err = sendBytes(c, payload, dest, tag)
	if c.w.copies {
		wirecodec.Put(payload)
	}
	return err
}

// sendBytes hands an encoded payload to the transport and, once the
// transport accepts it, counts it in c's traffic: the runtime's one send
// site. The rooted collectives call it directly to relay a frame
// unchanged down a tree.
func sendBytes(c *Comm, payload []byte, dest, tag int) error {
	to := c.ranks[dest] // transport addressing uses world ranks
	err := c.w.tr.Send(to, cluster.Message{Src: c.WorldRank(), Tag: tag, Comm: c.id, Payload: payload})
	if err == nil {
		c.traffic.sent(to, len(payload))
	}
	return err
}

// recvBytes takes the earliest message matching (src, tag) on c, honoring
// the world's receive timeout, and counts it in c's traffic: the
// runtime's one receive site.
func recvBytes(c *Comm, src, tag int) (cluster.Message, error) {
	m, err := c.w.tr.Recv(c.WorldRank(), c.matcher(src, tag), c.w.recvTimeout)
	if err != nil {
		return m, recvErr(err)
	}
	c.traffic.recvd(m.Src, len(m.Payload))
	return m, nil
}

// recvErr maps a transport timeout to the runtime's deadlock error.
func recvErr(err error) error {
	if errors.Is(err, cluster.ErrTimeout) {
		return ErrDeadlock
	}
	return err
}

// matcher builds the mailbox selector for (src, tag) in communicator c,
// honoring AnySource and AnyTag wildcards. src is a comm rank. The
// selector is a plain value (no closure), so the receive path allocates
// nothing.
func (c *Comm) matcher(src, tag int) cluster.Match {
	mt := cluster.Match{Comm: c.id, Src: cluster.AnySrc, Tag: tag}
	if src != AnySource {
		mt.Src = c.ranks[src]
	}
	if tag == AnyTag {
		// MPI_ANY_TAG matches user tags only, never the negative internal
		// tags collective traffic rides on.
		mt.Tag = cluster.AnyUserTag
	}
	return mt
}

func (c *Comm) statusFor(m cluster.Message) Status {
	src := -1
	if m.Src >= 0 && m.Src < len(c.fromWorld) {
		src = c.fromWorld[m.Src]
	}
	return Status{Source: src, Tag: m.Tag, Bytes: len(m.Payload)}
}

// Recv blocks until a message with the given source and tag arrives and
// returns its decoded value (MPI_Recv). src may be AnySource and tag may
// be AnyTag; the returned Status reports the actual sender and tag.
func Recv[T any](c *Comm, src, tag int) (T, Status, error) {
	var zero T
	if src != AnySource && (src < 0 || src >= len(c.ranks)) {
		return zero, Status{}, ErrInvalidRank
	}
	if tag != AnyTag && tag < 0 {
		return zero, Status{}, ErrInvalidTag
	}
	return recvRaw[T](c, src, tag)
}

func recvRaw[T any](c *Comm, src, tag int) (T, Status, error) {
	var zero T
	m, err := recvBytes(c, src, tag)
	if err != nil {
		return zero, Status{}, err
	}
	v, err := decode[T](m.Payload)
	// The delivered payload buffer is this rank's to recycle: decoded
	// values never alias it (codec contract), and point-to-point messages
	// are consumed exactly once.
	wirecodec.Put(m.Payload)
	if err != nil {
		return zero, Status{}, err
	}
	return v, c.statusFor(m), nil
}

// Probe blocks until a matching message is available without receiving it
// (MPI_Probe), returning its Status. A following Recv with the status's
// source and tag retrieves that message. Like a receive, it fails with
// ErrDeadlock once the world's receive timeout expires.
func Probe(c *Comm, src, tag int) (Status, error) {
	if src != AnySource && (src < 0 || src >= len(c.ranks)) {
		return Status{}, ErrInvalidRank
	}
	if tag != AnyTag && tag < 0 {
		return Status{}, ErrInvalidTag
	}
	m, err := c.w.tr.Probe(c.WorldRank(), c.matcher(src, tag), c.w.recvTimeout)
	if err != nil {
		return Status{}, recvErr(err)
	}
	return c.statusFor(m), nil
}

// Sendrecv performs a send and a receive as one operation (MPI_Sendrecv),
// which cannot deadlock even when every rank targets a neighbour
// simultaneously — the canonical fix for the ring-exchange deadlock shown
// by the messagePassing patternlets.
func Sendrecv[S, R any](c *Comm, sendVal S, dest, sendTag int, src, recvTag int) (R, Status, error) {
	var zero R
	if dest < 0 || dest >= len(c.ranks) {
		return zero, Status{}, ErrInvalidRank
	}
	if sendTag < 0 || (recvTag != AnyTag && recvTag < 0) {
		return zero, Status{}, ErrInvalidTag
	}
	if src != AnySource && (src < 0 || src >= len(c.ranks)) {
		return zero, Status{}, ErrInvalidRank
	}
	errCh := make(chan error, 1)
	go func() { errCh <- sendRaw(c, sendVal, dest, sendTag) }()
	v, st, rerr := recvRaw[R](c, src, recvTag)
	serr := <-errCh
	if rerr != nil {
		return zero, st, rerr
	}
	return v, st, serr
}

// ISend starts a send and returns a Request that must be waited on
// (MPI_Isend). Because sends are buffered, the request completes as soon
// as the message is queued.
func ISend[T any](c *Comm, v T, dest, tag int) *Request {
	r := &Request{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		r.err = Send(c, v, dest, tag)
	}()
	return r
}

// Request is an in-flight nonblocking operation handle (MPI_Request).
type Request struct {
	done chan struct{}
	err  error
}

// Wait blocks until the operation completes (MPI_Wait).
func (r *Request) Wait() error {
	<-r.done
	return r.err
}

// Test reports whether the operation has completed (MPI_Test); when it
// has, the operation's error is returned.
func (r *Request) Test() (bool, error) {
	select {
	case <-r.done:
		return true, r.err
	default:
		return false, nil
	}
}
