package cluster

import (
	"runtime"
	"sync"
	"time"
)

// maxMailboxSpin caps the cooperative-yield probes a receiver makes
// before parking on the condition variable. A message that is already in
// flight on an in-process transport (the ping-pong and collective-
// exchange shapes) usually lands within a few scheduler yields, so
// spinning skips the park/unpark round trip entirely. The budget is
// adaptive per mailbox: a spin that finds its message restores the full
// budget, a spin that falls through to parking halves it. Over a wire
// transport, where delivery takes a syscall round trip no amount of
// yielding can hide, the budget collapses to zero within a few receives
// and the mailbox parks immediately — spinning there would only steal
// CPU from the very read loop that delivers the message.
const maxMailboxSpin = 64

// mailbox is an ordered buffer of undelivered messages for one rank, with
// match-selected blocking receives. Messages are matched in arrival
// order, preserving MPI's non-overtaking rule for any fixed (source, tag,
// comm) triple.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queue[head:] are the undelivered messages. Deliveries overwhelmingly
	// match at the front (FIFO traffic), so take bumps head instead of
	// shifting the slice — a burst of thousands of queued frames drains
	// in linear time — and put resets to the start of the backing array
	// whenever the queue empties, so steady-state traffic reuses one array
	// with no allocation.
	queue   []Message
	head    int
	closed  bool
	spin    int // current spin budget (see maxMailboxSpin)
	waiters int // receivers parked on cond; put skips the wake when zero
}

func newMailbox() *mailbox {
	mb := &mailbox{spin: maxMailboxSpin}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m Message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	if mb.head > 0 && mb.head == len(mb.queue) {
		mb.queue = mb.queue[:0]
		mb.head = 0
	}
	mb.queue = append(mb.queue, m)
	if mb.waiters > 0 {
		mb.cond.Broadcast()
	}
	return nil
}

// findLocked returns the queue index of the earliest message matching mt,
// or -1. Callers hold mb.mu.
func (mb *mailbox) findLocked(mt Match) int {
	for i := mb.head; i < len(mb.queue); i++ {
		if mt.Matches(mb.queue[i]) {
			return i
		}
	}
	return -1
}

// takeLocked removes and returns the message at index i (an absolute
// index from findLocked). The head case — by far the common one under
// FIFO traffic — is a head bump, not a memmove; see the queue field docs.
func (mb *mailbox) takeLocked(i int, remove bool) Message {
	m := mb.queue[i]
	if remove {
		if i == mb.head {
			mb.queue[i] = Message{} // drop the payload reference
			mb.head++
		} else {
			mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
		}
	}
	return m
}

// take removes and returns the earliest message satisfying mt, blocking
// until one arrives. remove=false gives Probe semantics.
//
// The wait is two-phase: a bounded adaptive spin of scheduler yields
// first (the fast path for messages already in flight), then the
// condition-variable loop. The spin matters on the small-message latency
// path — it removes the futex wake from a ping-pong round trip — and the
// adaptive budget keeps it from burning CPU on transports where delivery
// is never spin-fast (see maxMailboxSpin).
func (mb *mailbox) take(mt Match, remove bool, timeout time.Duration) (Message, error) {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return Message{}, ErrClosed
	}
	if i := mb.findLocked(mt); i >= 0 {
		m := mb.takeLocked(i, remove)
		mb.mu.Unlock()
		return m, nil
	}
	budget := mb.spin
	mb.mu.Unlock()

	for spin := 0; spin < budget; spin++ {
		runtime.Gosched()
		mb.mu.Lock()
		if mb.closed {
			mb.mu.Unlock()
			return Message{}, ErrClosed
		}
		if i := mb.findLocked(mt); i >= 0 {
			mb.spin = maxMailboxSpin // spinning paid off; keep doing it
			m := mb.takeLocked(i, remove)
			mb.mu.Unlock()
			return m, nil
		}
		mb.mu.Unlock()
	}

	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// A timer wakes the waiter so the deadline is honored even when no
		// message ever arrives.
		t := time.AfterFunc(timeout, func() { mb.cond.Broadcast() })
		defer t.Stop()
	}
	mb.mu.Lock()
	defer mb.mu.Unlock()
	// Falling through to a park means this mailbox's messages don't arrive
	// spin-fast; halve the budget so repeated misses converge on parking
	// almost immediately. The floor of one probe costs a single yield —
	// noise next to any wait long enough to park for — and is what lets a
	// later spin hit restore the full budget.
	mb.spin = budget / 2
	if mb.spin < 1 {
		mb.spin = 1
	}
	for {
		if mb.closed {
			return Message{}, ErrClosed
		}
		if i := mb.findLocked(mt); i >= 0 {
			return mb.takeLocked(i, remove), nil
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return Message{}, ErrTimeout
		}
		mb.waiters++
		mb.cond.Wait()
		mb.waiters--
	}
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// pending returns the number of buffered messages (for tests and the
// deadlock diagnostics in the MPI layer).
func (mb *mailbox) pending() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.queue) - mb.head
}

// ChanTransport is the in-process transport: one mailbox per rank, sends
// deliver directly. To model interconnect cost, wrap it in the Latency
// decorator — synthetic delay is middleware, not a transport special
// case.
type ChanTransport struct {
	boxes []*mailbox
}

// NewChanTransport creates an in-process transport for np ranks.
func NewChanTransport(np int) *ChanTransport {
	t := &ChanTransport{boxes: make([]*mailbox, np)}
	for i := range t.boxes {
		t.boxes[i] = newMailbox()
	}
	return t
}

// Send implements Transport. The mailbox retains m.Payload until the
// receiver takes it, so ChanTransport does not implement PayloadCopier's
// copy semantics: sender-side buffers are recycled by the receiving rank.
func (t *ChanTransport) Send(to int, m Message) error {
	if to < 0 || to >= len(t.boxes) {
		return errBadRank(to, len(t.boxes))
	}
	return t.boxes[to].put(m)
}

// Recv implements Transport.
func (t *ChanTransport) Recv(rank int, mt Match, timeout time.Duration) (Message, error) {
	if rank < 0 || rank >= len(t.boxes) {
		return Message{}, errBadRank(rank, len(t.boxes))
	}
	return t.boxes[rank].take(mt, true, timeout)
}

// Probe implements Transport.
func (t *ChanTransport) Probe(rank int, mt Match, timeout time.Duration) (Message, error) {
	if rank < 0 || rank >= len(t.boxes) {
		return Message{}, errBadRank(rank, len(t.boxes))
	}
	return t.boxes[rank].take(mt, false, timeout)
}

// Close implements Transport.
func (t *ChanTransport) Close() error {
	for _, b := range t.boxes {
		b.close()
	}
	return nil
}

// Pending returns the number of undelivered messages buffered for rank.
func (t *ChanTransport) Pending(rank int) int {
	if rank < 0 || rank >= len(t.boxes) {
		return 0
	}
	return t.boxes[rank].pending()
}

func errBadRank(r, np int) error {
	return &RankError{Rank: r, Size: np}
}

// RankError reports an out-of-range rank passed to a transport.
type RankError struct {
	Rank, Size int
}

func (e *RankError) Error() string {
	return "cluster: rank out of range"
}
