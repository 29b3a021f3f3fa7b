package cluster

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Instrumented counts the traffic flowing through a transport: sends and
// receives, payload bytes in each direction, and per-peer message counts
// — totalled and broken down per communicator id, so the MPI layer can
// report what a pattern actually moves (Comm.Stats). The counters are a
// telemetry.CounterSet per accounting bucket — the same named-atomic
// spine every other runtime stat in this repository reads from — and
// TrafficStats is a snapshot view decoded from it. Counters are
// lock-free atomics on the hot path; the only synchronization is the
// first-touch insertion of a new communicator or peer slot.
type Instrumented struct {
	Middleware
	total trafficCounters
	comms sync.Map // communicator id -> *trafficCounters
	// commCache short-circuits the comms lookup for the most recently used
	// communicator: traffic is bursty per communicator (usually the world
	// comm), and the sync.Map path hashes a boxed int key per message.
	commCache atomic.Pointer[commSlot]
}

type commSlot struct {
	id int
	tc *trafficCounters
}

// TrafficStats is a point-in-time snapshot of traffic counters. All maps
// are non-nil in every TrafficStats this package returns, including the
// zero-traffic snapshot for an unknown communicator.
type TrafficStats struct {
	Sends      uint64         // messages handed to the layer below
	Recvs      uint64         // messages delivered to receivers
	BytesSent  uint64         // payload bytes sent
	BytesRecvd uint64         // payload bytes received
	PeerSends  map[int]uint64 // destination world rank -> messages sent
	PeerRecvs  map[int]uint64 // source world rank -> messages received
	// Wire holds the underlying transport's wire-level counters
	// (misrouted_frames, flush_immediate) when the transport keeps them;
	// empty otherwise. Only Totals
	// populates it — wire counters are per-connection, not per-communicator.
	Wire map[string]int64
}

// Counter names within a bucket's CounterSet. Per-peer counters append
// "/<world rank>" to the peer prefixes.
const (
	ctrSends      = "sends"
	ctrRecvs      = "recvs"
	ctrBytesSent  = "bytes_sent"
	ctrBytesRecvd = "bytes_recvd"
	ctrPeerSend   = "peer_sends/"
	ctrPeerRecv   = "peer_recvs/"
)

// trafficCounters is one accounting bucket (the totals, or one
// communicator's slice of them): a telemetry counter set plus resolved
// pointers for the four fixed counters and a rank-keyed cache for the
// per-peer ones, so the per-message path never formats a name or takes
// the set's lock.
type trafficCounters struct {
	set       telemetry.CounterSet
	initOnce  sync.Once
	sends     *telemetry.Counter
	recvs     *telemetry.Counter
	bytesSent *telemetry.Counter
	bytesRecv *telemetry.Counter
	peerSends peerCounters // indexed by destination rank
	peerRecvs peerCounters // indexed by source rank
}

// peerCounters is a rank-indexed counter table with lock-free reads: the
// hot path is one atomic pointer load and a slice index — world ranks are
// small dense ints, so a slice beats the interface-keyed sync.Map it
// replaced (which hashed a boxed int per message). Growth copies under
// the mutex; readers keep using the old table until the swap.
type peerCounters struct {
	tbl atomic.Pointer[[]*telemetry.Counter]
	mu  sync.Mutex
}

func (pc *peerCounters) get(set *telemetry.CounterSet, prefix string, rank int) *telemetry.Counter {
	if t := pc.tbl.Load(); t != nil && rank < len(*t) {
		if c := (*t)[rank]; c != nil {
			return c
		}
	}
	if rank < 0 {
		// Defensive: a negative rank cannot index the table; count it under
		// its formatted name only.
		return set.Counter(prefix + strconv.Itoa(rank))
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var cur []*telemetry.Counter
	if t := pc.tbl.Load(); t != nil {
		cur = *t
	}
	if rank < len(cur) && cur[rank] != nil {
		return cur[rank]
	}
	n := len(cur)
	if n <= rank {
		n = rank + 1
	}
	next := make([]*telemetry.Counter, n)
	copy(next, cur)
	c := set.Counter(prefix + strconv.Itoa(rank))
	next[rank] = c
	pc.tbl.Store(&next)
	return c
}

func (tc *trafficCounters) init() {
	tc.initOnce.Do(func() {
		tc.sends = tc.set.Counter(ctrSends)
		tc.recvs = tc.set.Counter(ctrRecvs)
		tc.bytesSent = tc.set.Counter(ctrBytesSent)
		tc.bytesRecv = tc.set.Counter(ctrBytesRecvd)
	})
}

func (tc *trafficCounters) recordSend(to int, bytes uint64) {
	tc.init()
	tc.sends.Inc()
	tc.bytesSent.Add(int64(bytes))
	tc.peerSends.get(&tc.set, ctrPeerSend, to).Inc()
}

func (tc *trafficCounters) recordRecv(from int, bytes uint64) {
	tc.init()
	tc.recvs.Inc()
	tc.bytesRecv.Add(int64(bytes))
	tc.peerRecvs.get(&tc.set, ctrPeerRecv, from).Inc()
}

// emptyTrafficStats is the shared zero-value constructor: every map
// initialized, so callers can index a snapshot for a communicator that
// has carried no traffic without nil-map surprises.
func emptyTrafficStats() TrafficStats {
	return TrafficStats{
		PeerSends: map[int]uint64{},
		PeerRecvs: map[int]uint64{},
		Wire:      map[string]int64{},
	}
}

// snapshot decodes the bucket's counter set into a TrafficStats — the
// one place the telemetry names map onto the stats view, shared by
// Totals and CommStats.
func (tc *trafficCounters) snapshot() TrafficStats {
	st := emptyTrafficStats()
	for name, v := range tc.set.Snapshot() {
		switch {
		case name == ctrSends:
			st.Sends = uint64(v)
		case name == ctrRecvs:
			st.Recvs = uint64(v)
		case name == ctrBytesSent:
			st.BytesSent = uint64(v)
		case name == ctrBytesRecvd:
			st.BytesRecvd = uint64(v)
		case strings.HasPrefix(name, ctrPeerSend):
			if rank, err := strconv.Atoi(name[len(ctrPeerSend):]); err == nil {
				st.PeerSends[rank] = uint64(v)
			}
		case strings.HasPrefix(name, ctrPeerRecv):
			if rank, err := strconv.Atoi(name[len(ctrPeerRecv):]); err == nil {
				st.PeerRecvs[rank] = uint64(v)
			}
		}
	}
	return st
}

// NewInstrumented wraps inner with traffic accounting.
func NewInstrumented(inner Transport) *Instrumented {
	return &Instrumented{Middleware: Middleware{Inner: inner}}
}

func (t *Instrumented) commCounters(comm int) *trafficCounters {
	if s := t.commCache.Load(); s != nil && s.id == comm {
		return s.tc
	}
	v, ok := t.comms.Load(comm)
	if !ok {
		v, _ = t.comms.LoadOrStore(comm, &trafficCounters{})
	}
	tc := v.(*trafficCounters)
	t.commCache.Store(&commSlot{id: comm, tc: tc})
	return tc
}

// Send implements Transport, counting messages the layer below accepted.
func (t *Instrumented) Send(to int, m Message) error {
	if err := t.Inner.Send(to, m); err != nil {
		return err
	}
	n := uint64(len(m.Payload))
	t.total.recordSend(to, n)
	t.commCounters(m.Comm).recordSend(to, n)
	return nil
}

// Recv implements Transport, counting delivered messages.
func (t *Instrumented) Recv(rank int, mt Match) (Message, error) {
	m, err := t.Inner.Recv(rank, mt)
	if err == nil {
		t.total.recordRecv(m.Src, uint64(len(m.Payload)))
		t.commCounters(m.Comm).recordRecv(m.Src, uint64(len(m.Payload)))
	}
	return m, err
}

// RecvTimeout implements Transport, counting delivered messages.
func (t *Instrumented) RecvTimeout(rank int, mt Match, timeoutNanos int64) (Message, error) {
	m, err := t.Inner.RecvTimeout(rank, mt, timeoutNanos)
	if err == nil {
		t.total.recordRecv(m.Src, uint64(len(m.Payload)))
		t.commCounters(m.Comm).recordRecv(m.Src, uint64(len(m.Payload)))
	}
	return m, err
}

// Totals returns the counters summed over every communicator, with the
// underlying transport's wire-level counters (when it keeps any) merged
// into the Wire map — this is where misrouted frames become visible
// instead of being dropped silently inside a read loop.
func (t *Instrumented) Totals() TrafficStats {
	st := t.total.snapshot()
	for name, v := range WireStats(t.Inner) {
		st.Wire[name] = v
	}
	return st
}

// CommStats returns the counters for one communicator id. An id that has
// carried no traffic reports zeroes with every map initialized.
func (t *Instrumented) CommStats(comm int) TrafficStats {
	if v, ok := t.comms.Load(comm); ok {
		return v.(*trafficCounters).snapshot()
	}
	return emptyTrafficStats()
}

// FoldInto adds this transport's traffic totals to the collector's
// counter set under "cluster."-prefixed names — the hook mpi.Run uses to
// surface world traffic in a process-wide telemetry summary. Wire-level
// counters fold under the same prefix (cluster.misrouted_frames,
// cluster.flush_immediate, …).
func (t *Instrumented) FoldInto(col *telemetry.Collector) {
	st := t.Totals()
	col.Counter("cluster.sends").Add(int64(st.Sends))
	col.Counter("cluster.recvs").Add(int64(st.Recvs))
	col.Counter("cluster.bytes_sent").Add(int64(st.BytesSent))
	col.Counter("cluster.bytes_recvd").Add(int64(st.BytesRecvd))
	for name, v := range st.Wire {
		col.Counter("cluster." + name).Add(v)
	}
}
