package mpi

import (
	"sync/atomic"

	"repro/internal/cluster"
)

// Traffic accounting. The runtime has one send site (sendBytes) and one
// receive site (recvBytes); both count into the communicator's bucket, so
// Comm.Stats reports identical numbers over every transport. A bucket is
// created with its communicator and shared by every rank holding that
// communicator id, and its per-peer counters are arrays indexed by world
// rank, so counting a message is a few atomic adds and never allocates.
// Names are built only when something reads the counts: Comm.Stats, or the
// world-end fold into telemetry.

// TrafficStats is a snapshot of one communicator's traffic. Both maps are
// non-nil and hold only peers with a non-zero count.
type TrafficStats struct {
	Sends      uint64         // messages the transport accepted
	Recvs      uint64         // messages delivered to receivers
	BytesSent  uint64         // payload bytes sent
	BytesRecvd uint64         // payload bytes received
	PeerSends  map[int]uint64 // destination world rank -> messages sent
	PeerRecvs  map[int]uint64 // source world rank -> messages received
}

// trafficBucket is one communicator's counters.
type trafficBucket struct {
	sends, recvs, bytesSent, bytesRecvd atomic.Uint64
	peerSends, peerRecvs                []atomic.Uint64 // indexed by world rank
}

// bucket returns the counters of communicator id, creating them on first
// use. Only communicator creation calls it, so the lock never sits on the
// message path.
func (w *world) bucket(id int) *trafficBucket {
	w.mu.Lock()
	defer w.mu.Unlock()
	b := w.traffic[id]
	if b == nil {
		peers := make([]atomic.Uint64, 2*w.np)
		b = &trafficBucket{peerSends: peers[:w.np], peerRecvs: peers[w.np:]}
		w.traffic[id] = b
	}
	return b
}

// sent counts a message the transport accepted for world rank to, which
// the sender resolved through its own rank table and so is always in range.
func (b *trafficBucket) sent(to, n int) {
	b.sends.Add(1)
	b.bytesSent.Add(uint64(n))
	b.peerSends[to].Add(1)
}

// recvd counts a delivered message from world rank from. The remote
// transport drops frames whose source is outside the world; should a
// transport deliver one, it counts in the totals only.
func (b *trafficBucket) recvd(from, n int) {
	b.recvs.Add(1)
	b.bytesRecvd.Add(uint64(n))
	if uint(from) < uint(len(b.peerRecvs)) {
		b.peerRecvs[from].Add(1)
	}
}

func (b *trafficBucket) snapshot() TrafficStats {
	return TrafficStats{
		Sends:      b.sends.Load(),
		Recvs:      b.recvs.Load(),
		BytesSent:  b.bytesSent.Load(),
		BytesRecvd: b.bytesRecvd.Load(),
		PeerSends:  peerMap(b.peerSends),
		PeerRecvs:  peerMap(b.peerRecvs),
	}
}

func peerMap(counts []atomic.Uint64) map[int]uint64 {
	m := map[int]uint64{}
	for r := range counts {
		if n := counts[r].Load(); n > 0 {
			m[r] = n
		}
	}
	return m
}

// fold adds the world's traffic, summed over its communicators, and the
// transport's wire-level counters to the telemetry collector under
// "cluster." names, plus the codec activity since the world started under
// "mpi." names. It is a no-op when telemetry is off.
func (w *world) fold() {
	col := w.tele
	if col == nil {
		return
	}
	var sum TrafficStats
	w.mu.Lock()
	for _, b := range w.traffic {
		sum.Sends += b.sends.Load()
		sum.Recvs += b.recvs.Load()
		sum.BytesSent += b.bytesSent.Load()
		sum.BytesRecvd += b.bytesRecvd.Load()
	}
	w.mu.Unlock()
	col.Counter("cluster.sends").Add(int64(sum.Sends))
	col.Counter("cluster.recvs").Add(int64(sum.Recvs))
	col.Counter("cluster.bytes_sent").Add(int64(sum.BytesSent))
	col.Counter("cluster.bytes_recvd").Add(int64(sum.BytesRecvd))
	for name, v := range cluster.WireStats(w.tr) {
		col.Counter("cluster." + name).Add(v)
	}
	foldCodecDelta(col, w.codecBase)
}
