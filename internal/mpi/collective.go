package mpi

import (
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/wirecodec"
)

// Collective operations. Every rank of the communicator must call the same
// collectives in the same order; each call reserves one internal tag, so
// successive collectives can never cross-match.
//
// Each public collective is a thin dispatcher over the algorithm registry
// (registry.go): the registry's policy — or a WithCollectiveAlgorithm
// override — names an algorithm, and the dispatcher runs it. The flat
// linear/composed forms double as test oracles for the tree forms, giving
// the O(lg p) combining depth that Figure 19 of the paper illustrates for
// the Reduction pattern an independently checkable reference.

// collBegin opens one rank's telemetry span for a collective call and
// bumps the process-wide collectives counter. When telemetry is off
// (w.tele nil, the cached per-world check) it returns the zero Span,
// whose SetArg and End are no-ops — so every dispatcher instruments
// unconditionally and the disabled path stays allocation-free. The
// dispatcher tags the span with the algorithm the registry chose
// ("algo") as soon as it is known: immediately for symmetric
// collectives, after the header decode for non-root ranks of the rooted
// ones (Bcast, Scatter), whose choice travels in-band.
func (c *Comm) collBegin(name string) telemetry.Span {
	col := c.w.tele
	if col == nil {
		return telemetry.Span{}
	}
	col.Counter("mpi.collectives").Inc()
	return col.Begin("mpi", name, c.WorldRank())
}

// Frame headers for the rooted distribution collectives (Bcast, Scatter):
// the root picks the algorithm from the payload it alone can measure, and
// the choice travels as the frame's first byte so receivers follow the
// same schedule without communicating.
const (
	hdrLinear   byte = 1
	hdrBinomial byte = 2
)

func algoHeader(algo string) (byte, bool) {
	switch algo {
	case AlgoLinear:
		return hdrLinear, true
	case AlgoBinomial:
		return hdrBinomial, true
	}
	return 0, false
}

func algoFromHeader(b byte) (string, bool) {
	switch b {
	case hdrLinear:
		return AlgoLinear, true
	case hdrBinomial:
		return AlgoBinomial, true
	}
	return "", false
}

// encodeFramed encodes v and prepends the algorithm header byte. The
// result is deliberately GC-managed, not pooled: a rooted collective
// relays the identical frame to several children (and decodes it locally),
// so no single consumer could safely recycle it. The intermediate encode
// buffer is recycled here.
func encodeFramed[T any](c *Comm, hdr byte, v T) ([]byte, error) {
	raw, err := encodeMode(v, c.w.gobOnly)
	if err != nil {
		return nil, err
	}
	f := make([]byte, 1+len(raw))
	f[0] = hdr
	copy(f[1:], raw)
	wirecodec.Put(raw)
	return f, nil
}

// entryMask returns the binomial-tree span of the node at relative rank
// rel: the largest power of two M such that the node's subtree covers
// relative ranks [rel, rel+M), clipped to p. The root (rel 0) spans the
// whole tree; any other node's span is the lowest set bit of rel.
func entryMask(rel, p int) int {
	if rel != 0 {
		return rel & -rel
	}
	m := 1
	for m < p {
		m <<= 1
	}
	return m
}

// Barrier blocks until every rank of the communicator has entered it
// (MPI_Barrier). Small worlds use the central fan-in/fan-out through rank
// 0; larger worlds the dissemination algorithm's ceil(lg p) symmetric
// rounds.
func Barrier(c *Comm) error {
	tag := c.nextCollTag()
	algo := c.algoFor(CollBarrier, 0)
	sp := c.collBegin(CollBarrier)
	sp.SetArg("algo", algo)
	defer sp.End()
	switch algo {
	case AlgoDissemination:
		return barrierDissemination(c, tag)
	case AlgoCentral:
		return barrierCentral(c, tag)
	default:
		return errUnknownAlgo(CollBarrier, algo)
	}
}

// BarrierCentral is the linear fan-in/fan-out barrier: every rank signals
// rank 0, which releases everyone — the O(p)-latency baseline for the
// ablation benchmark against the dissemination rounds. Barrier selects
// between the two automatically.
func BarrierCentral(c *Comm) error {
	return barrierCentral(c, c.nextCollTag())
}

// barrierDissemination: in round k each rank signals the rank 2^k ahead
// of it and waits for the rank 2^k behind.
func barrierDissemination(c *Comm, tag int) error {
	p := len(c.ranks)
	for stride := 1; stride < p; stride *= 2 {
		to := (c.rank + stride) % p
		from := (c.rank - stride + p) % p
		if err := sendRaw(c, struct{}{}, to, tag); err != nil {
			return err
		}
		if _, _, err := recvRaw[struct{}](c, from, tag); err != nil {
			return err
		}
	}
	return nil
}

func barrierCentral(c *Comm, tag int) error {
	p := len(c.ranks)
	if c.rank == 0 {
		for r := 1; r < p; r++ {
			if _, _, err := recvRaw[struct{}](c, r, tag); err != nil {
				return err
			}
		}
		for r := 1; r < p; r++ {
			if err := sendRaw(c, struct{}{}, r, tag); err != nil {
				return err
			}
		}
		return nil
	}
	if err := sendRaw(c, struct{}{}, 0, tag); err != nil {
		return err
	}
	_, _, err := recvRaw[struct{}](c, 0, tag)
	return err
}

// Bcast distributes root's value to every rank (MPI_Bcast): each rank
// passes its local v (ignored except at root) and receives root's value.
// The root encodes once, measures the wire size, and picks the schedule:
// small payloads in small worlds go out flat; otherwise the frame travels
// down a binomial tree, reaching all p ranks in ceil(lg p) message
// latencies. Relaying ranks forward the raw frame without re-encoding.
func Bcast[T any](c *Comm, v T, root int) (T, error) {
	var zero T
	if root < 0 || root >= len(c.ranks) {
		return zero, ErrInvalidRank
	}
	tag := c.nextCollTag()
	p := len(c.ranks)
	sp := c.collBegin(CollBcast)
	defer sp.End()
	if p == 1 {
		return v, nil
	}

	if c.rank == root {
		raw, err := encodeMode(v, c.w.gobOnly)
		if err != nil {
			return zero, err
		}
		algo := c.algoFor(CollBcast, len(raw))
		sp.SetArg("algo", algo)
		hdr, ok := algoHeader(algo)
		if !ok {
			wirecodec.Put(raw)
			return zero, errUnknownAlgo(CollBcast, algo)
		}
		f := make([]byte, 1+len(raw))
		f[0] = hdr
		copy(f[1:], raw)
		wirecodec.Put(raw)
		switch algo {
		case AlgoLinear:
			for r := 0; r < p; r++ {
				if r == root {
					continue
				}
				if err := sendBytes(c, f, r, tag); err != nil {
					return zero, err
				}
			}
		case AlgoBinomial:
			if err := bcastForward(c, f, 0, root, tag); err != nil {
				return zero, err
			}
		}
		return v, nil
	}

	// Non-root: the root's choice arrives in the frame header. The tag is
	// unique to this call and each rank receives exactly one frame, so
	// any-source matching is unambiguous under either schedule.
	m, err := recvBytes(c, AnySource, tag)
	if err != nil {
		return zero, err
	}
	f := m.Payload
	if len(f) == 0 {
		return zero, fmt.Errorf("mpi: Bcast: empty frame")
	}
	algo, ok := algoFromHeader(f[0])
	if !ok {
		return zero, fmt.Errorf("mpi: Bcast: bad frame header %d", f[0])
	}
	sp.SetArg("algo", algo)
	if algo == AlgoBinomial {
		rel := (c.rank - root + p) % p
		if err := bcastForward(c, f, rel, root, tag); err != nil {
			return zero, err
		}
	}
	out, err := decode[T](f[1:])
	// Over a copying transport the received frame is a pooled read buffer
	// and, with the relays above already written out, this rank is its last
	// user. Over an in-process transport the frame may still sit in sibling
	// mailboxes, so it stays with the garbage collector.
	if c.w.copies {
		wirecodec.Put(f)
	}
	return out, err
}

// bcastForward relays a frame to the binomial-tree children of the node
// at relative rank rel.
func bcastForward(c *Comm, f []byte, rel, root, tag int) error {
	p := len(c.ranks)
	for mask := entryMask(rel, p) >> 1; mask > 0; mask >>= 1 {
		if rel+mask < p {
			if err := sendBytes(c, f, (rel+mask+root)%p, tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reduce combines each rank's value with op and returns the result at
// root; other ranks receive the zero value (MPI_Reduce). op must be
// associative (the requirement MPI places on user-defined operations, per
// §III.D); both registered schedules fold in rank order, so even
// non-commutative associative ops reduce deterministically and the two
// always agree.
func Reduce[T any](c *Comm, v T, op func(T, T) T, root int) (T, error) {
	var zero T
	if root < 0 || root >= len(c.ranks) {
		return zero, ErrInvalidRank
	}
	tag := c.nextCollTag()
	algo := c.algoFor(CollReduce, 0)
	sp := c.collBegin(CollReduce)
	sp.SetArg("algo", algo)
	defer sp.End()
	switch algo {
	case AlgoBinomial:
		return reduceBinomial(c, v, op, root, tag)
	case AlgoLinear:
		return reduceLinear(c, v, op, root, tag)
	default:
		return zero, errUnknownAlgo(CollReduce, algo)
	}
}

// ReduceLinear always runs the sequential baseline for the Reduction
// pattern: root receives every rank's value one at a time and folds them
// in rank order — the O(t) combining that Figure 19 contrasts with the
// O(lg t) tree. It exists for the Figure 19 experiment and as the test
// oracle pinning Reduce's registered schedules.
func ReduceLinear[T any](c *Comm, v T, op func(T, T) T, root int) (T, error) {
	var zero T
	if root < 0 || root >= len(c.ranks) {
		return zero, ErrInvalidRank
	}
	return reduceLinear(c, v, op, root, c.nextCollTag())
}

// reduceBinomial combines partials up a binomial tree in ceil(lg p)
// rounds. The tree runs over absolute ranks rooted at rank 0 — each node
// always holds the combination of a contiguous rank interval and merges
// keeping the lower interval on the left, so the result equals the
// sequential fold over ranks 0..p-1 in order even for non-commutative
// associative ops, exactly like reduceLinear. A non-zero root costs one
// extra hop: rank 0 forwards it the finished result.
func reduceBinomial[T any](c *Comm, v T, op func(T, T) T, root, tag int) (T, error) {
	var zero T
	p := len(c.ranks)

	val := v
	holds := true // does this rank still hold a live partial?
	for mask := 1; mask < p; mask <<= 1 {
		if c.rank&mask != 0 {
			// This rank's partial is done; hand it to the subtree owner.
			if err := sendRaw(c, val, c.rank&^mask, tag); err != nil {
				return zero, err
			}
			holds = false
			break
		}
		peer := c.rank | mask
		if peer < p {
			pv, _, err := recvRaw[T](c, peer, tag)
			if err != nil {
				return zero, err
			}
			// This rank owns the lower contiguous rank interval, peer the
			// upper: keep left-to-right order.
			val = op(val, pv)
		}
	}
	switch {
	case c.rank == root && holds: // root == 0
		return val, nil
	case c.rank == 0 && holds:
		return zero, sendRaw(c, val, root, tag)
	case c.rank == root:
		got, _, err := recvRaw[T](c, 0, tag)
		if err != nil {
			return zero, err
		}
		return got, nil
	}
	return zero, nil
}

func reduceLinear[T any](c *Comm, v T, op func(T, T) T, root, tag int) (T, error) {
	var zero T
	if c.rank != root {
		if err := sendRaw(c, v, root, tag); err != nil {
			return zero, err
		}
		return zero, nil
	}
	// Fold in rank order, substituting the root's own value at its slot.
	var acc T
	first := true
	for r := 0; r < len(c.ranks); r++ {
		var rv T
		if r == root {
			rv = v
		} else {
			got, _, err := recvRaw[T](c, r, tag)
			if err != nil {
				return zero, err
			}
			rv = got
		}
		if first {
			acc = rv
			first = false
		} else {
			acc = op(acc, rv)
		}
	}
	return acc, nil
}

// Allreduce combines every rank's value and returns the result to all
// ranks (MPI_Allreduce). Large worlds use recursive doubling — every rank
// finishes after ceil(lg p) symmetric exchange rounds, half the latency
// of climbing the reduce tree twice; small worlds use the cheaper
// reduce-then-broadcast composition. op must be associative; both
// schedules fold in rank order, so results match even for non-commutative
// ops.
func Allreduce[T any](c *Comm, v T, op func(T, T) T) (T, error) {
	algo := c.algoFor(CollAllreduce, 0)
	sp := c.collBegin(CollAllreduce)
	sp.SetArg("algo", algo)
	defer sp.End()
	switch algo {
	case AlgoRecursiveDoubling:
		return allreduceRecursiveDoubling(c, v, op, c.nextCollTag())
	case AlgoComposed:
		return allreduceComposed(c, v, op)
	default:
		var zero T
		return zero, errUnknownAlgo(CollAllreduce, algo)
	}
}

// allreduceComposed always runs the textbook composition — a Reduce to
// rank 0 followed by a Bcast. It is both a registered algorithm and the
// test oracle for recursive doubling: the two must return identical
// results on every rank. Unexported: it is an algorithm and an oracle,
// not public API — tests reach it through export_test.go.
func allreduceComposed[T any](c *Comm, v T, op func(T, T) T) (T, error) {
	r, err := Reduce(c, v, op, 0)
	if err != nil {
		var zero T
		return zero, err
	}
	return Bcast(c, r, 0)
}

// allreduceRecursiveDoubling: the largest power-of-two subset of ranks
// exchanges partials pairwise at doubling strides. For a non-power-of-two
// p, the p-pof2 "extra" even ranks fold into their odd neighbours before
// the doubling rounds and receive the finished result after them, the
// standard pre/post step. Each active rank always holds the combination
// of a contiguous run of original ranks, and every pairwise merge orients
// the operands by rank order.
func allreduceRecursiveDoubling[T any](c *Comm, v T, op func(T, T) T, tag int) (T, error) {
	var zero T
	p := len(c.ranks)
	if p == 1 {
		return v, nil
	}

	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2

	// Pre-fold: even ranks below 2*rem hand their value to the odd rank
	// above, which combines keeping rank order (lower operand on the left).
	val := v
	newRank := -1 // -1: sitting out of the doubling rounds
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		if err := sendRaw(c, val, c.rank+1, tag); err != nil {
			return zero, err
		}
	case c.rank < 2*rem:
		low, _, err := recvRaw[T](c, c.rank-1, tag)
		if err != nil {
			return zero, err
		}
		val = op(low, val)
		newRank = c.rank / 2
	default:
		newRank = c.rank - rem
	}

	if newRank >= 0 {
		// realRank inverts the renumbering used for the doubling rounds.
		realRank := func(nr int) int {
			if nr < rem {
				return 2*nr + 1
			}
			return nr + rem
		}
		for mask := 1; mask < pof2; mask <<= 1 {
			peer := realRank(newRank ^ mask)
			if err := sendRaw(c, val, peer, tag); err != nil {
				return zero, err
			}
			pv, _, err := recvRaw[T](c, peer, tag)
			if err != nil {
				return zero, err
			}
			// The peer's partial covers the adjacent run of ranks; merge
			// with the lower run on the left.
			if newRank&mask == 0 {
				val = op(val, pv)
			} else {
				val = op(pv, val)
			}
		}
	}

	// Post: the folded-out even ranks get the finished result from their
	// odd neighbour.
	if c.rank < 2*rem {
		if c.rank%2 == 0 {
			got, _, err := recvRaw[T](c, c.rank+1, tag)
			if err != nil {
				return zero, err
			}
			val = got
		} else if err := sendRaw(c, val, c.rank-1, tag); err != nil {
			return zero, err
		}
	}
	return val, nil
}

// Gather concatenates every rank's slice at root in rank order
// (MPI_Gather, or MPI_Gatherv when contributions differ in length).
// Non-root ranks receive nil. Contributions may be ragged, so the
// schedule is chosen on world size alone: flat receives at the root for
// small and mid worlds, binomial bundling beyond.
func Gather[T any](c *Comm, send []T, root int) ([]T, error) {
	if root < 0 || root >= len(c.ranks) {
		return nil, ErrInvalidRank
	}
	tag := c.nextCollTag()
	algo := c.algoFor(CollGather, 0)
	sp := c.collBegin(CollGather)
	sp.SetArg("algo", algo)
	defer sp.End()
	switch algo {
	case AlgoLinear:
		return gatherLinear(c, send, root, tag)
	case AlgoBinomial:
		return gatherBinomial(c, send, root, tag)
	default:
		return nil, errUnknownAlgo(CollGather, algo)
	}
}

func gatherLinear[T any](c *Comm, send []T, root, tag int) ([]T, error) {
	if c.rank != root {
		return nil, sendRaw(c, send, root, tag)
	}
	var out []T
	for r := 0; r < len(c.ranks); r++ {
		if r == root {
			// Root's own contribution is deep-copied too, preserving the
			// everything-is-a-message-copy invariant.
			cp, err := DeepCopy(send)
			if err != nil {
				return nil, err
			}
			out = append(out, cp...)
			continue
		}
		part, _, err := recvRaw[[]T](c, r, tag)
		if err != nil {
			return nil, err
		}
		out = append(out, part...)
	}
	return out, nil
}

// gatherBinomial bundles contributions up a binomial tree: each node
// collects its subtree's slices into a relative-rank-indexed bundle and
// hands the bundle to its parent, so no rank takes more than ceil(lg p)
// receive turns.
func gatherBinomial[T any](c *Comm, send []T, root, tag int) ([]T, error) {
	p := len(c.ranks)
	rel := (c.rank - root + p) % p
	span := entryMask(rel, p)
	cover := span
	if rel+cover > p {
		cover = p - rel
	}

	bundle := make([][]T, cover)
	if rel == 0 {
		cp, err := DeepCopy(send)
		if err != nil {
			return nil, err
		}
		bundle[0] = cp
	} else {
		bundle[0] = send // serialized on the way up; no alias escapes
	}
	for mask := 1; mask < span && rel+mask < p; mask <<= 1 {
		child := (rel + mask + root) % p
		sub, _, err := recvRaw[[][]T](c, child, tag)
		if err != nil {
			return nil, err
		}
		copy(bundle[mask:], sub)
	}
	if rel != 0 {
		parent := ((rel - span) + root) % p
		return nil, sendRaw(c, bundle, parent, tag)
	}
	// Root: the bundle is in relative-rank order; emit in rank order.
	var out []T
	for r := 0; r < p; r++ {
		out = append(out, bundle[(r-root+p)%p]...)
	}
	return out, nil
}

// Allgather concatenates every rank's slice and returns it to all ranks
// (MPI_Allgather, MPI_Allgatherv for unequal contributions). Large worlds
// use the ring — each block travels once around, no rank handling more
// than one block per round — and small worlds the gather-then-broadcast
// composition, which moves fewer messages overall.
func Allgather[T any](c *Comm, send []T) ([]T, error) {
	algo := c.algoFor(CollAllgather, 0)
	sp := c.collBegin(CollAllgather)
	sp.SetArg("algo", algo)
	defer sp.End()
	switch algo {
	case AlgoRing:
		return allgatherRing(c, send, c.nextCollTag())
	case AlgoComposed:
		return allgatherComposed(c, send)
	default:
		return nil, errUnknownAlgo(CollAllgather, algo)
	}
}

// allgatherComposed always runs the composition — a Gather to rank 0
// followed by a Bcast. It is both a registered algorithm and the test
// oracle for the ring: the two must return identical results on every
// rank. Unexported: it is an algorithm and an oracle, not public API —
// tests reach it through export_test.go.
func allgatherComposed[T any](c *Comm, send []T) ([]T, error) {
	g, err := Gather(c, send, 0)
	if err != nil {
		return nil, err
	}
	return Bcast(c, g, 0)
}

// allgatherRing: in each of p-1 rounds every rank forwards the block it
// received in the previous round to rank+1 and receives a block from
// rank-1, so each block travels once around the ring and bandwidth is
// balanced across links instead of concentrating at a root.
func allgatherRing[T any](c *Comm, send []T, tag int) ([]T, error) {
	p := len(c.ranks)

	parts := make([][]T, p)
	own, err := DeepCopy(send)
	if err != nil {
		return nil, err
	}
	parts[c.rank] = own
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	for k := 0; k < p-1; k++ {
		// Forward the block that is k hops behind us on the ring; receive
		// the one k+1 hops behind. Per-pair FIFO delivery keeps successive
		// rounds on the shared tag in order.
		if err := sendRaw(c, parts[(c.rank-k+p)%p], next, tag); err != nil {
			return nil, err
		}
		got, _, err := recvRaw[[]T](c, prev, tag)
		if err != nil {
			return nil, err
		}
		parts[(c.rank-k-1+p)%p] = got
	}

	var out []T
	for _, part := range parts {
		out = append(out, part...)
	}
	return out, nil
}

// Scatter splits root's slice into Size() equal chunks and delivers the
// rank-th chunk to each rank (MPI_Scatter). len(send) at root must be a
// multiple of Size(); send is ignored at other ranks. Like Bcast, the
// root measures the encoded payload and its schedule choice travels in
// the frame header: flat sends for small worlds, chunk bundles split down
// a binomial tree beyond.
func Scatter[T any](c *Comm, send []T, root int) ([]T, error) {
	if root < 0 || root >= len(c.ranks) {
		return nil, ErrInvalidRank
	}
	tag := c.nextCollTag()
	p := len(c.ranks)
	sp := c.collBegin(CollScatter)
	defer sp.End()

	if c.rank == root {
		if len(send)%p != 0 {
			return nil, fmt.Errorf("mpi: Scatter: %d elements not divisible by %d ranks", len(send), p)
		}
		if p == 1 {
			return DeepCopy(send)
		}
		chunk := len(send) / p
		// Chunks in relative-rank order: chunks[rel] belongs to rank
		// (rel+root)%p.
		chunks := make([][]T, p)
		totalBytes := 0
		for rel := 0; rel < p; rel++ {
			r := (rel + root) % p
			chunks[rel] = send[r*chunk : (r+1)*chunk]
		}
		if raw, err := encodeMode(send, c.w.gobOnly); err == nil {
			totalBytes = len(raw)
			wirecodec.Put(raw)
		}
		algo := c.algoFor(CollScatter, totalBytes)
		sp.SetArg("algo", algo)
		hdr, ok := algoHeader(algo)
		if !ok {
			return nil, errUnknownAlgo(CollScatter, algo)
		}
		switch algo {
		case AlgoLinear:
			for rel := 1; rel < p; rel++ {
				f, err := encodeFramed(c, hdr, chunks[rel])
				if err != nil {
					return nil, err
				}
				if err := sendBytes(c, f, (rel+root)%p, tag); err != nil {
					return nil, err
				}
			}
		case AlgoBinomial:
			if err := scatterForward(c, chunks, 0, root, tag); err != nil {
				return nil, err
			}
		}
		return DeepCopy(chunks[0])
	}

	m, err := recvBytes(c, AnySource, tag)
	if err != nil {
		return nil, err
	}
	f := m.Payload
	if len(f) == 0 {
		return nil, fmt.Errorf("mpi: Scatter: empty frame")
	}
	algo, ok := algoFromHeader(f[0])
	if !ok {
		return nil, fmt.Errorf("mpi: Scatter: bad frame header %d", f[0])
	}
	sp.SetArg("algo", algo)
	if algo == AlgoLinear {
		out, err := decode[[]T](f[1:])
		if c.w.copies {
			wirecodec.Put(f) // pooled read buffer, last use (see Bcast)
		}
		return out, err
	}
	bundle, err := decode[[][]T](f[1:])
	if c.w.copies {
		wirecodec.Put(f)
	}
	if err != nil {
		return nil, err
	}
	rel := (c.rank - root + p) % p
	if err := scatterForward(c, bundle, rel, root, tag); err != nil {
		return nil, err
	}
	return bundle[0], nil
}

// scatterForward sends each binomial-tree child of the node at relative
// rank rel its sub-bundle of chunks. bundle is indexed by relative-rank
// offset from rel; the child at offset mask owns offsets [mask, 2*mask).
func scatterForward[T any](c *Comm, bundle [][]T, rel, root, tag int) error {
	p := len(c.ranks)
	for mask := entryMask(rel, p) >> 1; mask > 0; mask >>= 1 {
		if rel+mask >= p {
			continue
		}
		end := 2 * mask
		if end > len(bundle) {
			end = len(bundle)
		}
		f, err := encodeFramed(c, hdrBinomial, bundle[mask:end])
		if err != nil {
			return err
		}
		if err := sendBytes(c, f, (rel+mask+root)%p, tag); err != nil {
			return err
		}
	}
	return nil
}
