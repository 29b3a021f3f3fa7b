// Package mpi is a message-passing runtime modeled on MPI, built on
// goroutine "processes" connected by the cluster package's transports.
//
// The paper's 16 MPI patternlets use a compact slice of MPI-1/MPI-2:
// MPI_Init/Finalize (the Run harness here), MPI_Comm_rank/size,
// MPI_Get_processor_name, MPI_Send/Recv with tags and wildcards,
// MPI_Barrier, MPI_Bcast, MPI_Scatter, MPI_Gather, MPI_Reduce /
// MPI_Allreduce with the standard operator set, and communicator
// splitting. All of that is provided here with Go-typed generics instead
// of (buf, count, datatype) triples:
//
//	mpi.Run(4, func(c *mpi.Comm) error {
//	    fmt.Printf("Hello from process %d of %d on %s\n",
//	        c.Rank(), c.Size(), c.ProcessorName())
//	    return nil
//	})
//
// Address-space isolation is real: every value sent between ranks is
// serialized to bytes (encoding/gob) and rebuilt on the receiving side, so
// no two ranks ever share a pointer — the defining property of the
// distributed-memory model in §I.A of the paper.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// AnySource matches messages from any sender, like MPI_ANY_SOURCE.
const AnySource = -1

// AnyTag matches messages with any non-negative tag, like MPI_ANY_TAG.
const AnyTag = -1

// ErrDeadlock is returned by receive operations when the communicator's
// receive timeout elapses — the runtime's stand-in for the hang that the
// paper's messagePassing deadlock patternlet demonstrates.
var ErrDeadlock = errors.New("mpi: receive timed out (probable deadlock)")

// ErrInvalidRank reports a destination or source rank outside the
// communicator.
var ErrInvalidRank = errors.New("mpi: rank out of range")

// ErrInvalidTag reports a negative user tag (negative tags are reserved
// for internal collective traffic).
var ErrInvalidTag = errors.New("mpi: user tags must be non-negative")

// Undefined is the color value that opts a rank out of a Split, like
// MPI_UNDEFINED.
const Undefined = -1

// Status describes a received message, like MPI_Status.
type Status struct {
	Source int // sender's rank within the communicator
	Tag    int
	Bytes  int // payload size on the wire
}

// world is the per-Run shared runtime: transport, node map, receive
// policy and traffic counters. Under Run all ranks share one world object;
// under RunWorker (multi-process execution) each OS process holds its own
// equivalent world, which is safe because nothing in it requires
// cross-rank shared state.
type world struct {
	np          int
	tr          cluster.Transport
	cl          *cluster.Cluster
	recvTimeout time.Duration
	collAlgo    map[string]string // WithCollectiveAlgorithm overrides (read-only once running)
	// copies caches cluster.SendCopiesPayload(tr): true when the transport
	// serializes payloads on Send, letting senders recycle encode buffers
	// immediately; false when the payload rides to the receiver, which
	// recycles it after decoding.
	copies bool
	// gobOnly forces every payload through the gob fallback — the switch
	// the equivalence tests flip to pin the fast codec against the oracle.
	gobOnly bool
	// tele is the process-wide telemetry collector, cached once when the
	// world starts: every collective checks this plain field against nil,
	// so a disabled run pays no atomic load per operation. A collector
	// enabled mid-run attaches at the next Run. codecBase is the codec
	// counters at that moment, for the world-end fold.
	tele      *telemetry.Collector
	codecBase map[string]int64

	mu      sync.Mutex
	traffic map[int]*trafficBucket // communicator id -> counters (traffic.go)
}

// Comm is one rank's handle on a communicator, like MPI_Comm plus the
// implicit rank of the calling process. Each rank receives its own *Comm;
// a Comm must only be used from the goroutine-process it was given to.
type Comm struct {
	w     *world
	id    int
	rank  int   // this process's rank within the communicator
	ranks []int // communicator rank -> world rank
	// fromWorld maps world rank -> communicator rank (-1 for non-members).
	// World ranks are small dense ints, so a slice keeps the per-receive
	// status lookup to an index instead of a map probe.
	fromWorld []int
	collSeq   int            // per-rank counter of collective operations, for tag agreement
	traffic   *trafficBucket // shared with every rank of this communicator
}

// newComm builds rank's handle on communicator id over the world ranks in
// ranks (communicator rank -> world rank).
func newComm(w *world, id, rank int, ranks []int) *Comm {
	fw := make([]int, w.np)
	for i := range fw {
		fw[i] = -1
	}
	for cr, wr := range ranks {
		fw[wr] = cr
	}
	return &Comm{w: w, id: id, rank: rank, ranks: ranks, fromWorld: fw, traffic: w.bucket(id)}
}

// Rank returns the calling process's rank in this communicator
// (MPI_Comm_rank).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processes in this communicator
// (MPI_Comm_size).
func (c *Comm) Size() int { return len(c.ranks) }

// WorldRank returns the calling process's rank in the original world
// communicator.
func (c *Comm) WorldRank() int { return c.ranks[c.rank] }

// ProcessorName returns the simulated cluster node hosting this process
// (MPI_Get_processor_name), e.g. "node-01".
func (c *Comm) ProcessorName() string {
	return c.w.cl.NodeFor(c.WorldRank()).Name
}

// Wtime returns elapsed wall-clock seconds since an arbitrary fixed point
// (MPI_Wtime).
func (c *Comm) Wtime() float64 { return time.Since(wtimeEpoch).Seconds() }

var wtimeEpoch = time.Now()

// Stats reports the traffic this communicator has put on the wire so far,
// summed over its ranks: message and byte counts for sends and receives,
// plus per-peer counts keyed by world rank. Counting happens at the
// runtime's own send and receive sites, above the transport, so the
// numbers are identical whether the world runs over channels or TCP.
// Counters remain readable after Run returns, which is how tests assert a
// collective's message complexity (e.g. a binomial broadcast over 8 ranks
// costs exactly 7 sends).
func (c *Comm) Stats() TrafficStats { return c.traffic.snapshot() }

// nextCollTag reserves the next internal (negative) tag for a collective.
// Because all ranks of a communicator execute collectives in the same
// order, each rank computes the same tag independently.
func (c *Comm) nextCollTag() int {
	c.collSeq++
	return -1 - c.collSeq
}

// Option configures a Run harness. All options follow the WithX
// functional-option convention shared with omp.Option and serve's
// server configuration.
type Option func(*runConfig)

type runConfig struct {
	useTCP      bool
	nodes       int
	latency     time.Duration
	recvTimeout time.Duration
	transport   cluster.Transport
	collAlgo    map[string]string
	gobOnly     bool
}

// WithGobWire forces every payload through the gob fallback codec,
// bypassing the typed fast paths. The equivalence tests use it to pin the
// fast codec against the gob oracle (same collectives, byte-identical
// results), and the wire benchmarks use it to measure what the fast codec
// buys. Production code should never need it.
func WithGobWire() Option { return func(c *runConfig) { c.gobOnly = true } }

// WithTCP runs the world over the loopback TCP transport instead of
// in-process channels.
func WithTCP() Option { return func(c *runConfig) { c.useTCP = true } }

// WithNodes sets the simulated cluster's node count; ranks are placed
// round-robin. The default is one node per process, matching Figure 6
// (process i on node-0(i+1)).
func WithNodes(n int) Option { return func(c *runConfig) { c.nodes = n } }

// WithLatency adds a synthetic per-message one-way delay, modeling
// interconnect cost. It works over any transport — channel, TCP, or one
// supplied via WithTransport — by wrapping it in the cluster package's
// Latency middleware.
func WithLatency(d time.Duration) Option { return func(c *runConfig) { c.latency = d } }

// WithRecvTimeout bounds every blocking receive; on expiry the receive
// fails with ErrDeadlock. Zero (the default) blocks forever, like real
// MPI.
func WithRecvTimeout(d time.Duration) Option { return func(c *runConfig) { c.recvTimeout = d } }

// WithTransport supplies a caller-built transport (e.g. a
// cluster.FaultInjector wrapping one of the standard transports for
// failure-injection tests). It overrides WithTCP; WithLatency still
// applies, wrapped around the supplied transport. Run still closes the
// transport when the world ends.
func WithTransport(tr cluster.Transport) Option {
	return func(c *runConfig) { c.transport = tr }
}

// newWorld resolves opts into the runtime of an np-rank world — the one
// constructor Run and RunWorker share. A nil tr builds the transport the
// options ask for (Run); RunWorker passes its caller's. Either way
// WithLatency wraps it.
func newWorld(np int, tr cluster.Transport, opts []Option) (*world, error) {
	if np < 1 {
		return nil, fmt.Errorf("mpi: np must be >= 1, got %d", np)
	}
	cfg := runConfig{nodes: np}
	for _, o := range opts {
		o(&cfg)
	}
	if err := validateCollAlgo(cfg.collAlgo); err != nil {
		return nil, err
	}
	switch {
	case tr != nil: // RunWorker's own transport
	case cfg.transport != nil:
		tr = cfg.transport
	case cfg.useTCP:
		t, err := cluster.NewTCPTransport(np)
		if err != nil {
			return nil, err
		}
		tr = t
	default:
		tr = cluster.NewChanTransport(np)
	}
	if cfg.latency > 0 {
		tr = cluster.NewLatency(tr, cfg.latency)
	}
	w := &world{
		np:          np,
		tr:          tr,
		cl:          cluster.New(cfg.nodes),
		recvTimeout: cfg.recvTimeout,
		collAlgo:    cfg.collAlgo,
		copies:      cluster.SendCopiesPayload(tr),
		gobOnly:     cfg.gobOnly,
		tele:        telemetry.Active(),
		traffic:     map[int]*trafficBucket{},
	}
	if w.tele != nil {
		w.codecBase = codecSnapshot()
	}
	return w, nil
}

// Run launches np ranked processes, each executing body with its own world
// communicator, and blocks until all finish (MPI_Init through
// MPI_Finalize). The returned error joins every rank's error; a panicking
// rank is reported as an error rather than crashing the caller.
func Run(np int, body func(c *Comm) error, opts ...Option) error {
	w, err := newWorld(np, nil, opts)
	if err != nil {
		return err
	}
	defer w.tr.Close()

	errs := make([]error, np)
	var wg sync.WaitGroup
	wg.Add(np)
	for rank := 0; rank < np; rank++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, r)
				}
			}()
			c := newWorldComm(w, rank)
			if err := body(c); err != nil {
				errs[rank] = fmt.Errorf("mpi: rank %d: %w", rank, err)
			}
		}(rank)
	}
	wg.Wait()
	// Surface the world's traffic in the process-wide counter set before
	// the transport closes.
	w.fold()
	return errors.Join(errs...)
}

func newWorldComm(w *world, rank int) *Comm {
	ranks := make([]int, w.np)
	for i := range ranks {
		ranks[i] = i
	}
	return newComm(w, 0, rank, ranks)
}
