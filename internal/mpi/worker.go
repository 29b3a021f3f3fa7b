package mpi

import (
	"fmt"
	"time"

	"repro/internal/cluster"
)

// RunWorker executes body as one rank of a multi-process world: this
// process hosts exactly the given rank, and the transport (normally a
// cluster.RemoteTransport established through the launch package's
// rendezvous) reaches the other ranks in their own OS processes.
//
// Unlike Run, RunWorker executes body once, in the calling goroutine, and
// does not close the transport — the caller owns its lifecycle. The
// world's traffic counters, and so its telemetry fold, cover only this
// rank's traffic.
func RunWorker(rank, np int, tr cluster.Transport, body func(c *Comm) error, opts ...Option) error {
	w, err := newWorld(np, tr, opts)
	if err != nil {
		return err
	}
	if rank < 0 || rank >= np {
		return fmt.Errorf("mpi: worker rank %d out of range for np %d", rank, np)
	}
	c := newWorldComm(w, rank)
	defer func() {
		// Give in-flight eager sends a moment to drain before the caller
		// tears the process down; real MPI_Finalize performs a similar
		// quiescing step.
		time.Sleep(5 * time.Millisecond)
	}()
	err = body(c)
	w.fold()
	return err
}
