package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/launch"
)

// This file is the cluster-spanning MPI path: instead of running an MPI
// patternlet's world as goroutine ranks inside one daemon, the owner
// node plays the paper's mpirun — it opens a launch.Rendezvous, keeps
// rank 0 for itself, asks each live member to host its share of the
// remaining ranks over POST /worker, and splices the per-rank outputs
// back together in rank order. Every byte between ranks then crosses a
// real socket between daemon processes with disjoint address spaces,
// exactly the topology the paper's Beowulf cluster runs had.

// WorkerRequest asks a member daemon to host one rank of a world. It
// carries every run input that must agree across ranks — toggles,
// declared params, and the seed — because a rank that regenerated its
// share of a parameterized problem from different inputs would compute a
// different world than its peers.
type WorkerRequest struct {
	Key        string          `json:"key"`
	Rank       int             `json:"rank"`
	NP         int             `json:"np"`
	Rendezvous string          `json:"rendezvous"`
	Toggles    map[string]bool `json:"toggles,omitempty"`
	Params     map[string]int  `json:"params,omitempty"`
	Seed       int64           `json:"seed,omitempty"`
	TimeoutMS  int64           `json:"timeout_ms,omitempty"`
}

// WorkerResponse is the hosted rank's outcome: its captured output, or
// the error that stopped it.
type WorkerResponse struct {
	Rank   int    `json:"rank"`
	Node   string `json:"node"`
	Output string `json:"output"`
	Error  string `json:"error,omitempty"`
}

// span launches req's patternlet as a world spread across the live
// cluster members and gathers the result. It runs inside an admitted
// LocalExecutor job on the owner node, so a distributed world competes
// for admission exactly like a local run.
func (x *shardedExecutor) span(ctx context.Context, req ExecRequest) (core.Result, error) {
	p, ok := x.local.reg.Get(req.Key)
	if !ok {
		return core.Result{Key: req.Key}, fmt.Errorf("serve: no patternlet %q", req.Key)
	}
	if p.Model != core.MPI && p.Model != core.Hybrid {
		return core.Result{Key: req.Key},
			fmt.Errorf("serve: distribute: %q is a %s patternlet; worlds span only MPI and MPI+OpenMP programs", req.Key, p.Model)
	}
	np := p.ResolveTasks(req.Opts.NumTasks)
	res := core.Result{Key: req.Key, NumTasks: np}

	members := x.liveMembers()
	if len(members) == 0 {
		members = []string{x.self}
	}
	// Host rank 0 here (the owner holds the admitted job), then deal the
	// remaining ranks round-robin over the live members so an np > members
	// world still places every rank.
	hosts := make([]string, np)
	hosts[0] = x.self
	others := make([]string, 0, len(members))
	for _, m := range members {
		if m != x.self {
			others = append(others, m)
		}
	}
	pool := append(others, x.self)
	for rank := 1; rank < np; rank++ {
		hosts[rank] = pool[(rank-1)%len(pool)]
	}

	rz, err := launch.NewRendezvousOn(x.advertiseHost(), np)
	if err != nil {
		return res, err
	}
	defer rz.Close()
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			rz.Timeout = rem
		}
	}
	rzErr := make(chan error, 1)
	go func() { rzErr <- rz.Wait() }()

	x.counters.Counter(ctrSpanWorlds).Inc()
	start := time.Now()
	outputs := make([]string, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for rank := 0; rank < np; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if hosts[rank] == x.self {
				outputs[rank], errs[rank] = x.hostRank(ctx, req.Key, rank, np, rz.Addr(), req.Opts)
				return
			}
			outputs[rank], errs[rank] = x.remoteRank(ctx, hosts[rank], req.Key, rank, np, rz.Addr(), req.Opts)
		}(rank)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	// Output splice: rank order, which is deterministic where real MPI
	// stdout interleaving is not — friendlier for the classroom and for
	// the smoke test's greps.
	var sb strings.Builder
	for rank := 0; rank < np; rank++ {
		out := outputs[rank]
		if out == "" {
			continue
		}
		sb.WriteString(out)
		if !strings.HasSuffix(out, "\n") {
			sb.WriteByte('\n')
		}
	}
	res.Output = sb.String()

	allErrs := make([]error, 0, np+1)
	for rank, e := range errs {
		if e != nil {
			allErrs = append(allErrs, fmt.Errorf("rank %d on %s: %w", rank, hosts[rank], e))
		}
	}
	if err := <-rzErr; err != nil && len(allErrs) == 0 {
		// Rendezvous failures normally surface through the rank errors;
		// report the root cause if somehow only the exchange failed.
		allErrs = append(allErrs, err)
	}
	return res, errors.Join(allErrs...)
}

// hostRank runs one rank of the world inside this daemon process: its
// own RemoteTransport, its own capture, the shared rendezvous. The run
// goes straight through the registry — not the admission queue — because
// the world as a whole already holds an admitted job; queueing its ranks
// behind that job would deadlock a small worker pool against itself.
func (x *shardedExecutor) hostRank(ctx context.Context, key string, rank, np int, rendezvous string, opts core.RunOptions) (string, error) {
	tr, err := launch.ConnectOn(x.advertiseHost(), rank, np, rendezvous)
	if err != nil {
		return "", err
	}
	defer tr.Close()
	res, err := x.local.reg.Run(ctx, key, core.RunOptions{
		NumTasks: np,
		Toggles:  opts.Toggles,
		Params:   opts.Params,
		Seed:     opts.Seed,
		Remote:   &core.RemoteExec{Rank: rank, NP: np, Transport: tr},
	})
	return res.Output, err
}

// advertiseHost is the host part of this node's entry in the peer
// table: the address the other members dial, so the rendezvous and
// rank-data listeners of a cluster-spanning world bind on it — loopback
// only reaches co-located daemons, routable peer addresses make the
// world span hosts. A wildcard or unparseable entry falls back to
// loopback ("" selects it downstream).
func (x *shardedExecutor) advertiseHost() string {
	return advertiseHost(x.addrs[x.self])
}

func advertiseHost(addr string) string {
	host, _, err := net.SplitHostPort(addr)
	if err != nil || host == "" || host == "0.0.0.0" || host == "::" {
		return ""
	}
	return host
}

// remoteRank asks a member daemon to host one rank via POST /worker and
// waits for the rank to finish.
func (x *shardedExecutor) remoteRank(ctx context.Context, node, key string, rank, np int, rendezvous string, opts core.RunOptions) (string, error) {
	wreq := WorkerRequest{
		Key: key, Rank: rank, NP: np,
		Rendezvous: rendezvous, Toggles: opts.Toggles,
		Params: opts.Params, Seed: opts.Seed,
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		wreq.TimeoutMS = ms
	}
	body, err := json.Marshal(wreq)
	if err != nil {
		return "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+x.addrs[node]+"/worker", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := x.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			// The span was cancelled or timed out on our side; every
			// in-flight worker POST fails with the ctx error, which says
			// nothing about the peers' health.
			return "", ctx.Err()
		}
		x.markDown(node)
		return "", &peerDownError{node: node, err: err}
	}
	defer resp.Body.Close()
	var wr WorkerResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return "", fmt.Errorf("serve: decode worker reply (%d): %w", resp.StatusCode, err)
	}
	if wr.Error != "" {
		return wr.Output, fmt.Errorf("serve: worker on %s: %s", node, wr.Error)
	}
	if resp.StatusCode != http.StatusOK {
		return wr.Output, fmt.Errorf("serve: worker on %s: status %d", node, resp.StatusCode)
	}
	return wr.Output, nil
}

// hostWorker is the /worker handler body: host the requested rank in
// this process. It bypasses the admission queue for the same reason
// hostRank does — the world already holds exactly one admitted slot, at
// its owner.
func (x *shardedExecutor) hostWorker(ctx context.Context, wreq WorkerRequest) WorkerResponse {
	out := WorkerResponse{Rank: wreq.Rank, Node: x.self}
	if wreq.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(wreq.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	x.counters.Counter(ctrWorkerRanks).Inc()
	output, err := x.hostRank(ctx, wreq.Key, wreq.Rank, wreq.NP, wreq.Rendezvous,
		core.RunOptions{Toggles: wreq.Toggles, Params: wreq.Params, Seed: wreq.Seed})
	out.Output = output
	if err != nil {
		out.Error = err.Error()
	}
	return out
}
