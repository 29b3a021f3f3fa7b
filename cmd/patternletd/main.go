// Command patternletd serves the patternlet collection over HTTP: a
// classroom-sized execution service where students POST a patternlet key
// (plus tasks, toggles, and an optional timeout) and get back the run's
// output, phase trace, and counters as JSON.
//
//	patternletd -addr :8080 -workers 4 -queue 32
//
// Several daemons form a cluster by sharing a static membership table;
// each run key is placed on a consistent-hash ring over the members and
// a /run landing on a non-owner is forwarded to the owner (with retry,
// hedged failover, and rehashing if the owner is dead):
//
//	patternletd -node-id n1 -peers n1=127.0.0.1:7101,n2=127.0.0.1:7102,n3=127.0.0.1:7103
//
// Endpoints:
//
//	POST /run          {"key":"spmd.omp","tasks":4,"toggles":{"parallel":true}}
//	POST /worker       host one rank of a cluster-spanning MPI world (cluster mode)
//	GET  /patternlets  catalog listing
//	GET  /healthz      liveness + admission stats (+ ring ownership in cluster mode)
//	GET  /metrics      text counter summary
//	GET  /metrics.json counter snapshot
//	GET  /trace/{id}   Chrome trace retained from a "trace":true run
//	GET  /runs         stored run history, ?key= filters (with -store-dir)
//	GET  /runs/{id}    one stored run with its full output (with -store-dir)
//
// With -store-dir the daemon keeps a persistent, content-addressed run
// store: a repeat /run of a deterministic patternlet (same tasks,
// toggles, seed) is answered from the store without executing, marked
// "cached":true in the response, and the cache survives restarts:
//
//	patternletd -store-dir /var/lib/patternletd -store-max-bytes 67108864
//
// The service executes through the same Registry.Run entry point as the
// patternlet CLI; admission control (bounded queue, worker pool,
// per-request timeouts, graceful drain) and cluster placement live in
// internal/serve.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/collection"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	workers := flag.Int("workers", serve.DefaultWorkers, "worker pool size (max concurrent runs)")
	queue := flag.Int("queue", serve.DefaultQueueDepth, "admission queue depth beyond the running jobs")
	timeout := flag.Duration("timeout", serve.DefaultRequestTimeout, "default per-request execution timeout")
	maxTimeout := flag.Duration("max-timeout", serve.DefaultMaxTimeout, "cap on the timeout a request may ask for")
	drainWait := flag.Duration("drain", 30*time.Second, "how long shutdown waits for in-flight runs")
	nodeID := flag.String("node-id", "", "this node's id in a multi-node cluster (enables cluster mode)")
	peers := flag.String("peers", "", "static membership table, id=host:port comma-separated, including this node")
	vnodes := flag.Int("vnodes", 0, "virtual nodes per member on the placement ring (0 = default)")
	probeEvery := flag.Duration("probe-interval", serve.DefaultProbeInterval,
		"how often members marked down are re-probed for recovery (cluster mode)")
	storeDir := flag.String("store-dir", "", "directory for the persistent run store; repeat runs of deterministic patternlets are served from it (off when empty)")
	storeMax := flag.Int64("store-max-bytes", store.DefaultMaxBytes, "byte budget for the run store's live records (LRU eviction past it)")
	flag.Parse()

	opts := []serve.Option{
		serve.WithWorkers(*workers),
		serve.WithQueueDepth(*queue),
		serve.WithTimeout(*timeout),
		serve.WithMaxTimeout(*maxTimeout),
	}
	var runStore *store.Store
	if *storeDir != "" {
		var err error
		runStore, err = store.Open(*storeDir, store.WithMaxBytes(*storeMax))
		if err != nil {
			log.Fatalf("patternletd: -store-dir: %v", err)
		}
		opts = append(opts, serve.WithStore(runStore))
	}
	var cc *serve.ClusterConfig
	if *nodeID != "" || *peers != "" {
		table, err := parsePeers(*peers)
		if err != nil {
			log.Fatalf("patternletd: -peers: %v", err)
		}
		cc = &serve.ClusterConfig{Self: *nodeID, Peers: table, Replicas: *vnodes, ProbeInterval: *probeEvery}
		if err := cc.Validate(); err != nil {
			log.Fatalf("patternletd: %v", err)
		}
		opts = append(opts, serve.WithCluster(*cc))
		// In cluster mode the membership table already names this node's
		// address; listen there unless -addr was set explicitly.
		if !flagWasSet("addr") {
			*addr = table[*nodeID]
		}
	}
	srv := serve.New(collection.Default, opts...)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("patternletd: listen %s: %v", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Written after the listener is live so smoke scripts can poll
		// for the file and connect immediately.
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatalf("patternletd: write -addr-file: %v", err)
		}
	}
	if cc != nil {
		log.Printf("patternletd: serving %d patternlets on http://%s (workers=%d queue=%d, node %s of %d-member ring)",
			collection.Default.Len(), bound, *workers, *queue, cc.Self, len(cc.Peers))
	} else {
		log.Printf("patternletd: serving %d patternlets on http://%s (workers=%d queue=%d)",
			collection.Default.Len(), bound, *workers, *queue)
	}
	if runStore != nil {
		log.Printf("patternletd: run store at %s (%d stored runs, budget %d bytes)",
			*storeDir, runStore.Len(), *storeMax)
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: serve.ReadHeaderTimeout,
		IdleTimeout:       serve.IdleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		log.Printf("patternletd: %v — draining", sig)
	case err := <-errCh:
		log.Fatalf("patternletd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Stop admitting first (new POSTs bounce with 503), then let the
	// already-accepted jobs finish, then close the HTTP listener.
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("patternletd: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("patternletd: http shutdown: %v", err)
	}
	if runStore != nil {
		// Closed after the drain: in-flight runs may still persist their
		// results until Shutdown returns.
		if err := runStore.Close(); err != nil {
			log.Printf("patternletd: store close: %v", err)
		}
	}
	fmt.Fprintln(os.Stderr, "patternletd: drained")
}

// parsePeers parses the -peers table: "n1=127.0.0.1:7101,n2=127.0.0.1:7102".
func parsePeers(s string) (map[string]string, error) {
	table := map[string]string{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, addr, ok := strings.Cut(entry, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad entry %q, want id=host:port", entry)
		}
		if _, dup := table[id]; dup {
			return nil, fmt.Errorf("duplicate node id %q", id)
		}
		table[id] = addr
	}
	return table, nil
}

// flagWasSet reports whether the named flag appeared on the command line.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
