# The paper ships each patternlet with a Makefile; this is the repo-wide
# equivalent. Everything is stdlib-only Go — no external dependencies.

GO ?= go

.PHONY: all build vet test race stress-omp stress-store fuzz serve serve-smoke cluster-smoke load-smoke bench bench-json figures study lab examples catalog clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The runtime's lock-free fast paths (pool handoff, spin-then-park join,
# atomic chunk dispensers), the communication stack's atomic traffic
# counters, and the telemetry spine's concurrent counter/event plumbing
# make the race detector part of the default test gate, not an optional
# extra. The gate covers every internal package and the patternlets, the
# same list `make race` runs.
RACE_PKGS = ./internal/... ./patternlets

test: vet
	$(GO) test ./...
	$(GO) test -race $(RACE_PKGS)

race:
	$(GO) test -race $(RACE_PKGS)

# Repeat the omp scheduler's lost-wakeup regression test (about 3s of
# wavefront-shaped regions per run) twenty times; a hung region crashes
# the test with every goroutine's stack.
stress-omp:
	$(GO) test -run '^TestParkedThreadsNeverLoseAWakeup$$' -count=20 ./internal/omp

# Repeat the run store's concurrency and crash tests twenty times under
# the race detector: puts, gets and compactions racing the writer
# goroutine, reads from the pending batch, the pending bound, log copies
# taken mid-write, failed batch writes and torn tails.
STORE_STRESS = TestConcurrentStress|TestPutReadsBackWhileWriterHeld|TestPutWaitsPastPendingLimit|TestLogCopiesReopenToPrefix|TestWriteFailureDropsBatch|TestCompactionFailureKeepsPending|TestReopenTruncatesTornTail
stress-store:
	$(GO) test -race -run '^($(STORE_STRESS))$$' -count=20 ./internal/store

# Run each fuzz target for 10s past its seed corpus (plain `go test`
# only replays the seeds): the mpi wire codec, run-store replay, the
# cluster frame reader, and /run and /worker request bodies.
fuzz:
	$(GO) test -run '^$$' -fuzz='^FuzzWireCodecRoundTrip$$' -fuzztime=10s ./internal/mpi
	$(GO) test -run '^$$' -fuzz='^FuzzStoreReplay$$' -fuzztime=10s ./internal/store
	$(GO) test -run '^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz='^FuzzRunBody$$' -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz='^FuzzWorkerBody$$' -fuzztime=10s ./internal/serve

# Run the patternlet HTTP service with classroom defaults.
serve:
	$(GO) run ./cmd/patternletd

# End-to-end smoke of patternletd: boot on an ephemeral port, run one
# OpenMP and one MPI patternlet over HTTP, check /healthz and /metrics.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke of the multi-node daemon: boot a 3-member ring, run
# omp and distributed mpi through a non-owner, SIGKILL one member, and
# verify its keys rehash to the survivors.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# End-to-end smoke of the load harness: boot patternletd, run a short
# closed-loop patternletbench phase, and assert nonzero throughput plus
# a parseable percentile report. Finishes well under 30s.
load-smoke:
	sh scripts/load_smoke.sh

bench:
	$(GO) test -bench=. -benchmem ./...

# Record a benchmark suite as BENCH_<date>[_label].json; SUITE=comm
# records the communication-stack suite (BENCH_<date>_comm.json),
# SUITE=tasks the task-runtime suite, SUITE=store the run-store
# hit-vs-execute suite, and SUITE=load the serving-pipeline
# instrumentation pair. Compare two recordings with:
# go run ./cmd/benchjson -compare old.json new.json
SUITE ?= tier1
bench-json:
	$(GO) run ./cmd/benchjson -suite "$(SUITE)" -label "$(LABEL)"

figures:
	$(GO) run ./cmd/figures

study:
	$(GO) run ./cmd/evalstudy

lab:
	$(GO) run ./cmd/labmatrix

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/redpixels
	$(GO) run ./examples/montecarlo
	$(GO) run ./examples/mergesort
	$(GO) run ./examples/heat
	$(GO) run ./examples/sorting

catalog:
	$(GO) run ./cmd/patternlet doc > docs/CATALOG.md

clean:
	$(GO) clean ./...
