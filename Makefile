# The HyperModel Benchmark — common tasks.

GO ?= go

.PHONY: all build test test-race bench bench-paper bench-json fuzz vet lint fmt examples clean check chaos stress writers externalcheck crash cluster

all: build test

# Pre-merge gate: static checks, the race detector, the concurrency
# stress, the chaos soak, the crash/corruption sweeps, the sharded
# cluster gate, and a short fuzz smoke of the wire-protocol decoder.
check: vet test-race stress chaos writers crash cluster externalcheck
	$(GO) test -fuzz FuzzDecodeCommit -fuzztime 5s ./internal/remote

# Single-writer/multi-reader stress: concurrent readers race a
# committing writer under the race detector, and every answer must
# match single-threaded ground truth (see concurrent_stress_test.go
# and the backendtest ConcurrentReads conformance check).
stress:
	$(GO) test -race -run Concurrent -count=1 -v .

# Fault-injection soak: the full benchmark matrix over the page server
# behind a proxy dropping, delaying and mid-frame-cutting transfers;
# results must match a fault-free run and commits apply exactly once.
chaos:
	$(GO) test -race -run 'TestChaosRemoteMatrix|TestClientThroughFlakyProxy' -count=1 -v . ./internal/remote

# Multi-writer gate for group commit: W concurrent writer clients on
# disjoint and contended pages (exactly-once rotation ground truth),
# the serialized baseline, the group-commit crash-point sweeps, and
# the 4-writer chaos soak — all under the race detector.
writers:
	$(GO) test -race -run 'Writers|GroupCommitCrash' -count=1 -v . ./internal/storage/store

# Power-cut and corruption gate (DESIGN.md §13): the deterministic
# crash-point sweeps over every fsync barrier and mid-write tear
# point, the all-or-nothing group-commit cuts, the corruption
# taxonomy on every read path (pager, views, snapshots, remote), the
# scrub pass, and the crash FS's own settle-model tests — all on the
# in-memory VFS, byte-deterministic across machines.
crash:
	$(GO) test -run 'Crash|PowerCut|Torn|TruncationPoint|Scrub|Corrupt|Settle|Sector|Degrades' -count=1 -v ./internal/storage/... ./internal/remote

# Sharded cluster gate (DESIGN.md §14): the routing edge cases and the
# cross-shard 2PC paths (commit, conflict, in-doubt resolution,
# presumed abort) under the race detector, the store's prepared-state
# durability sweeps, and a short E20 run whose chaos soak kills and
# restarts a shard mid-run under cross-shard traffic and checks
# atomicity, exactly-once bounds, and byte-identical reads.
cluster:
	$(GO) test -race -run Cluster -count=1 -v ./internal/remote
	$(GO) test -run 'Prepare|Decide|TokenKeep' -count=1 ./internal/storage/store
	$(GO) run ./cmd/hyperbench -exp shards -shards 2 -window 250ms -rtt 500us -soak 1s

# The external consumer module: compiles and runs against the exported
# facade only (it cannot import internal packages), so it breaks first
# when the public API leaks internal types or semantics.
externalcheck:
	cd testmod && $(GO) mod tidy -diff && $(GO) test ./...

build:
	$(GO) build ./...

vet: lint
	$(GO) vet ./...

# The repo's own analyzers (internal/analysis, DESIGN.md §9) run as a
# vet tool so test variants are covered too. Exit 1 means findings.
lint:
	$(GO) build -o bin/hyperlint ./cmd/hyperlint
	$(GO) vet -vettool=$(CURDIR)/bin/hyperlint ./...

fmt:
	gofmt -l -w .

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The Go benchmark suite (one bench per paper table/figure plus
# storage-layer micro-benchmarks).
bench:
	$(GO) test -bench=. -benchmem ./...

# The paper's full evaluation: all experiments, all backends, level 4.
# Use LEVEL=5 or LEVEL=6 for the larger databases.
LEVEL ?= 4
bench-paper:
	$(GO) run ./cmd/hyperbench -level $(LEVEL)

# The repository's own benchmark (bench/README.md): every workload,
# both passes and the probes, as one JSON report for `go run ./bench
# -compare`. Diagnostics go to standard error.
bench-json:
	bash bench/run.sh > BENCH.json

# Short fuzz pass over every fuzz target.
fuzz:
	$(GO) test -fuzz FuzzDecodeObject -fuzztime 10s ./internal/backend/oodb
	$(GO) test -fuzz FuzzParse -fuzztime 10s ./internal/query
	$(GO) test -fuzz FuzzDecodeCommit -fuzztime 10s ./internal/remote
	$(GO) test -fuzz FuzzClientDemux -fuzztime 10s ./internal/remote
	$(GO) test -fuzz FuzzServerStream -fuzztime 10s ./internal/remote
	$(GO) test -fuzz FuzzDecodeBitmap -fuzztime 10s ./internal/hyper
	$(GO) test -fuzz FuzzDecodePolicy -fuzztime 10s ./internal/acl

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/archive
	$(GO) run ./examples/linkdistance
	$(GO) run ./examples/multiuser
	$(GO) run ./examples/editor

clean:
	rm -f test_output.txt bench_output.txt
