#!/bin/bash
# BENCHMARK.json's command: `go run ./bench` with the Go build cache inside
# the checkout, because the benchmark may write nowhere else. Run from the
# repository root; arguments are passed on.
export GOCACHE="$PWD/.bench_build/go-cache"
exec go run ./bench "$@"
