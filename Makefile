GO ?= go

.PHONY: build test vet lint fmtcheck race verify benchcheck bench smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repository's custom analyzers (internal/lint) over every
# package: determinism, conndeadline, lockrpc, wirebounds. Any finding
# fails the gate. No-torn-copy of the shared meters is vet's copylocks
# check over their sync/atomic fields. See DESIGN.md §10 for what each
# analyzer enforces and why.
lint:
	$(GO) run ./cmd/dhslint ./...

# fmtcheck fails if any tracked Go file is not gofmt-clean.
fmtcheck:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify is the full pre-merge gate: tier-1 (build + test) plus vet, the
# custom lint suite, formatting, and the race detector.
verify: build vet lint fmtcheck test race

# benchcheck runs the repo benchmark's own tests (bench/ is a module of
# its own, so `go test ./...` at the root does not reach it): its unit
# tests plus one -quick pass over a 3-node ring that fails if any symbol,
# flag, log line or /metrics series listed in bench/README.md "What the
# benchmark depends on" was renamed. The script holds the run to a list of
# known failures (two lines of TestQuickPass, its header says why).
benchcheck:
	GO=$(GO) ./scripts/benchcheck.sh

# smoke runs the multi-process end-to-end test: a 5-node dhsnode ring
# over loopback TCP, a known workload, and a counted estimate checked
# against the estimator's error envelope. Tune with NODES/ITEMS/TOL.
smoke:
	./scripts/smoke.sh

# bench runs the go-test benchmarks — the root hot-path benchmarks of
# perf_bench_test.go, internal/sketch's Add and Estimate for every
# estimator kind (the estimator-arithmetic rung), the simulator rungs
# under the sim_scan workload (internal/chord's lookup on both rings, internal/core's insert, refresh
# and count, and BenchmarkInsertLoaded's insert at sim_scan's load shape,
# one metric at a time and rotating), internal/chord's ring construction at N = 1024 and 10240
# (BenchmarkNew, with its allocated bytes), internal/faultdht's route through the fault layer (the path
# E12F's counting passes take), the internal/store probe-reply micro-benchmarks,
# the internal/wire codec rung (a kept probe request's encode and decode, and
# a probe reply shortened and decoded, stateless and kept, with allocs/op),
# the internal/netdht uncached-count, many-metric-count and insert rungs
# (exchanges and wire bytes per operation on loopback clusters) and the
# internal/serve sustained-throughput serving benchmarks (qps/p50/p99 and
# fan-outs per TTL against a real loopback ring) — and keeps the text in
# bench.out. The experiment and ablation tables are golden tests, not
# benchmarks: `make test` checks them. Benchmarks are for measuring
# while working; the numbers the repository compares from one commit to
# the next come from bench/ (BENCHMARK.json). The default BENCHTIME is a
# fixed duration: at one iteration per benchmark (-benchtime=1x, what
# CI's benchmark smoke step passes to check that the benchmarks run) a
# 60 ns path reads as microseconds of timer and cold-cache noise. The
# target exits with go test's status: the text goes to bench.out and is
# printed after, because a pipe into tee would exit with tee's under /bin/sh.
BENCHTIME ?= 1s

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=$(BENCHTIME) -benchmem . ./internal/sketch ./internal/chord ./internal/core ./internal/faultdht ./internal/store ./internal/wire ./internal/netdht ./internal/serve > bench.out 2>&1; \
	status=$$?; cat bench.out; exit $$status
