GO ?= go

.PHONY: build test vet lint fmtcheck race verify benchcheck bench smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repository's custom analyzers (internal/lint) over every
# package: determinism, maporder, dhterrors, panicmsg, lockedcopy,
# conndeadline, lockrpc, gorolifecycle, wirebounds. Findings listed in
# the checked-in baseline are tolerated; everything else fails the gate.
# See DESIGN.md §10 for what each analyzer enforces and why.
lint:
	$(GO) run ./cmd/dhslint -baseline .dhslint-baseline ./...

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
# benchmark depends on" was renamed.
benchcheck:
	cd bench && $(GO) test ./...

# smoke runs the multi-process end-to-end test: a 5-node dhsnode ring
# over loopback TCP, a known workload, and a counted estimate checked
# against the estimator's error envelope. Tune with NODES/ITEMS/TOL.
smoke:
	./scripts/smoke.sh

# bench runs the benchmark suite (root macro-benchmarks, the
# internal/store probe-reply micro-benchmarks, the internal/netdht
# uncached-count rung — find_succ, probes and wire bytes per scan on
# loopback clusters — and the internal/serve sustained-throughput
# serving benchmarks — qps/p50/p99 against a real loopback ring) and
# converts the text output into machine-readable
# JSON via cmd/benchjson, so a run can be committed as a
# perf-trajectory point:
#
#   make bench BENCHJSON=BENCH_13.json
#
# Committed BENCH_N.json points use the default BENCHTIME, a fixed
# duration, so they can be compared with each other: at one iteration
# per benchmark (-benchtime=1x) a 60 ns path reads as microseconds of
# timer and cold-cache noise, which is why BENCH_10.json cannot be set
# against BENCH_5.json. CI's benchmark smoke step passes -benchtime=1x
# itself; it checks that the benchmarks run, not what they measure.
BENCHTIME ?= 1s
BENCHTXT  ?= bench.out
BENCHJSON ?= bench.json

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=$(BENCHTIME) . ./internal/store ./internal/netdht ./internal/serve | tee $(BENCHTXT)
	$(GO) run ./cmd/benchjson < $(BENCHTXT) > $(BENCHJSON)
	@echo "wrote $(BENCHJSON)"
