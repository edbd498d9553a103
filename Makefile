# Developer entry points. CI runs the same commands (.github/workflows/ci.yml):
# the lint job gates build and test.

GO ?= go

.PHONY: all lint fmt vet flblint lint-fix-check build test race fuzz bench throughput cache hetero scale trace serve loadtest e2e clean

all: lint build test

lint: fmt vet flblint

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

flblint:
	$(GO) run ./cmd/flblint ./...

# Assert the tree carries zero unjustified or stale //flb: suppressions:
# suppressing directives must carry a justification (the analyzers report
# "needs a justification" where one is consulted without text) and must
# still suppress something (staledirective reports the leftovers and any
# misspelled names).
lint-fix-check:
	@out=$$($(GO) run ./cmd/flblint ./... | grep -E 'needs a justification|stale //flb:|unknown directive' || true); \
	if [ -n "$$out" ]; then \
		echo "unjustified or stale //flb: suppressions:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fuzz smoke: each target briefly, seed corpus plus 10s of new inputs.
# Go's fuzzer accepts one target per invocation.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadText$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadSTG$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadTextOracle$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadSTGOracle$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzParseDecimal$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzHeap$$' -fuzztime 10s ./internal/pq
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime 10s ./internal/memo
	$(GO) test -run '^$$' -fuzz '^FuzzScheduleHandler$$' -fuzztime 10s ./internal/svc
	$(GO) test -run '^$$' -fuzz '^FuzzExecuteOracle$$' -fuzztime 10s ./internal/sim

# Schedule-cache latency sweep (cold vs warm vs near-hit, mixed streams).
cache:
	$(GO) run ./cmd/flbbench -exp cache

# Related-machines sweep: speed-aware FLB vs the speed-blind deployment
# at growing speed skew (DESIGN.md §16; committed run in results/).
hetero:
	$(GO) run ./cmd/flbbench -exp hetero

# Facade benchmarks, plus the two that walk CSR edge windows hardest
# (the memo fingerprint and FLB placement on LU at V≈2000), the indexed
# heap, the placement kernel's largest layer, and one cold flbd request
# through the HTTP handler.
bench:
	$(GO) test -run '^$$' -bench 'Fig2|Scaling|Execute' -benchmem .
	$(GO) test -run '^$$' -bench '^BenchmarkKeyOf$$' -benchmem ./internal/memo
	$(GO) test -run '^$$' -bench '^BenchmarkFLB_LU2000_P32$$' -benchmem ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkPushPop$$' -benchmem ./internal/pq
	$(GO) test -run '^$$' -bench '^BenchmarkServeMiss$$' -benchmem ./internal/svc

# Million-task scale sweep, CI-quick configuration (10^5-task instances):
# streaming build + compact-CSR footprint against the committed
# bytes-per-(V+E) budget and the quick peak-RSS budget (DESIGN.md §17).
# The committed full sweep is `go run ./cmd/flbbench -exp scale`.
scale:
	$(GO) run ./cmd/flbbench -exp scale -quick

# Batch scheduling throughput (jobs/sec) across worker-pool sizes.
throughput:
	$(GO) run ./cmd/flbbench -exp throughput -quick

# Chrome Trace Event JSON of one observed Fig. 2 run (quick config);
# open trace.json in chrome://tracing or ui.perfetto.dev.
trace:
	$(GO) run ./cmd/flbbench -exp fig2 -quick -trace trace.json

# The hardened scheduling daemon (DESIGN.md §15) on :8080.
serve:
	$(GO) run ./cmd/flbd -addr :8080

# Replay the built-in trace against a running `make serve` daemon;
# machine-readable report lands in results/flbload.json.
loadtest:
	$(GO) run ./cmd/flbload -url http://localhost:8080 -rps 50 -duration 10s -o results/flbload.json

# Full service end-to-end: nominal load, overload shedding, SIGTERM
# drain under load (scripts/e2e_service.sh; CI's "service" job).
e2e:
	./scripts/e2e_service.sh

clean:
	$(GO) clean ./...
