GO ?= go

.PHONY: all build vet test bench-test race fuzz bench-load load-smoke chaos-gate remote-load-smoke svc-smoke metrics-smoke driver-smoke examples-smoke flag-budget clean

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# bench/ is its own module, so `go test ./...` at the root never reaches
# it: vet and test the benchmark harness explicitly. Performance numbers
# themselves come from `bash bench/run.sh` (bench/README.md).
bench-test:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The whole module under the race detector — the batch crypto layer runs
# a 64-goroutine key-sharing hammer, internal/parallel a cancellation
# leak check, internal/obs the registry hammer.
race:
	$(GO) test -race ./...

# Short burst of every fuzz target, a fixed exec count each
# (FUZZSCALE=10 runs ten times as many). The script holds the package
# list and the per-target budgets.
fuzz:
	./scripts/fuzz-pass.sh

# The open-loop sustained-traffic conformance gate (DESIGN.md §12): an
# in-process LSP on real TCP, a fleet of client groups at a fixed Poisson
# rate, one clean pass and one under seeded faultnet faults, every
# decrypted answer checked against the plaintext engine. Fails on any SLO
# violation, oracle mismatch, or trace-audit violation.
bench-load:
	$(GO) run ./cmd/ppgnn-experiments -gate load -out BENCH_load.ci.json

# The ~20s CI variant: lower rate, shorter measure window, same oracle
# check and SLOs.
load-smoke:
	$(GO) run ./cmd/ppgnn-experiments -gate load -rate 25 -measure 4s \
		-out BENCH_load.ci.json

# The multi-tenant lifecycle soak: two tenants under concurrent traffic
# (one behind seeded faults, one with a quota of a single session) while
# a reload storm rewrites the config mid-traffic. Fails on any oracle
# mismatch, lost session, epoch leak, or a shed not classified retryable.
chaos-gate:
	$(GO) run ./cmd/ppgnn-experiments -gate chaos -out BENCH_chaos.ci.json

# Boot a single-tenant ppgnn-lsp and run the load gate against it
# (-gate load -addr) for a short window: every answer oracle-checked
# against a local copy of the daemon's dataset (the CI test job runs it).
remote-load-smoke:
	./scripts/remote-load-smoke.sh

# Boot a two-tenant ppgnn-lsp from a config file, probe /healthz and
# /readyz, and SIGHUP-reload it mid-load (the CI svc-smoke job, which
# then runs chaos-gate's soak).
svc-smoke:
	./scripts/svc-smoke.sh

# Start the LSP with -metrics-addr, query it once, and check the metrics
# endpoint serves a JSON snapshot (the CI smoke test).
metrics-smoke:
	./scripts/metrics-smoke.sh

# The same seeded query through the shared-memory Group and a quorum
# session, each with a sole and a threshold key, and the plain query at
# GOMAXPROCS=1 and 4: all must print the same answer (the CI test job
# runs it).
driver-smoke:
	./scripts/driver-smoke.sh

# Run every examples/*/ main: each must exit 0 and print to stdout (the
# CI test job runs it).
examples-smoke:
	./scripts/examples-smoke.sh

# The four binaries together expose at most the BUDGET (54) set in
# scripts/flag-budget.sh (ROADMAP item 10).
flag-budget:
	./scripts/flag-budget.sh

clean:
	rm -f BENCH_load.ci.json BENCH_chaos.ci.json
