GO ?= go

.PHONY: all build tier1 tier2 tier-race tier-fault tier-conform tier-lint tier-obs tier-serve tier-durable perfbench-check tier-all vet fmt-check race tier-flake test bench-engine clean

all: build

build:
	$(GO) build ./...

# Tier 1: the gate every change must keep green.
tier1: build
	$(GO) test ./...

# Tier 2: static hygiene plus race-detector runs over the runtime-critical
# packages (the core protocol and the RT scheduler exercise goroutines).
tier2: vet fmt-check race

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

race:
	$(GO) test -race ./internal/core/... ./internal/rt/...

# Tier race: the parallel experiment engine's gate — the full rt and obs
# suites (worker pool, GetSetup memoization, record buffers) under the race
# detector. The race runtime is ~15x slower than native, hence the explicit
# timeout.
tier-race:
	$(GO) test -race -timeout 30m ./internal/rt/... ./internal/obs/...

# Tier fault: the fault-injection subsystem's gate — the fault package's
# unit tests and fuzz seeds, the watchdog boundary tests, the engine
# crash-proofing tests, and the full safety campaign (every fault kind
# across all six benchmarks on both processors).
tier-fault:
	$(GO) test ./internal/fault/...
	$(GO) test -run 'TestWatchdog|TestEngine|TestSafety|FuzzFaultSpec' ./internal/rt/...

# Tier conform: the cross-model conformance gate — the conform package's
# unit tests and checked-in fuzz corpus, the six-benchmark × 37-point I2
# property, then the full campaign: 200 seeded random programs plus all
# benchmarks through exec/simple/OOO-simple-mode/WCET in lockstep. The
# campaign seed is pinned so the corpus is deterministic.
tier-conform:
	$(GO) test ./internal/conform/...
	$(GO) run ./cmd/experiments -campaign conform -seed 1 -n 200

# Tier lint: the custom static-analysis gate — the lint framework's own
# unit and golden tests, then the visavet suite (detlint, seedlint,
# hotalloc, errlint) over the whole repo. Zero unsuppressed findings is
# the bar; justified escapes use //visa:allow(<analyzer>): <reason>.
tier-lint:
	$(GO) test ./internal/lint/...
	$(GO) run ./cmd/visavet ./...

# Tier obs: the observability gate — the obs package's full suite
# (coalescing-sink algebra, histograms, profiling scopes), the rt-level metrics and coalesced-campaign
# determinism tests (byte-identical -j 1 vs -j 8), the binary-level
# profiling/coalescing checks, and the sink-scaling benchmarks run as
# tests (one iteration, so they stay compilable and runnable; the sink's
# zero-allocation hot path is pinned by AllocsPerRun tests in the obs suite).
tier-obs:
	$(GO) test ./internal/obs/
	$(GO) test -run 'TestCoalesced|TestObs' ./internal/rt/
	$(GO) test ./cmd/experiments/
	$(GO) test -run '^$$' -bench 'Coalescing|PerEventRecordWrite' -benchtime 100x -benchmem ./internal/obs/

# Tier serve: the simulation-service gate — the serve package (admission,
# quotas, drain, handlers, cross-worker-count stream determinism) under
# the race detector, the visad binary e2e tests (two daemons at different
# -j byte-identical, SIGTERM drain, 50-client visaload sweep), then the
# shell-level smoke: build both binaries, start a daemon, hammer it, and
# drain it.
tier-serve:
	$(GO) test -race ./internal/serve/
	$(GO) test ./cmd/visad/
	./scripts/smoke_serve.sh

# Tier durable: the crash-safety gate — the write-ahead journal package
# (torn-tail sweep, corruption rejection, fuzz seeds, alloc-free append)
# and the serve recovery suite under the race detector, the visad
# SIGKILL/restart e2e, the chaos harness (3 seeded SIGKILLs mid-campaign
# against a -race daemon, restart at rotating -j, byte-identical reports),
# then the shell-level kill-and-restart smoke.
tier-durable:
	$(GO) test -race ./internal/wal/ ./internal/serve/
	$(GO) test -race -run 'TestCrashRecovery' ./cmd/visad/
	$(GO) run ./cmd/visachaos -race -kills 3 -seed 1
	./scripts/smoke_recovery.sh

# Perfbench check: perfbench/ is its own module, so the root build and
# tests never compile it; vet and test it so a change to an API it uses
# cannot break the benchmark unseen. (go build ./... there would leave a
# perfbench binary in the directory.)
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Tier flake: the whole suite three times at GOMAXPROCS 1 and 2, packages
# in parallel, so timing-dependent tests meet a loaded machine. Not a CI
# job: run it before trusting a fix to a test that waits on other goroutines.
tier-flake:
	$(GO) test -count 3 -cpu 1,2 ./...

# Tier all: every gate in one invocation.
tier-all: tier1 tier2 tier-race tier-fault tier-conform tier-lint tier-obs tier-serve tier-durable perfbench-check

# Records the serial-vs-parallel wall-clock of the full evaluation
# (`experiments -all -n 20` equivalent; see bench_test.go).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkExperimentsAll' -benchtime 1x .

test: tier1

clean:
	$(GO) clean ./...
