# Tier-1 verification targets. `make ci` is what the CI job runs:
# build + vet + tests, plus a race-detector pass over the harness worker
# pool, the dispatch fleet, and the service daemon (whose integration
# tests execute real experiment cells in parallel behind httptest).

GO ?= go

# Worker count for test-dispatch and run-workers.
N ?= 4

.PHONY: build vet test test-race test-dispatch sweep-smoke protocol-smoke replacement-smoke loadgen-smoke bench bench-hotpath bench-smoke bench-gate benchstat staticcheck ci run-daemon run-workers

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/harness/... ./internal/dispatch/... ./internal/service/...

# Race-checked dispatch integration pass: the fleet coordinator, real
# worker clients over HTTP, and the service-level fleet tests (worker
# kill mid-cell, lease reclaim, byte-identity), with N workers attached
# where a test honours COHSIM_TEST_WORKERS.
test-dispatch:
	COHSIM_TEST_WORKERS=$(N) $(GO) test -race -count=1 \
		-run 'Dispatch|Fleet|Worker|HTTP|Lease|LastEventID' \
		./internal/dispatch/... ./internal/service/... ./internal/harness/...

# Sweep-engine smoke: an 8-point capacity sweep through the daemon with
# two attached workers; the ranked frontier TSV is golden-checked under
# internal/service/testdata/. Regenerate the golden after an intentional
# simulator change with:
#   go test ./internal/service/ -run TestSweepSmokeGolden -update-golden
sweep-smoke:
	COHSIM_TEST_WORKERS=2 $(GO) test -count=1 -run 'TestSweepSmokeGolden|TestSweepFrontierByteIdenticalAcrossRunModes' ./internal/service/

# Protocol-engine smoke: build every registered protocol table (the
# spec validators run at package init), the golden cross-check against
# the legacy hand-coded state machine, the registry-wide coverage
# validators, and one protocol × channel matrix cell per protocol at
# quick sizing.
protocol-smoke:
	$(GO) test -count=1 -run 'TestSpecsMatchLegacyApply|TestRegisteredSpecsExhaustiveCoverage|TestSpecValidationRejectsBadTables|TestRegistryLookup' ./internal/coherence/
	$(GO) run ./cmd/cohsim -protocols
	$(GO) run ./cmd/experiments -quick -cache=false -only protomatrix -out /tmp/cohsim-protocol-smoke

# Replacement-layer smoke: the lrustate and dirtystate quick artifacts
# (one cell per registered replacement policy) through the daemon with
# two attached workers and a tree-PLRU config override; the TSVs must be
# byte-identical to a serial run and match the goldens under
# internal/service/testdata/. Regenerate after an intentional simulator
# change with:
#   go test ./internal/service/ -run TestReplacementSmokeGolden -update-golden
replacement-smoke:
	COHSIM_TEST_WORKERS=2 $(GO) test -count=1 -run 'TestReplacementSmokeGolden|TestSlottedChannelsDeterministic' ./internal/service/ ./internal/covert/

# Multi-tenant capacity smoke: two equal-weight authenticated tenants
# replay the hot mix against an in-process daemon with two dispatch
# workers attached; the run must show a fair throughput split (no
# starvation) and a >90% cache-hit ratio. cmd/loadgen is the same
# harness as a standalone binary for real deployments (BENCH_9.json).
loadgen-smoke:
	$(GO) test -count=1 -run TestLoadgenSmoke ./internal/loadgen/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Per-access hot-path benchmarks: the refactored kernel/cache/directory
# layers and the sim scheduler's thread switch and inline advance must
# stay at ~0 allocs/op here.
bench-hotpath:
	$(GO) test -bench='LoadHit|LoadMiss|StoreRFO' -benchmem -run=^$$ ./internal/machine/
	$(GO) test -bench='WorldSwitch|WorldAdvanceInline' -benchmem -run=^$$ ./internal/sim/

# One-iteration smoke pass over the artifact benchmarks — catches bench
# bit-rot in CI without paying for stable numbers.
bench-smoke:
	$(GO) test -bench=BenchmarkArtifact -benchtime=1x -run=^$$ .
	$(GO) test -bench='LoadHit|LoadMiss' -benchtime=100x -benchmem -run=^$$ ./internal/machine/

# Access-stream executor performance gate: run the hot-path benches,
# then time kernel.Thread.Exec against the hand-written per-op loop it
# must match (BenchmarkStream/<shape>/{exec,ref}, noise-shaped
# multi-thread programs) in one invocation (same machine, same run),
# and fail if Exec's aggregate exceeds the loop's by >10%. Both sides
# produce identical simulated behaviour, so the ratio is pure executor
# overhead; an aggregate >1.1x means the fusion machinery regressed.
bench-gate:
	$(GO) test -bench='LoadHit|LoadMiss|StoreRFO' -benchtime=1000x -benchmem -run=^$$ ./internal/machine/
	$(GO) test -bench=BenchmarkStream -benchtime=300x -count=3 -run=^$$ ./internal/kernel/difftest/ | tee /tmp/benchgate.txt
	$(GO) run ./cmd/benchgate -max-regress 0.10 < /tmp/benchgate.txt

# Compare two `go test -bench` outputs, e.g.:
#   make bench > old.txt ... make bench > new.txt
#   make benchstat OLD=old.txt NEW=new.txt
# Requires benchstat (golang.org/x/perf/cmd/benchstat) on PATH; degrades
# to a plain diff hint when absent so offline checkouts still work.
benchstat:
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(OLD) $(NEW); \
	else \
		echo "benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest);"; \
		echo "falling back to side-by-side diff:"; \
		diff -y $(OLD) $(NEW) || true; \
	fi

# Static analysis beyond go vet. Gated on the tool being present so the
# offline container and fresh checkouts are not blocked; CI installs it.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

ci: build vet staticcheck test test-race protocol-smoke sweep-smoke replacement-smoke loadgen-smoke

# Start the experiment service daemon on :8080 (state under
# results-daemon/). See EXPERIMENTS.md for the API walkthrough.
run-daemon:
	$(GO) run ./cmd/cohsimd -addr :8080 -out results-daemon

# Attach N cohsim-worker processes to a daemon on :8080 and wait.
# Ctrl-C stops them; each finishes its in-flight cell and deregisters.
run-workers:
	@trap 'kill 0' INT TERM; \
	for i in $$(seq 1 $(N)); do \
		$(GO) run ./cmd/cohsim-worker -server http://localhost:8080 -name worker-$$i & \
	done; \
	wait
