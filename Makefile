# Tier-1 verification targets. `make ci` is what the CI job runs:
# build + vet + tests, plus a race-detector pass over the harness worker
# pool, the dispatch fleet, the service daemon (whose integration tests
# execute real experiment cells in parallel behind httptest), the
# covert channels' shared trojan/spy driver, and the cell stores
# (concurrent stores and lookups on one on-disk entry).

GO ?= go

# Worker count for test-dispatch and run-workers.
N ?= 4

.PHONY: build vet test test-race test-dispatch sweep-smoke protocol-smoke replacement-smoke loadgen-smoke fuzz-smoke bench bench-hotpath bench-smoke bench-gate benchstat staticcheck ci results-verify knob-audit loc run-daemon run-workers

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/harness/... ./internal/dispatch/... ./internal/service/... ./internal/covert/... ./internal/store/...

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
# quick sizing, written to a fresh temporary directory that is removed
# afterwards.
protocol-smoke:
	$(GO) test -count=1 -run 'TestSpecsMatchLegacyApply|TestRegisteredSpecsExhaustiveCoverage|TestSpecValidationRejectsBadTables|TestRegistryLookup' ./internal/coherence/
	$(GO) run ./cmd/cohsim -protocols
	@out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	$(GO) run ./cmd/experiments -quick -cache=false -only protomatrix -out "$$out"

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
# harness as a standalone binary for real deployments.
loadgen-smoke:
	$(GO) test -count=1 -run TestLoadgenSmoke ./internal/loadgen/

# Short fuzzing pass over the untrusted submit decoders (a job body
# through plan building, a sweep spec through expansion), the replay
# record loaders, on-disk cell-store entries, the tenant keys-file
# loader and the executor-vs-reference differential, 10 s each. `go test`
# alone replays every target's seed corpus; this explores beyond it. Not
# part of `make ci`: fuzzing time is open-ended by nature. The keys-file
# target caps input minimization at 3 s: under the default 60 s budget
# one minimization can take the whole run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzSubmitJob$$' -fuzztime=10s ./internal/service/
	$(GO) test -run='^$$' -fuzz='^FuzzSubmitSweep$$' -fuzztime=10s ./internal/service/
	$(GO) test -run='^$$' -fuzz='^FuzzReplayLoad$$' -fuzztime=10s ./internal/replay/
	$(GO) test -run='^$$' -fuzz='^FuzzDiskLookup$$' -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzTenantLoad$$' -fuzztime=10s -fuzzminimizetime=3s ./internal/tenant/
	$(GO) test -run='^$$' -fuzz='^FuzzDifferential$$' -fuzztime=10s ./internal/kernel/difftest/

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Per-access hot-path benchmarks: the refactored kernel/cache/directory
# layers and the sim scheduler's thread switch and inline advance must
# stay at ~0 allocs/op here. MachineNew is the construction cost every
# covert run pays (TestMachineNewAllocationBound bounds its bytes);
# MmapPages is one eviction-set search's 3073 single-page mappings
# (TestMmapAllocatesPerTableGrowth bounds its objects). NoiseKCycles is
# the default eight-thread §VIII-C noise for 2,000 kcycles, the
# simulated-access path end to end (kcycle_us = host µs per kcycle).
# CachedJob is one fully cached hot-mix job through Prepare and Execute
# (its B/op is what a served job allocates; TestCachedResultSharesStoreRows
# pins that none of it is a copy of the stored rows); MemoryStoreFull is
# one Store into a full in-memory store at cohsimd's default -cache-max.
# $(call hotpath,FLAGS) runs them, one go test per package, with FLAGS
# added to each.
define hotpath
	$(GO) test -bench='LoadHit|LoadMiss|StoreRFO|MachineNew' -benchmem -run=^$$ $(1) ./internal/machine/
	$(GO) test -bench='MmapPages' -benchmem -run=^$$ $(1) ./internal/kernel/
	$(GO) test -bench='WorldSwitch|WorldAdvanceInline' -benchmem -run=^$$ $(1) ./internal/sim/
	$(GO) test -bench='NoiseKCycles' -benchmem -run=^$$ $(1) ./internal/noise/
	$(GO) test -bench='CachedJob' -benchmem -run=^$$ $(1) ./internal/harness/
	$(GO) test -bench='MemoryStoreFull' -benchmem -run=^$$ $(1) ./internal/store/
endef

bench-hotpath:
	$(call hotpath,)

# One-iteration smoke pass over the artifact benchmarks and every
# bench-hotpath benchmark — catches bench bit-rot in CI without paying
# for stable numbers.
bench-smoke:
	$(GO) test -bench=BenchmarkArtifact -benchtime=1x -run=^$$ .
	$(call hotpath,-benchtime=1x)

# Access-stream executor performance gate: run the hot-path benches,
# then time kernel.Thread.Exec against the hand-written per-op loop it
# must match (BenchmarkStream/<shape>/{exec,ref}, noise-shaped
# multi-thread programs) in one invocation (same machine, same run),
# and fail if Exec's aggregate exceeds the loop's by >10%. Both sides
# produce identical simulated behaviour, so the ratio is pure executor
# overhead; an aggregate >1.1x means the fusion machinery regressed.
bench-gate:
	$(GO) test -bench='LoadHit|LoadMiss|StoreRFO' -benchtime=1000x -benchmem -run=^$$ ./internal/machine/
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -bench=BenchmarkStream -benchtime=300x -count=3 -run=^$$ ./internal/kernel/difftest/ | tee "$$tmp/benchgate.txt" && \
	$(GO) run ./cmd/benchgate -max-regress 0.10 < "$$tmp/benchgate.txt"

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

# Regenerate every artifact at full size into a temporary directory and
# diff each TSV the run writes against its committed twin under
# results/; any difference, a TSV with no committed twin, or a committed
# TSV no artifact writes fails. Simulator refactors must keep these
# byte-identical. About 14 s on a 2-CPU x86-64 host; not part of
# `make ci`, but CI runs it as its own job.
results-verify:
	@out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	$(GO) run ./cmd/experiments -out "$$out" -cache=false -archive=false >/dev/null || exit 1; \
	status=0; \
	for f in "$$out"/*.tsv; do \
		c=results/$$(basename "$$f"); \
		if [ ! -f "$$c" ]; then echo "results-verify: $$c is not committed"; status=1; continue; fi; \
		diff -u "$$c" "$$f" || status=1; \
	done; \
	for f in results/*.tsv; do \
		[ -f "$$out/$$(basename $$f)" ] || { echo "results-verify: no artifact writes $$f"; status=1; }; \
	done; \
	if [ $$status -eq 0 ]; then echo "results-verify: all $$(ls "$$out"/*.tsv | wc -l) TSVs match results/"; fi; \
	exit $$status

# Knob audit: perturb every machine.Config leaf of the default machine
# one at a time, rerun the whole registry at quick sizing, and check
# which artifacts move against internal/experiments/testdata/knobs.golden
# (rewritten on a mismatch; carry the change into DESIGN.md's knob
# table). About 45 quick passes, roughly 4 min on a 2-CPU host; not part
# of `make ci`, but CI runs it as its own job.
knob-audit:
	$(GO) test -count=1 -timeout 30m -run '^TestKnobAudit$$' ./internal/experiments/ -knob-audit

# Count non-test Go lines per package directory and in total: code,
# comment and blank lines separately (a comment line starts with // or
# lies inside a /* */ block). perfbench/ and .bench_build/ are excluded.
# Read-only; not part of `make ci`. Simplicity changes report net LOC
# from this target.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' ! -path './.git/*' | \
	LC_ALL=C sort | xargs awk '\
	FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$$/, "", pkg); sub(/^\.\//, "", pkg); pkgs[pkg] = 1; inblock = 0 } \
	{ line = $$0; gsub(/^[ \t]+|[ \t]+$$/, "", line) } \
	inblock { comment[pkg]++; if (line ~ /\*\//) inblock = 0; next } \
	line == "" { blank[pkg]++; next } \
	line ~ /^\/\// { comment[pkg]++; next } \
	line ~ /^\/\*/ { comment[pkg]++; if (line !~ /\*\//) inblock = 1; next } \
	{ code[pkg]++ } \
	END { \
		printf "%7s %8s %6s %7s  %s\n", "code", "comment", "blank", "total", "package"; fflush(); \
		for (p in pkgs) { \
			printf "%7d %8d %6d %7d  %s\n", code[p], comment[p], blank[p], code[p] + comment[p] + blank[p], p | "LC_ALL=C sort -k5"; \
			c += code[p]; m += comment[p]; b += blank[p]; \
		} \
		close("LC_ALL=C sort -k5"); \
		printf "%7d %8d %6d %7d  %s\n", c, m, b, c + m + b, "TOTAL"; \
	}'

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
