GO ?= go

.PHONY: all build test race vet vet-metrics check bench bench-smoke profile difftest difftest-spill difftest-shuffle difftest-scan difftest-query difftest-compact fuzz-smoke e2ebench e2ebench-test

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the full module: the cluster scheduler is the
# concurrency-heavy core, but the local executor, rule cache and
# pipeline caches are shared-state too.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Metric-catalogue gate: every engine.OpKind must have a registered
# engine_op_seconds{op=...} latency series (see docs/OBSERVABILITY.md).
vet-metrics:
	$(GO) run ./cmd/vetmetrics

# check is the pre-merge gate: nothing lands unless the module builds,
# vets, tests and race-tests clean (see docs/TESTING.md).
check: build vet vet-metrics test race

# Differential correctness run: DIFFTEST_N seeded workloads, each
# executed on the oracle, the local executor and a real TCP cluster,
# plus the five metamorphic invariants (partition count, row order,
# compression, kill+restart, speculation). Reproduce a reported seed
# with: go test ./internal/difftest/ -run Differential -difftest.seed=<seed> -v
DIFFTEST_N ?= 25
difftest:
	$(GO) test ./internal/difftest/ -run Differential -v -difftest.n=$(DIFFTEST_N)

# Differential run under a memory budget small enough that every sort
# and aggregation takes the external (spill-to-disk) path, on both the
# row and vectorized engines — results must stay bitwise identical to
# the ungoverned oracle (see docs/MEMORY.md).
SPILL_BUDGET ?= 4096
difftest-spill:
	$(GO) test -race ./internal/difftest/ -run 'DifferentialSpill|Differential$$' -v -difftest.n=$(DIFFTEST_N) -difftest.membudget=$(SPILL_BUDGET)

# Shuffle-exchange differential run, race-checked: every seeded
# workload's shuffle materialization / join / aggregation plan is
# compared bitwise against PartitionByKey and the broadcast funnel,
# in-process and over a real TCP cluster (see docs/SHUFFLE.md).
# Reproduce a reported seed with:
#   go test ./internal/difftest/ -run ShuffleDifferential -difftest.shuffle -difftest.seed=<seed> -v
difftest-shuffle:
	$(GO) test -race ./internal/difftest/ -run ShuffleDifferential -v -difftest.n=$(DIFFTEST_N)

# Segment-scan differential run, race-checked: every seeded workload is
# sealed into a persistent segment store and the pushdown scan (zone-map
# pruning + column projection) is held bitwise-equal to the full scan
# run through the engine's own Filter, the oracle, and a real TCP
# cluster reading segment files itself (see docs/STORAGE.md).
# Reproduce a reported seed with:
#   go test ./internal/difftest/ -run ScanDifferential -difftest.scan -difftest.seed=<seed> -v
difftest-scan:
	$(GO) test -race ./internal/difftest/ -run ScanDifferential -v -difftest.n=$(DIFFTEST_N)

# Query-frontend differential run, race-checked: every seeded workload
# gets a generated SELECT statement whose compiled plan must be the
# very op tree a caller would hand-build (same OpDesc data, same stage
# fingerprint) and whose execution over sealed segments stays
# bitwise-equal to the oracle and the hand-built pipeline, plus an
# aggregate statement held row-for-row equal to the hand-built
# distributed plan (see docs/QUERY.md).
# Reproduce a reported seed with:
#   go test ./internal/difftest/ -run QueryDifferential -difftest.query -difftest.seed=<seed> -v
difftest-query:
	$(GO) test -race ./internal/difftest/ -run QueryDifferential -v -difftest.n=$(DIFFTEST_N)

# Encoding/compaction differential run, race-checked: every seeded
# workload is sealed raw, dict/RLE-encoded and encoded-then-compacted;
# all three stores must scan bitwise-equal (raw == encoded per
# partition, raw == compacted concatenated) and each pushdown scan must
# match its oracle, in-process and over a real TCP cluster reading
# encoded segment files (see docs/STORAGE.md).
# Reproduce a reported seed with:
#   go test ./internal/difftest/ -run CompactDifferential -difftest.encoding -difftest.seed=<seed> -v
difftest-compact:
	$(GO) test -race ./internal/difftest/ -run CompactDifferential -v -difftest.n=$(DIFFTEST_N)

# Short fuzz pass over every fuzz target, seeded from the checked-in
# corpora under */testdata/fuzz/.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/colcodec/ -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/colcodec/ -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/expr/ -run '^$$' -fuzz '^FuzzParseAndEval$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/protocol/dbc/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/telemetry/ -run '^$$' -fuzz '^FuzzPromWriter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/segstore/ -run '^$$' -fuzz '^FuzzSegmentDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/segstore/ -run '^$$' -fuzz '^FuzzFooter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/query/ -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mining/assoc/ -run '^$$' -fuzz '^FuzzMine$$' -fuzztime $(FUZZTIME)

# Codec, join-stage and cluster micro-benchmarks, then the wire,
# pipeline, spill, shuffle, scan and serve experiments, which refresh
# their sections of BENCH_engine.json (the writer merges, so none
# clobbers another's).
bench: build
	$(GO) test -run NONE -bench 'BenchmarkEncode|BenchmarkDecode' -benchtime 0.5s ./internal/colcodec/
	$(GO) test -run NONE -bench 'BenchmarkBroadcastJoinStage|BenchmarkRuleCacheParallel|BenchmarkEvalRuleParallel' -benchtime 0.5s ./internal/engine/
	$(GO) test -run NONE -bench 'BenchmarkFusedPipeline|BenchmarkBroadcastJoinRows|BenchmarkBroadcastJoinVec|BenchmarkSortWithin' -benchtime 0.5s ./internal/engine/
	$(GO) test -run NONE -bench 'BenchmarkClusterStage' -benchtime 0.5s ./internal/cluster/
	$(GO) run ./cmd/benchmark -exp wire -wire-out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp pipeline -pipeline-out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp spill -spill-out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp shuffle -shuffle-out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp scan -scan-out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp serve -serve-out BENCH_engine.json

# One-iteration pass over every benchmark in the module: catches
# bit-rotted benchmark code in CI without paying measurement time.
bench-smoke: build
	$(GO) test -run NONE -bench . -benchtime 1x ./...

# CPU + heap profiles of the vectorized pipeline experiment; inspect
# with `go tool pprof cpu.prof` / `go tool pprof mem.prof` (see
# docs/PERFORMANCE.md).
profile: build
	$(GO) run ./cmd/benchmark -exp pipeline -cpuprofile cpu.prof -memprofile mem.prof

# End-to-end benchmark of the real chain (fleet pipeline -> segment
# store -> served queries -> mining), built from this checkout under
# .bench_build (see e2ebench/README.md). W picks the workload
# (fleet-syn or fleet-focused), SEED the input seed.
W ?= fleet-syn
SEED ?= 1
e2ebench:
	bash e2ebench/run.sh --workload $(W) --seed $(SEED) --seconds 40 --trace 0

# The benchmark's own tests (its own Go module, so `go test ./...` at
# the root skips it).
e2ebench-test:
	cd e2ebench && $(GO) test ./...
