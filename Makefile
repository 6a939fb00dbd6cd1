GO ?= go

.PHONY: all build test race vet vet-metrics fmt-check check bench bench-smoke profile difftest fuzz-smoke e2ebench e2ebench-test

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

# Formatting gate: fails, listing the files, when gofmt would change
# any Go source of the repository (e2ebench/ included; the .bench_build
# cache is not walked).
fmt-check:
	@out=$$(gofmt -l *.go cmd internal examples e2ebench); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# check is the pre-merge gate: nothing lands unless the module builds,
# is gofmt-clean, vets, tests and race-tests clean (see docs/TESTING.md).
check: build fmt-check vet vet-metrics test race

# Differential correctness runs, one entry point for every family:
#   make difftest FAMILY=<core|spill|shuffle|scan|query|compact|interp> DIFFTEST_N=<n>
# Each family runs DIFFTEST_N seeded workloads against its invariants
# (docs/TESTING.md):
#   core     the oracle, the local executor and a real TCP cluster agree,
#            plus the five metamorphic invariants (partition count, row
#            order, compression, kill+restart, speculation)
#   spill    core under a memory budget small enough that every sort and
#            aggregation spills (docs/MEMORY.md)
#   shuffle  shuffle materialization / join / aggregation bitwise against
#            PartitionByKey and the broadcast funnel, in-process and over
#            TCP (docs/SHUFFLE.md)
#   scan     pushdown scans of sealed segment stores bitwise against the
#            full scan, the oracle and a TCP cluster (docs/STORAGE.md)
#   query    parsed statements compile to the hand-built plan and match
#            the oracle bitwise (docs/QUERY.md)
#   compact  raw, dict/RLE-encoded and compacted stores scan bitwise-equal
#            (docs/STORAGE.md)
#   interp   interp.Extract over generated SYN/LIG catalogs matches the
#            oracle's relational plan bitwise, preselection on and off,
#            in-process and over TCP (docs/TESTING.md)
# Every family but core is race-checked. Reproduce a reported seed with
#   go test ./internal/difftest/ -run <pattern> -difftest.seed=<seed> -v
# (plus -difftest.shuffle / .scan / .query / .encoding for those
# families). Extra go test flags ride in GOFLAGS, e.g.
# GOFLAGS=-count=5 GOMAXPROCS=2 make difftest FAMILY=shuffle.
FAMILY ?= core
DIFFTEST_N ?= 25
SPILL_BUDGET ?= 4096
DIFFTEST_RUN_core := Differential
DIFFTEST_RUN_spill := 'DifferentialSpill|Differential$$'
DIFFTEST_RUN_shuffle := ShuffleDifferential
DIFFTEST_RUN_scan := ScanDifferential
DIFFTEST_RUN_query := QueryDifferential
DIFFTEST_RUN_compact := CompactDifferential
DIFFTEST_RUN_interp := InterpDifferential
DIFFTEST_RACE_core :=
DIFFTEST_RACE_spill := -race
DIFFTEST_RACE_shuffle := -race
DIFFTEST_RACE_scan := -race
DIFFTEST_RACE_query := -race
DIFFTEST_RACE_compact := -race
DIFFTEST_RACE_interp := -race
DIFFTEST_FLAGS_spill := -difftest.membudget=$(SPILL_BUDGET)
difftest:
	$(if $(DIFFTEST_RUN_$(FAMILY)),,$(error unknown FAMILY=$(FAMILY); want one of core spill shuffle scan query compact interp))
	$(GO) test $(DIFFTEST_RACE_$(FAMILY)) ./internal/difftest/ -run $(DIFFTEST_RUN_$(FAMILY)) -v -difftest.n=$(DIFFTEST_N) $(DIFFTEST_FLAGS_$(FAMILY))

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
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzQueryHandler$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mining/assoc/ -run '^$$' -fuzz '^FuzzMine$$' -fuzztime $(FUZZTIME)

# Codec, join-stage, cluster and store page-read micro-benchmarks, then the wire,
# pipeline, spill, shuffle, scan and serve experiments, which refresh
# their sections of BENCH_engine.json (the writer merges, so none
# clobbers another's).
bench: build
	$(GO) test -run NONE -bench 'BenchmarkEncode|BenchmarkDecode' -benchtime 0.5s ./internal/colcodec/
	$(GO) test -run NONE -bench 'BenchmarkInterpretStage' -benchtime 0.5s ./internal/engine/
	$(GO) test -run NONE -bench 'BenchmarkFusedPipeline|BenchmarkBroadcastJoinVec|BenchmarkSortWithin' -benchtime 0.5s ./internal/engine/
	$(GO) test -run NONE -bench 'BenchmarkClusterStage' -benchtime 0.5s ./internal/cluster/
	$(GO) test -run NONE -bench 'BenchmarkStoreScanPages' -benchtime 0.5s ./internal/segstore/
	$(GO) run ./cmd/benchmark -exp wire -out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp pipeline -out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp spill -out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp shuffle -out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp scan -out BENCH_engine.json
	$(GO) run ./cmd/benchmark -exp serve -out BENCH_engine.json

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
