# Convenience targets; everything is plain `go` underneath.

.PHONY: all check build test test-race vet lint lint-json bench bench-short bench-compare bench-heap-gate figures figures-paper fuzz fuzz-short e2e clean

all: check

# The default gate: compile, static checks (go vet plus the repo's own
# dresar-lint analyzers), tests, the race detector (the fault-injection
# and watchdog paths are concurrency-sensitive by construction), and a
# short run of the coverage-guided fuzzers.
check: build vet lint test test-race fuzz-short

build:
	go build ./...

vet:
	go vet ./...

# The project analyzers (docs/ANALYSIS.md): determinism, protocol-enum
# exhaustiveness, message ownership, counter monotonicity, plus the
# CFG/dataflow checks over the serving layer (lock discipline,
# cancellation, fsync ordering). Running the tool through
# `go vet -vettool=` gets per-package result caching keyed on the tool
# binary's hash.
lint:
	go build -o bin/dresar-lint ./cmd/dresar-lint
	go vet -vettool=$(CURDIR)/bin/dresar-lint ./...

# Machine-readable findings for the CI artifact: standalone mode (no
# vet cache) always writes lint.json, even when it then exits nonzero
# on findings.
lint-json:
	go build -o bin/dresar-lint ./cmd/dresar-lint
	bin/dresar-lint -json ./... > lint.json

test:
	go test ./...

# Every package under the race detector, the serving layer included:
# it is the concurrency-dense package the lockheld/ctxflow analyzers
# guard statically, and the dynamic check keeps the static one honest.
test-race:
	go test -race ./...

# One iteration of every benchmark, including the figure regenerators,
# the design-space ablations (reduced inputs), the scalability points,
# and the serving layer's submit-to-result latency
# (cached vs uncached). The results are rendered into BENCH_8.json via
# cmd/benchjson after an informational comparison against the committed
# copy; commit the refreshed file when a perf change is intentional.
# BENCH_7.json stays in the tree as the pre-generalized-topology record.
bench:
	go build -o bin/benchjson ./cmd/benchjson
	go test -run '^$$' -bench . -benchmem -benchtime 1x ./... > bench.out
	bin/benchjson -in bench.out -out BENCH_8.json -baseline BENCH_8.json

# Diff two committed benchmark documents directly — no fresh bench run.
# Defaults to the previous record against the current one; override
# with OLD=/NEW=, and set TOLERANCE=pct to turn the report into a gate
# (exit 1 when any |delta| on ns/op, B/op, or allocs/op exceeds it).
OLD ?= BENCH_7.json
NEW ?= BENCH_8.json
TOLERANCE ?= 0
bench-compare:
	go build -o bin/benchjson ./cmd/benchjson
	bin/benchjson compare -tolerance $(TOLERANCE) $(OLD) $(NEW)

# The CI perf gate: the Figure 8 sweep benchmark (the run that pays
# for the shared ScaleSmall sweep, so its ns/op and Msimcycles/sec are
# honest) plus the scheduler hot-path microbenchmark, best of
# $(BENCH_COUNT) runs, compared against the committed BENCH_8.json.
# The actor-event scheduling and hot-switch arbitration microbenchmarks
# ride along as informational rows (not in BENCH_8.json, so no gate
# applies to them until a record includes them).
# The sweep repeats in separate processes because the figure
# benchmarks share one sync.Once sweep per process. Informational by
# default; ENFORCE=1 makes a >10% throughput or allocation regression
# fail the build (CI enforces on main pushes and stays informational
# on pull requests).
BENCH_COUNT ?= 3
bench-short:
	go build -o bin/benchjson ./cmd/benchjson
	for i in $$(seq $(BENCH_COUNT)); do \
		go test -run '^$$' -bench 'Fig8' -benchmem -benchtime 1x . || exit 1; \
	done > bench_short.out
	go test -run '^$$' -bench EngineScheduleRun -benchmem -count $(BENCH_COUNT) ./internal/sim >> bench_short.out
	go test -run '^$$' -bench EngineActorScheduleRun -benchmem -count $(BENCH_COUNT) ./internal/sim >> bench_short.out
	go test -run '^$$' -bench ArbHotSwitch -benchmem -count $(BENCH_COUNT) ./internal/xbar >> bench_short.out
	bin/benchjson -in bench_short.out -out bench_short.json -baseline BENCH_8.json $(if $(ENFORCE),-enforce)

# The memory-ceiling gate (scripts/heapgate.sh): the 256-node live
# heap must stay under 16x the 64-node one, or route state has gone
# back to growing quadratically with the node count.
bench-heap-gate:
	sh scripts/heapgate.sh

# The paper's result figures at reduced scale (fast) and full scale.
figures:
	go run ./cmd/figures

figures-paper:
	go run ./cmd/figures -scale paper -csv results/paper | tee results/figures_paper.txt

# End-to-end smoke of the serving layer: race-built dresar-served
# driven by dresar-load over real HTTP — cold run, byte-identical
# cache hits, mid-run cancellation, SIGTERM drain — then the crash
# harness: kill -9 mid-run, journal-tail corruption, restart-resume
# with exactly-once verification, and a multi-tenant soak against a
# byte-bounded cache.
e2e:
	sh scripts/e2e.sh

# Extended randomized protocol validation.
fuzz:
	DRESAR_FUZZ_SEEDS=2000 go test ./internal/core -run TestFuzzProtocol -timeout 30m

# Short coverage-guided fuzzing of the fault-recovery surfaces: routing
# under arbitrary link/switch deaths, flit reassembly under arbitrary
# corruption patterns, and the job-journal decoder under torn /
# bit-flipped / duplicated segment bytes. Offline and deterministic
# enough for the default gate; crashes land in testdata/fuzz/ as usual.
fuzz-short:
	go test -run '^$$' -fuzz FuzzRoute -fuzztime 10s ./internal/xbar
	go test -run '^$$' -fuzz FuzzFlitReassembly -fuzztime 10s ./internal/flit
	go test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/serve

clean:
	go clean ./...
