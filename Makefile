# Developer checks. `make check` is the full gate: static vetting, a
# clean build, the whole suite under the race detector, a short fuzz
# smoke of every fuzz target (seed corpora under testdata/fuzz always run
# as plain tests), and the vet and tests of the nested benchmark module.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build vet test race fuzz bench profile loadsmoke perfcheck microbench

check: vet build race fuzz loadsmoke perfcheck

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/pattern/
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/tree/
	$(GO) test -run '^$$' -fuzz FuzzProject -fuzztime $(FUZZTIME) ./internal/schema/
	$(GO) test -run '^$$' -fuzz FuzzGuideCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/fguide/

# bench records the perf trajectory: the root benchmark suite, the E10
# incremental-evaluation, E11 invocation-pool, E13 streaming/projection,
# E14 warm-vs-cold repository, E16 trace-propagation/profile and E17
# planned-vs-static scheduling sweeps, and the E12 multi-tenant serving
# run, written to BENCH_E{10,11,12,13,14,16,17}.json. E16 reports the
# cross-process trace propagation overhead on the E11 HTTP shape
# (budget: ≤2% of wall); E17 pins the cost planner's speedup over static
# striping with bit-identical results.
bench:
	$(GO) test -bench . -benchmem .
	$(GO) run ./cmd/axmlbench -exp E10 -json BENCH_E10.json
	$(GO) run ./cmd/axmlbench -exp E11 -json BENCH_E11.json
	$(GO) run ./cmd/axmlload -self -clients 500 -requests 5000 -json BENCH_E12.json
	$(GO) run ./cmd/axmlbench -exp E13 -json BENCH_E13.json
	$(GO) run ./cmd/axmlbench -exp E14 -json BENCH_E14.json
	$(GO) run ./cmd/axmlbench -exp E16 -json BENCH_E16.json
	$(GO) run ./cmd/axmlbench -exp E17 -json BENCH_E17.json

# loadsmoke replays a small oracle-verified mixed workload through an
# in-process session server — the serving-layer gate in `make check` —
# streaming the distributed span trace as JSONL and snapshotting the
# per-service statistics profiles (both are CI artifacts). Outputs land
# in the ignored out/ directory, never the repo root.
# (No -json: the recorded BENCH_E12.json is the full `make bench` run.)
loadsmoke:
	mkdir -p out
	$(GO) run ./cmd/axmlload -self -clients 8 -requests 160 \
		-trace-out out/loadsmoke_trace.jsonl -stats-out out/loadsmoke_stats.json

# microbench runs the substrate micro-benchmarks: the pattern evaluator,
# guided relevance detection over a warm F-guide (BenchmarkDetectGuided,
# 200 hotels), the telemetry overhead pair and the E13 allocation gate.
microbench:
	$(GO) test -bench . -benchmem ./internal/pattern/
	$(GO) test -run '^$$' -bench DetectGuided -benchmem .
	$(GO) test -bench E10TelemetryOverhead -benchmem .
	$(GO) test -run TestE13AllocationRegression -count=1 ./internal/bench/

# perfcheck vets and tests the benchmark module under axmlperf/. It is
# a nested module (its own go.mod, importing the engine through a
# replace directive), so the root `go test ./...` skips it; without this
# target an engine API change could break the benchmark build unnoticed.
perfcheck:
	cd axmlperf && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# profile captures CPU and heap profiles of the E10 incremental sweep
# together with its span trace and result table. Inspect with
# `go tool pprof cpu.pprof` / `go tool pprof heap.pprof`.
profile:
	$(GO) run ./cmd/axmlbench -exp E10 -quick \
		-cpuprofile cpu.pprof -memprofile heap.pprof \
		-json BENCH_E10.json -trace-out E10_trace.jsonl
