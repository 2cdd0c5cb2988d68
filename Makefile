# Tier-1 is the gate every change must pass; race adds the concurrency
# conformance pass that backs the parallel experiment runner.

GO ?= go
BENCH_OUT ?= BENCH_PR10.json
BENCH_BASE ?= BENCH_PR9.json
BENCH_NOW ?= /tmp/rdgc-bench-now.json
FUZZTIME ?= 30s

.PHONY: all build vet test race tier1 ci bench bench-compare fuzz traces synth serve

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

tier1: build test

ci:
	./ci.sh

# traces regenerates the checked-in allocation-event trace corpus under
# internal/trace/testdata/traces; TestTraceCorpus fails if the corpus drifts
# from what the current tree records.
traces:
	RDGC_WRITE_TRACES=1 $(GO) test ./internal/trace -run TestTraceCorpus -v

# synth regenerates the synthesized-corpus golden stats (the 1000-session
# amplified corpus TestSynthGolden1kSessions checks in as
# internal/trace/testdata/synth-golden.json). The golden file is the drift
# guard: a changed event count, trailer, or compressed size fails the test
# until deliberately regenerated here.
synth:
	RDGC_WRITE_TRACES=1 $(GO) test ./internal/trace -run TestSynthGolden1kSessions -v

# serve is the server-simulation smoke: a small sharded gcserve run on the
# default load, printing the per-shard latency table. All time is in
# allocated words (see DESIGN.md "Server simulation").
serve:
	$(GO) run ./cmd/gcserve -collector generational -shards 4 -horizon 30000 -heap 16384

# bench runs the Go microbenchmarks, then measures the tracing engines,
# the full collector grid, the stop-the-world vs incremental pause
# distributions, and the sharded server-simulation latency grid, and writes
# the machine-readable report (the file checked in as BENCH_PR10.json).
# The rdgc-bench/8 schema adds the
# replay-throughput section: synth-op cost, raw vs block-compressed replay,
# and the sharded replay driver at 1/4/16 shards.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/benchreport -out $(BENCH_OUT)

# bench-compare takes a fresh measurement and diffs it against the checked-in
# baseline (override BENCH_BASE to diff against another BENCH_*.json).
bench-compare:
	$(GO) run ./cmd/benchreport -out $(BENCH_NOW)
	$(GO) run ./cmd/benchreport -compare $(BENCH_BASE) $(BENCH_NOW)

# fuzz mutates byte programs against all seven collectors, checking every
# heap-invariant plus shadow-model agreement after each collection. Override
# FUZZTIME for longer campaigns; replay crashes with cmd/gcfuzz.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCollectors$$' -fuzztime $(FUZZTIME) ./internal/gc/gcfuzz
