# Tier-1 is the gate every change must pass; race adds the concurrency
# pass, whose TestHeapsShareNothing backs the parallel experiment runner.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build vet test race tier1 ci bench fuzz traces synth serve

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

# bench runs the Go microbenchmarks, then the repository's one benchmark
# harness (benchmark/, the contract in BENCHMARK.json): all six workloads,
# one JSON line each. benchmark/README.md has the flags (--workload, --seed,
# --seconds, --trace 1 for the per-layer budget table) and how to compare two
# commits.
bench:
	$(GO) test -bench=. -benchmem ./...
	bash benchmark/run.sh

# fuzz mutates byte programs against all seven collectors, checking every
# heap-invariant plus shadow-model agreement after each collection. Override
# FUZZTIME for longer campaigns; replay crashes with cmd/gcfuzz.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCollectors$$' -fuzztime $(FUZZTIME) ./internal/gc/gcfuzz
