#!/bin/sh
# Repository check suite: tier-1 (build + test), vet, and the race-detector
# pass that guards the parallel experiment runner's across-heaps contract.
set -eu

go build ./...
go vet ./...
go test ./...
go test -race ./...
# Benchmark smoke run: every benchmark executes one iteration, catching
# bit-rot in the perf harness without paying for a real measurement.
go test -run '^$' -bench . -benchtime 1x ./...

# Inlining guard. The mutator's entry points in internal/heap check, resolve
# and load in a straight line and leave their cold paths (a type fault's
# message, FixnumVal's message, push's and GlobalWord's sink calls) to
# out-of-line helpers, which is what keeps the handle stack, the fixnum decode
# and the type predicates inside the compiler's inline budget, and Car/Cdr one
# call deep.
# A change that pushes one of them over the budget fails here by name, as
# does one that stops the young generation's allocation trigger inlining
# into any of the three collectors built on it.
inl=$(go build -gcflags=-m ./internal/heap ./internal/gc/... 2>&1)
for fn in '(*Heap).push' '(*Heap).Get' 'FixnumVal' '(*Heap).isType' \
    '(*Heap).IsPair' '(*Heap).IsVector' '(*Heap).IsSymbol' '(*Heap).IsFlonum' \
    '(*Heap).Car' '(*Heap).Cdr' '(*Heap).Scope' 'Scope.Close'; do
    if ! printf '%s\n' "$inl" | sed -n 's/^internal\/heap\/[^ ]*: can inline //p' | grep -qxF "$fn"; then
        echo "ci: heap $fn is no longer inlinable (go build -gcflags=-m=2 ./internal/heap says why)" >&2
        exit 1
    fi
done
for c in generational multigen hybrid; do
    if ! printf '%s\n' "$inl" | grep -q "^internal/gc/$c/.*inlining call to young\.(\*Gen)\.Full$"; then
        echo "ci: young.(*Gen).Full no longer inlines into $c" >&2
        exit 1
    fi
done
# The trace reader's varint helper decodes one- to three-byte varints in
# line at every one of (*Reader).Next's decode sites (it is called nowhere
# else); a change that pushes it over the budget turns each into a call.
calls=$(grep -c 'uvarint1(blk, pos)' internal/trace/reader.go || true)
inlined=$(go build -gcflags=-m ./internal/trace 2>&1 | grep -c '^internal/trace/reader\.go:.*inlining call to uvarint1$' || true)
if [ "$calls" -eq 0 ] || [ "$inlined" -ne "$calls" ]; then
    echo "ci: uvarint1 inlines at $inlined of (*Reader).Next's $calls decode sites (go build -gcflags=-m=2 ./internal/trace says why)" >&2
    exit 1
fi

# Coverage floors for the invariant-critical packages, set just under the
# coverage measured when the verifier landed; dipping below one means tests
# were deleted or a new code path shipped untested.
check_cover() {
    pct=$(go test -cover -count=1 "$1" | awk '
        { for (i = 1; i <= NF; i++) if ($i ~ /%$/) { gsub(/%/, "", $i); print $i } }')
    if [ -z "$pct" ]; then
        echo "ci: no coverage figure for $1" >&2
        exit 1
    fi
    if [ "$(awk -v p="$pct" -v f="$2" 'BEGIN { print (p >= f) ? 1 : 0 }')" != 1 ]; then
        echo "ci: coverage for $1 is $pct%, below the $2% floor" >&2
        exit 1
    fi
    echo "coverage $1: $pct% (floor $2%)"
}
check_cover ./internal/heap 85
check_cover ./internal/remset 96
check_cover ./internal/trace 85
check_cover ./internal/policy 96
check_cover ./internal/serve 88
# The two free-list collectors share one carve (heap.Space.AllocFromBlock)
# and one sweep (heap.Sweeper) under every mark/sweep and npms cell of every
# grid. What holds each allocation path to first-fit: marksweep's cursors are
# run in lock-step with a cursor-less, MaxRun-less reference allocator
# (cursor_test.go); npms's steps against the free-list substrate it used to
# carry itself, kept verbatim as the reference (reference_test.go), after
# every allocation and every collection; and the verifier's ErrBadBlockTable
# rows (internal/heap) cover the lists of both.
check_cover ./internal/gc/marksweep 96
check_cover ./internal/gc/npms 93
# The step machine (core.Steps) sits under three collectors — the copying
# non-predictive collector, the hybrid's dynamic area and npms — so its own
# table tests (construction over bump and blocked-span spaces, the stable
# rename-by-key, Collect into blocked shadows, the allocation cursor) carry a
# floor; npms's stays where it was, so deleting its well-covered bookkeeping
# cannot drag what is left under it.
check_cover ./internal/core 91
# The decay mutator: its timing wheel and lifetime stream sit under every
# cell of the central experiment and every recorded decay session, and only
# this package's reference-queue differential and stream pin hold them.
check_cover ./internal/decay 95
# The shared young-generation step and the three collectors built on it:
# the step's own tests are the wholesale-vs-tenured differential, the carry
# bookkeeping and the allocation guards; each collector's floor covers what
# is left to it (promotion targets, remembered-set rules, majors).
check_cover ./internal/gc/young 90
check_cover ./internal/gc/generational 90
check_cover ./internal/gc/multigen 85
check_cover ./internal/gc/hybrid 82

# Env-pinned passes. Every package named on a line below seeds its process
# default with heap.SetDefaultConfig(heap.ConfigFromEnv()) in TestMain and
# carries a TestEnvReachesHeaps guard that fails if a bare heap.New() does not
# report the configuration the line's variables name, so none of these runs
# can measure the defaults in silence. Tests that assert a property of one
# mode pin it with heap.WithConfig; everything else inherits the line's mode.
#
# Parallel tracing and sweeping: the heap engines, the conformance suite
# (which also parameterizes worker counts itself) and the mark/sweep
# and non-predictive mark/sweep collectors, whose sweep phases claim blocks
# (npms: whole steps) concurrently, under the race detector at four workers —
# then mark/sweep and the fuzz harness's seed corpus again with per-worker
# allocation buffers switched on. (The conformance suite's N-worker
# record/replay and identity-carry tests pin their own worker counts, 2 and 4
# exact-fit and 4 buffered, so the plain -race pass above already runs them
# in full; the passes below repeat them less nboyer1.)
RDGC_GC_WORKERS=4 go test -race -count=1 ./internal/heap ./internal/gc/conformance ./internal/gc/marksweep ./internal/gc/npms
RDGC_GC_WORKERS=4 RDGC_GC_LAB=1 go test -race -count=1 ./internal/gc/marksweep ./internal/gc/gcfuzz

# Incremental collection: the heap engines, both mark/sweep collectors, and
# the conformance suite (whose incremental tests pin the surviving object
# set to the stop-the-world one) with RDGC_GC_INCR on, so the barrier, the
# mark slices, and the lazy sweep run under every test that does not pin a
# mode.
RDGC_GC_INCR=1 go test -race -count=1 ./internal/heap ./internal/gc/marksweep ./internal/gc/npms ./internal/gc/conformance

# Tenuring and the adaptive policy controller: the heap engines, the shared
# young-generation step, the three tenuring collectors and the conformance
# suite (age oracle, never-promote) with RDGC_GC_ADAPT on, so every heap a
# test builds without pinning a mode routes survivors through the tenured
# evacuation path with the feedback controller live — then the step, the
# collectors and the suite again at a fixed mid-grid threshold, where
# survivors age through six flips with no controller to move the knobs.
RDGC_GC_ADAPT=1 go test -race -count=1 ./internal/heap ./internal/gc/young ./internal/gc/generational ./internal/gc/multigen ./internal/gc/hybrid ./internal/gc/conformance
RDGC_GC_TENURE=6 go test -race -count=1 ./internal/gc/young ./internal/gc/generational ./internal/gc/multigen ./internal/gc/hybrid ./internal/gc/conformance

# The benchmark is a module of its own (benchmark/go.mod), so the root
# ./... passes above neither build nor test it: vet and test it here, which
# is also what proves the engine API it calls directly still compiles.
(cd benchmark && go vet ./... && go test ./...)

# Server simulation: the shard loop re-runs under the race detector with the
# runner forced to four workers, so concurrent shards exercise their
# no-shared-state contract; then the gcserve CLI determinism smoke — the
# same seed and config must print byte-identical reports run-to-run and
# across runner worker counts (the words-as-time clock admits no wall-time).
RDGC_PARALLEL=4 go test -race -count=1 ./internal/serve
serve_tmp=$(mktemp -d)
serve_flags="-collector marksweep -gcincr -shards 4 -horizon 20000 -heap 16384 -seed 42 -arrival mmpp"
go run ./cmd/gcserve $serve_flags > "$serve_tmp/a.txt"
go run ./cmd/gcserve $serve_flags > "$serve_tmp/b.txt"
go run ./cmd/gcserve $serve_flags -parallel 1 > "$serve_tmp/c.txt"
cmp "$serve_tmp/a.txt" "$serve_tmp/b.txt"
cmp "$serve_tmp/a.txt" "$serve_tmp/c.txt"
rm -rf "$serve_tmp"

# Decay-grid determinism smoke, through the real driver: the mutator draws
# its lifetimes a batch ahead, so the same seed must still print the same
# bytes run to run and across runner worker counts — the whole grid (the
# batched path), the infant-mortality mixture (the coin before each lifetime)
# and the linked workload (the batch of one, which reads the heap between
# draws).
rdm_tmp=$(mktemp -d)
rdm_flags="-steps 20000 -seed 42"
go run ./cmd/rdmsim -all $rdm_flags > "$rdm_tmp/a.txt"
go run ./cmd/rdmsim -all $rdm_flags > "$rdm_tmp/b.txt"
go run ./cmd/rdmsim -all $rdm_flags -parallel 1 > "$rdm_tmp/c.txt"
cmp "$rdm_tmp/a.txt" "$rdm_tmp/b.txt"
cmp "$rdm_tmp/a.txt" "$rdm_tmp/c.txt"
for mix in "-infant 0.5" "-link 0.2"; do
    go run ./cmd/rdmsim $mix $rdm_flags > "$rdm_tmp/a.txt"
    go run ./cmd/rdmsim $mix $rdm_flags > "$rdm_tmp/b.txt"
    cmp "$rdm_tmp/a.txt" "$rdm_tmp/b.txt"
done
rm -rf "$rdm_tmp"

# Trace smoke: record a small benchmark once, then replay the trace under
# every collector with the deep heap-invariant verifier on. Exercises the
# full record -> replay -> verify pipeline through the actual CLI.
trace_tmp=$(mktemp -d)
trap 'rm -rf "$trace_tmp"' EXIT
go run ./cmd/gctrace record -quick -o "$trace_tmp/lattice.trace" lattice
go run ./cmd/gctrace replay -verify "$trace_tmp/lattice.trace"
go run ./cmd/gctrace stat "$trace_tmp/lattice.trace" > /dev/null
# Identity smoke: a trace names allocation ordinals and the engines carry the
# table the pipeline reads, so neither end cares about the configuration. A
# recording with real copying in it (nboyer1: five to forty-six collections a
# collector) replays, deep verifier on, to the same report on one evacuation
# worker and on two; and gcfuzz writes the same trace bytes under the zero
# Config and with promotion threshold 6.
go run ./cmd/gctrace record -quick -o "$trace_tmp/nboyer1.trace" nboyer1
go run ./cmd/gctrace replay -verify -gcworkers 1 "$trace_tmp/nboyer1.trace" > "$trace_tmp/w1.txt"
go run ./cmd/gctrace replay -verify -gcworkers 2 "$trace_tmp/nboyer1.trace" > "$trace_tmp/w2.txt"
cmp "$trace_tmp/w1.txt" "$trace_tmp/w2.txt"
fuzz_seed=internal/gc/gcfuzz/testdata/fuzz/FuzzCollectors/seed-tenure-churn
mkdir "$trace_tmp/t1" "$trace_tmp/t6" # the header names the output file
go run ./cmd/gcfuzz -emit-trace "$trace_tmp/t1/f.trace" "$fuzz_seed" > /dev/null
go run ./cmd/gcfuzz -gctenure 6 -emit-trace "$trace_tmp/t6/f.trace" "$fuzz_seed" > /dev/null
cmp "$trace_tmp/t1/f.trace" "$trace_tmp/t6/f.trace"
# The trace package's own benchmarks — decode, replay, record and amplify
# over a decay session, ns/event, and block decompression, ns/byte — one
# iteration each beside the smoke, so the numbers EXPERIMENTS.md quotes stay
# regenerable.
go test -run '^$' -bench 'ReaderNext|Replay|Recorder|Amplify|LZDecode' -benchtime 1x ./internal/trace

# Synth smoke: amplify the recording into an interleaved multi-session
# corpus, raw and block-compressed, and drive the whole synth -> compress ->
# sharded-replay -> verify pipeline through the CLI. The aggregate replay
# stats must be byte-identical between the raw and compressed corpora
# (same events, different wire), run to run, and across -parallel worker
# counts (the sharded driver's aggregation order is spec order, not
# completion order). tail -n +2 drops the path-bearing header line.
go run ./cmd/gctrace synth -op amplify -n 8 -seed 3 -o "$trace_tmp/mix.trace" "$trace_tmp/lattice.trace"
go run ./cmd/gctrace synth -op amplify -n 8 -seed 3 -compress -o "$trace_tmp/mixz.trace" "$trace_tmp/lattice.trace"
mix_bytes=$(wc -c < "$trace_tmp/mix.trace")
mixz_bytes=$(wc -c < "$trace_tmp/mixz.trace")
if [ "$mixz_bytes" -ge "$mix_bytes" ]; then
    echo "ci: compressed corpus ($mixz_bytes bytes) not smaller than raw ($mix_bytes bytes)" >&2
    exit 1
fi
go run ./cmd/gctrace stat "$trace_tmp/mix.trace" > /dev/null
go run ./cmd/gctrace replay -verify "$trace_tmp/mix.trace"  | tail -n +2 > "$trace_tmp/r-raw.txt"
go run ./cmd/gctrace replay -verify "$trace_tmp/mixz.trace" | tail -n +2 > "$trace_tmp/r-z.txt"
cmp "$trace_tmp/r-raw.txt" "$trace_tmp/r-z.txt"
go run ./cmd/gctrace replay -verify -shards 4 "$trace_tmp/mix.trace"             | tail -n +2 > "$trace_tmp/s-a.txt"
go run ./cmd/gctrace replay -verify -shards 4 "$trace_tmp/mix.trace"             | tail -n +2 > "$trace_tmp/s-b.txt"
go run ./cmd/gctrace replay -verify -shards 4 -parallel 1 "$trace_tmp/mix.trace" | tail -n +2 > "$trace_tmp/s-c.txt"
cmp "$trace_tmp/s-a.txt" "$trace_tmp/s-b.txt"
cmp "$trace_tmp/s-a.txt" "$trace_tmp/s-c.txt"

# Fuzz smoke: a bounded mutation run of the cross-collector byte-program
# harness (the seed corpus replays first) under the race detector. Every
# input is replayed under each entry of gcfuzz.Modes — the process default,
# then parallel, incremental, tenured and adaptive, one knob turned at a
# time — and the environment below seeds that default (-run selects the
# package's TestEnvReachesHeaps guard, which holds it to that before the
# fuzzing starts), so each run pins one more knob
# in every mode: four workers on the concurrent drains; those plus the
# buffered evacuation path and the four-worker block sweep; a 64-word slice
# budget, so mark slices and lazy sweeps interleave as finely as possible;
# and promotion threshold 6, so the age-routing evacuation and the age oracle
# see every input at a mid-grid threshold (unpinned runs derive the worker
# count and the threshold from the program's bytes). Real campaigns: make fuzz.
RDGC_GC_WORKERS=4 go test -race -run '^TestEnvReachesHeaps$' -fuzz '^FuzzCollectors$' -fuzztime 10s ./internal/gc/gcfuzz
RDGC_GC_WORKERS=4 RDGC_GC_LAB=1 go test -race -run '^TestEnvReachesHeaps$' -fuzz '^FuzzCollectors$' -fuzztime 10s ./internal/gc/gcfuzz
RDGC_GC_SLICE=64 go test -race -run '^TestEnvReachesHeaps$' -fuzz '^FuzzCollectors$' -fuzztime 10s ./internal/gc/gcfuzz
RDGC_GC_TENURE=6 go test -race -run '^TestEnvReachesHeaps$' -fuzz '^FuzzCollectors$' -fuzztime 10s ./internal/gc/gcfuzz

# Wire-format fuzz smoke: arbitrary bytes against the trace reader, seeded
# with both wire versions, compressed blocks, and the checked-in synthesized
# corpus. The reader must decode or fail with a package sentinel — never
# panic — no matter what the block decompressor is fed. Then arbitrary
# events against the writer: each must be refused with ErrInvalid or read
# back identically. (Minimizing a new input costs that fuzzer most of a
# 10-second budget, so minimization is capped.) Last, arbitrary compressed
# blocks and lengths against the block decompressor: its word copies must
# accept, refuse and write exactly what the byte-at-a-time loop does.
go test -run '^$' -fuzz '^FuzzTraceReader$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzWriterReaderAgree$' -fuzztime 10s -fuzzminimizetime 100x ./internal/trace
go test -run '^$' -fuzz '^FuzzLZDecode$' -fuzztime 10s ./internal/trace
