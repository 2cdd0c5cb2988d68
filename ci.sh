#!/bin/sh
# Repository check suite: tier-1 (build + test), vet, and the race-detector
# pass that guards the across-heaps contract (TestHeapsShareNothing: heaps
# on different goroutines share no state).
set -eu

# Formatting gate: every Go file in the tree, benchmark/ included, is
# gofmt-clean.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "ci: not gofmt-clean (run gofmt -w):" >&2
    echo "$unformatted" >&2
    exit 1
fi

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
# The Cheney scan reads the evacuator's first-fit cursor through a helper
# it calls after every out-of-line copy, which must stay in line too; so
# must the free-block split both free-list carves share, which sits under
# nearly every mark/sweep and npms allocation, and the bump every copying
# collector's allocation makes. A reservation (a space without memory) adds
# no test to either: Bump refuses it by its length alone, and AllocFromBlock
# by its empty list and its MaxRun of 0. The step ladder takes the refusal
# from there: (*Steps).Bump keeps its cursor on the reserved step instead of
# descending past it, and Steps.Alloc — or, for npms, its own ladder, which
# also formats the step as one free run — backs a reached step out of line
# and carves again. Back itself runs in line in the evacuator, which calls
# it on every target of every run.
# A change that pushes one of them over the budget fails here by name, as
# does one that stops an allocation ladder's fast path running in line: the
# nursery trigger and the bump in young.(*Gen).AllocRaw (the heap's
# allocator under the three youngest-first collectors), and the step bump
# in core.(*Collector).AllocRaw.
inl=$(go build -gcflags=-m ./internal/heap ./internal/core ./internal/gc/... 2>&1)
for fn in '(*Heap).push' '(*Heap).Get' 'FixnumVal' '(*Heap).isType' \
    '(*Heap).IsPair' '(*Heap).IsVector' '(*Heap).IsSymbol' '(*Heap).IsFlonum' \
    '(*Heap).Car' '(*Heap).Cdr' '(*Heap).Scope' 'Scope.Close' '(*Evacuator).cursor' \
    '(*Space).carve' '(*Space).Bump' '(*Space).Back'; do
    if ! printf '%s\n' "$inl" | sed -n 's/^internal\/heap\/[^ ]*: can inline //p' | grep -qxF "$fn"; then
        echo "ci: heap $fn is no longer inlinable (go build -gcflags=-m=2 ./internal/heap says why)" >&2
        exit 1
    fi
done
# inlines_into FILE FUNC CALLEE: some call to CALLEE inside the body of
# FUNC (its header line begins "func FUNC(") in FILE is inlined.
inlines_into() {
    lo=$(grep -nF "func $2(" "$1" | head -n 1 | cut -d: -f1)
    hi=$(awk -v lo="${lo:-0}" 'NR > lo && /^}/ { print NR; exit }' "$1")
    if [ -z "$lo" ] || ! printf '%s\n' "$inl" | awk -F: -v f="$1" -v lo="$lo" -v hi="$hi" -v want="inlining call to $3" '
        $1 == f && $2 > lo && $2 < hi && substr($0, length($0) - length(want) + 1) == want { found = 1 }
        END { exit !found }'; then
        echo "ci: $3 no longer inlines into $2 in $1 (go build -gcflags=-m=2 says why)" >&2
        exit 1
    fi
}
inlines_into internal/gc/young/young.go '(g *Gen) AllocRaw' '(*Gen).full'
inlines_into internal/gc/young/young.go '(g *Gen) AllocRaw' 'heap.(*Space).Bump'
inlines_into internal/core/collector.go '(c *Collector) AllocRaw' '(*Steps).Bump'
# The trace reader's varint helper decodes one- to three-byte varints in
# line at every one of (*Reader).Next's decode sites (it is called nowhere
# else); a change that pushes it over the budget turns each into a call.
trace_inl=$(go build -gcflags=-m ./internal/trace 2>&1)
calls=$(grep -c 'uvarint1(blk, pos)' internal/trace/reader.go || true)
inlined=$(printf '%s\n' "$trace_inl" | grep -c '^internal/trace/reader\.go:.*inlining call to uvarint1$' || true)
if [ "$calls" -eq 0 ] || [ "$inlined" -ne "$calls" ]; then
    echo "ci: uvarint1 inlines at $inlined of (*Reader).Next's $calls decode sites (go build -gcflags=-m=2 ./internal/trace says why)" >&2
    exit 1
fi
# The trace writer's commit (adopt the grown block, count the event, seal
# it at blockTarget) runs in line in every per-kind encoder; the seal itself
# (flushBlock: write the block before, then write this one or start the
# goroutine that compresses it) is a call, and a bigger seal path must not
# push commit over the budget unseen.
calls=$(grep -c 'w\.commit(' internal/trace/writer.go || true)
inlined=$(printf '%s\n' "$trace_inl" | grep -c '^internal/trace/writer\.go:.*inlining call to (\*Writer)\.commit$' || true)
if [ "$calls" -eq 0 ] || [ "$inlined" -ne "$calls" ]; then
    echo "ci: (*Writer).commit inlines at $inlined of the encoders' $calls call sites (go build -gcflags=-m=2 ./internal/trace says why)" >&2
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
# The two free-list collectors share one carve (heap.Space.AllocFromBlock:
# the list's head in line, the walk past it out of line) and one sweep
# (heap.Sweeper, which reads survivors off the mark bitmap) under every
# mark/sweep and npms cell of every grid. What holds each allocation path to
# first-fit: marksweep's cursors are
# run in lock-step with a cursor-less, MaxRun-less reference allocator
# (cursor_test.go); npms's steps against the free-list substrate it used to
# carry itself, kept verbatim as the reference (reference_test.go), after
# every allocation and every collection; the verifier's ErrBadBlockTable
# rows (internal/heap) cover the lists of both, and the header-walking sweep
# kept in sweep_test.go holds the bitmap sweep word for word.
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
# bookkeeping, the allocation ladder's rungs and the allocation guards; each
# collector's floor covers what is left to it (promotion targets,
# remembered-set rules, majors).
check_cover ./internal/gc/young 90
check_cover ./internal/gc/generational 90
check_cover ./internal/gc/multigen 85
check_cover ./internal/gc/hybrid 82

# Collector modes take no pass of their own: tier-1 above runs the mode
# matrix (gcfuzz.Modes — default, incremental, tenured, adaptive, and
# incremental at a 64-word slice), which the conformance suite's
# TestShadowModel and TestHeapsShareNothing and the fuzz seed corpus
# iterate, and the race pass runs it again. Nothing reads the environment
# into a heap's configuration.

# The benchmark is a module of its own (benchmark/go.mod), so the root
# ./... passes above neither build nor test it: vet and test it here, which
# is also what proves the engine API it calls directly still compiles.
(cd benchmark && go vet ./... && go test ./...)

# Server simulation: the shard loop re-runs under the race detector with the
# runner forced to four workers, so concurrent shards exercise their
# no-shared-state contract. The gcserve CLI determinism smoke (the same seed
# and config print byte-identical reports run to run and across runner worker
# counts, under every incremental collector of the table) is tier-1:
# cmd/gcserve TestIncrementalRunsRepeat.
RDGC_PARALLEL=4 go test -race -count=1 ./internal/serve

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
# collector) replays, deep verifier on, to the same report on one runner
# worker and on two; and gcfuzz writes the same trace bytes under the zero
# Config and with promotion threshold 6.
go run ./cmd/gctrace record -quick -o "$trace_tmp/nboyer1.trace" nboyer1
go run ./cmd/gctrace replay -verify -parallel 1 "$trace_tmp/nboyer1.trace" > "$trace_tmp/p1.txt"
go run ./cmd/gctrace replay -verify -parallel 2 "$trace_tmp/nboyer1.trace" > "$trace_tmp/p2.txt"
cmp "$trace_tmp/p1.txt" "$trace_tmp/p2.txt"
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
# input is replayed under each row of the mode matrix, gcfuzz.Modes, from the
# zero Config — default, incremental, tenured (threshold from the program's
# bytes, 6 and never among them), adaptive, and incremental at a 64-word
# slice, so mark slices and lazy sweeps interleave as finely as possible.
# Real campaigns: make fuzz.
go test -race -run '^$' -fuzz '^FuzzCollectors$' -fuzztime 10s ./internal/gc/gcfuzz

# Wire-format fuzz smoke: arbitrary bytes against the trace reader, seeded
# with raw and compressed blocks and the checked-in synthesized corpus. The reader must decode or fail with a package sentinel — never
# panic — no matter what the block decompressor is fed. Then arbitrary
# events against the writer: each must be refused with ErrInvalid or read
# back identically. (Minimizing a new input costs that fuzzer most of a
# 10-second budget, so minimization is capped.) Last, arbitrary compressed
# blocks and lengths against the block decompressor: its word copies must
# accept, refuse and write exactly what the byte-at-a-time loop does.
go test -run '^$' -fuzz '^FuzzTraceReader$' -fuzztime 10s ./internal/trace
go test -run '^$' -fuzz '^FuzzWriterReaderAgree$' -fuzztime 10s -fuzzminimizetime 100x ./internal/trace
go test -run '^$' -fuzz '^FuzzLZDecode$' -fuzztime 10s ./internal/trace
