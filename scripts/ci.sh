#!/usr/bin/env bash
# CI gate: formatting, lints, build, full test suite.
#
#   scripts/ci.sh          # everything (what CI runs)
#   scripts/ci.sh --fast   # skip the release build, test in debug only
#
# All cargo invocations run --offline: the workspace vendors its
# third-party surface as in-repo shims (see shims/README.md), so a CI
# host never needs the network.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustdoc links resolve (nx-deflate)"
# The kernel crate's docs carry its invariants (epoch reset, stale-entry
# safety); a link to an item that no longer exists must fail here.
RUSTDOCFLAGS='-D rustdoc::broken_intra_doc_links' \
    cargo doc --offline --no-deps -p nx-deflate

if [[ "$FAST" == "0" ]]; then
    echo "==> cargo build --release (tier-1)"
    cargo build --offline --release

    echo "==> frozen benchmark client builds"
    # benchmark/ is a package of its own that names nx-core/nx-deflate
    # items directly; a facade change that breaks it must fail here, not
    # in the benchmark run.
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    # benchmark/ is frozen with its own lock file; cargo adds an entry
    # there for every path dependency nx-core gains (nx-sim, issue 15).
    # That edit belongs to a benchmark change, not to this tree.
    git checkout -q -- benchmark/Cargo.lock 2> /dev/null || true
fi

echo "==> test-module placement gate"
# loc.sh and the gates below read every line of a file before its first
# `#[cfg(test)]` as non-test code and stop there, so that marker must open
# the test module at the bottom of the file: the next line that is not an
# attribute or a comment declares a `mod`. A test-only `use` or item above
# the production code would hide every line below it from all of them.
PLACEMENT=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { seen = 0; want = 0 }
    want && /^[[:space:]]*(#\[|\/\/)/ { next }
    want {
        if ($0 !~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/) print FILENAME ":" FNR ": " $0
        want = 0
    }
    !seen && /#\[cfg\(test\)\]/ { seen = 1; want = 1 }')
if [[ -n "$PLACEMENT" ]]; then
    echo "$PLACEMENT"
    echo "==> FAIL: a file's first #[cfg(test)] must open a test module"
    exit 1
fi

echo "==> non-test LOC per crate"
scripts/loc.sh

echo "==> cargo test (tier-1)"
cargo test --offline -q

echo "==> fault suite + fuzz smoke (release)"
# The adversarial battery and the 30k-case mutational fuzz sweep rerun
# in release mode: optimization changes overflow/bounds behaviour, and
# these suites exist precisely to catch decoder edges.
cargo test --offline --release -q -p nx-core \
    --test adversarial --test fuzz_smoke --test fault_recovery
# The encode route's allocation counts hold in the profile that ships:
# inlining decides whether a "value on the stack" stays one.
cargo test --offline --release -q -p nx-deflate --test encode_alloc
# Resumable positions (issue 25): every ranged read against the serial
# slice around every checkpoint and block boundary, forged v3 entry points,
# and a stream pushed in pieces running each token through the loops once.
cargo test --offline --release -q -p nx-core --test seek_differential
cargo test --offline --release -q -p nx-deflate --test stream_resume

echo "==> decode-path panic gate"
# No .unwrap()/.expect( in non-test code on the untrusted-input decode
# paths: a hostile stream must map to a typed error, never a panic.
# (#[cfg(test)] modules sit at the bottom of each file; everything
# before that marker is production code.)
DECODE_PATHS=(
    crates/deflate/src/decoder.rs
    crates/deflate/src/huffman/decode.rs
    # Every dynamic block of every encoder, the accelerator model's
    # included, builds its code lengths and canonical codes here.
    crates/deflate/src/huffman/build.rs
    crates/deflate/src/huffman/mod.rs
    # Marker mode decodes from untrusted bit offsets. Its callers are
    # nxbench's probes and the tests, not the member planner or the seek
    # index (see the marker-mode gate).
    crates/deflate/src/marker.rs
    # The member planner, the seek-index build and ranged reads feed
    # untrusted member candidates, bit offsets and window runs through here.
    crates/core/src/parallel_inflate.rs
    crates/deflate/src/bitio.rs
    crates/deflate/src/gzip.rs
    crates/deflate/src/zlib.rs
    crates/deflate/src/stream.rs
    # Every untrusted decode's output runs through the checksums.
    crates/deflate/src/crc32.rs
    crates/deflate/src/adler32.rs
    # The scratch/pool layer sits on every reuse-path request.
    crates/core/src/scratch.rs
    crates/p842/src/decode.rs
    crates/p842/src/bitio.rs
    crates/core/src/framing.rs
    crates/core/src/software.rs
    # The request executor: every entry point's hostile streams pass
    # through its decode and recovery paths.
    crates/core/src/exec.rs
    crates/accel/src/decomp.rs
    # The match-engine model: every default `Nx::compress` runs arbitrary
    # user bytes through its lane-window loop and hash table.
    crates/accel/src/matcher.rs
    crates/accel/src/hashbank.rs
    # ... and entropy-codes them through its block encoder and, in canned
    # mode, the table set -- which is part of the mode's value and never
    # empty, so neither has a lookup that could fail.
    crates/accel/src/huffenc.rs
    crates/accel/src/canned.rs
    # Telemetry emit/export paths run inside every instrumented request;
    # an observability layer must never be the thing that panics.
    crates/telemetry/src/histogram.rs
    crates/telemetry/src/registry.rs
    crates/telemetry/src/sink.rs
    crates/telemetry/src/span.rs
    crates/telemetry/src/export.rs
    crates/telemetry/src/clock.rs
    crates/telemetry/src/buckets.rs
    # The PR 8 observability layer: trace propagation runs inside every
    # request, the SLO monitor inside every completion, and the flight
    # recorder must survive the very faults it exists to record.
    crates/telemetry/src/trace.rs
    crates/telemetry/src/slo.rs
    crates/telemetry/src/flight.rs
    # Encoder hot paths: the level ladder routes arbitrary user input
    # through these, so they carry the same no-panic contract.
    crates/deflate/src/encoder.rs
    crates/deflate/src/lz77/mod.rs
    crates/deflate/src/lz77/hash.rs
    crates/deflate/src/lz77/hash4.rs
    # Sharded compress: every shard of a user's input runs through here, on
    # the caller's thread or a fan-out helper, at the level checked at entry.
    crates/core/src/parallel.rs
    # The batched speculative matcher is the default Fastest/Fast engine,
    # so arbitrary user input flows through its window walk and cover
    # resolution on every throughput-rung compress call.
    crates/deflate/src/lz77/batch.rs
    crates/deflate/src/lz77/cover.rs
    # Canned profiles: the one-pass encoder runs on every small-payload
    # request and the registry deserializer parses untrusted startup
    # bytes -- both must fail with typed errors.
    crates/deflate/src/profile.rs
    # The multi-tenant service front end handles hostile tenants by
    # design: the state machine and both of its drivers must reject with
    # typed errors, never panic (every file of the tier, present or
    # future).
    crates/core/src/service/*.rs
)
GATE_FAIL=0
for f in "${DECODE_PATHS[@]}"; do
    hits=$(awk '/#\[cfg\(test\)\]/{exit} /\.unwrap\(\)|\.expect\(/{print FILENAME":"FNR": "$0}' "$f")
    if [[ -n "$hits" ]]; then
        echo "panic-prone call on a decode path:"
        echo "$hits"
        GATE_FAIL=1
    fi
done
if [[ "$GATE_FAIL" != "0" ]]; then
    echo "==> FAIL: decode paths must return typed errors, not panic"
    exit 1
fi

echo "==> unsafe gate"
# The workspace has one non-test `unsafe`: the call into the pclmulqdq
# CRC-32 kernel behind its CPU-feature test (crc32.rs), with the reason it
# is sound on the line above. Anything else fails here. (`unsafe` in a
# comment does not count; test modules sit below `#[cfg(test)]`.)
UNSAFE=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { t = 0; prev = "" }
    /#\[cfg\(test\)\]/ { t = 1 }
    !t && $0 !~ /^[[:space:]]*\/\// && /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ {
        print FILENAME ": " (prev ~ /^[[:space:]]*\/\/ SAFETY:/ ? "SAFETY" : "bare") ": " $0
    }
    { prev = $0 }')
if [[ $(grep -c . <<< "$UNSAFE") != 1 ]] ||
    ! grep -q '^crates/deflate/src/crc32.rs: SAFETY: .*unsafe { fold(' <<< "$UNSAFE"; then
    echo "$UNSAFE"
    echo "==> FAIL: non-test unsafe must be the one dispatch line in crc32.rs, under a // SAFETY: comment"
    exit 1
fi

echo "==> thread-spawn gate"
# Non-test threads start in exactly three places: the service engine
# (service/mod.rs; an async session is a one-window service, not a thread
# of its own), the worker budget's scoped helpers (nx-deflate
# workers.rs::Claim::run), which every request's helper threads start in
# -- sharded compress and member decode through `Workers::fan_out`, the
# match engine's and the ladder's segments through `run_ahead`, and the
# batch matcher's blocks emitted behind the parse directly -- and E21's
# trace writer. A
# new spawn site -- a second engine, a per-session worker, a pool --
# fails here. (A comment does not count; test modules sit below
# `#[cfg(test)]`.)
SPAWNS=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { t = 0 }
    /#\[cfg\(test\)\]/ { t = 1 }
    !t && $0 !~ /^[[:space:]]*\/\// && /thread::(spawn|scope|Builder::new)/ {
        print FILENAME ": " $0
    }')
WANT_SPAWNS=(crates/bench/src/exp/e21.rs crates/core/src/service/mod.rs
    crates/deflate/src/workers.rs)
if [[ "$(cut -d: -f1 <<< "$SPAWNS")" != "$(printf '%s\n' "${WANT_SPAWNS[@]}")" ]]; then
    echo "$SPAWNS"
    echo "==> FAIL: non-test threads start only in ${WANT_SPAWNS[*]}, once each"
    exit 1
fi

echo "==> CPU-count gate"
# One module decides how many helper threads a request may run: the worker
# budget (nx-deflate workers.rs) reads the host's CPU count, once per
# process, and every fan-out claims its helpers from a budget. A non-test
# line elsewhere under crates/*/src that names `available_parallelism` (a
# comment too) fails here; the examples and nxbench's host.rs may read it.
CPU_READS=$(find crates/*/src -name '*.rs' ! -path crates/deflate/src/workers.rs -print0 |
    sort -z | xargs -0 awk '
    FNR == 1 { t = 0 }
    /#\[cfg\(test\)\]/ { t = 1 }
    !t && /available_parallelism/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$CPU_READS" ]]; then
    echo "$CPU_READS"
    echo "==> FAIL: only nx-deflate's workers.rs reads the CPU count"
    exit 1
fi

echo "==> process-wide atomics gate"
# Non-test `static ... Atomic*` items (counters no request, handle or tenant
# can be charged for), counted by this one command, one item per line (an
# array static's second line holds no `static`):
#   find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t && $0 !~ /^[[:space:]]*\/\// && /(^|[^[:alnum:]_])static[[:space:]][^=]*Atomic/' | wc -l
# 19 today: nx-deflate 18 (encoder.rs 11, profile.rs 5, decoder.rs 2; ROADMAP
# item 13 moves them into per-call stats) and nx-telemetry 1 (sink.rs). A new
# one fails here; lower MAX_ATOMIC_STATICS in the change that removes one.
MAX_ATOMIC_STATICS=19
ATOMICS=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { t = 0 }
    /#\[cfg\(test\)\]/ { t = 1 }
    !t && $0 !~ /^[[:space:]]*\/\// && /(^|[^[:alnum:]_])static[[:space:]][^=]*Atomic/ {
        print FILENAME ":" FNR ": " $0
    }')
if [[ $(grep -c . <<< "$ATOMICS") -gt "$MAX_ATOMIC_STATICS" ]]; then
    echo "$ATOMICS"
    echo "==> FAIL: more than $MAX_ATOMIC_STATICS non-test static Atomic* items"
    exit 1
fi

echo "==> one block decision gate"
# Every encode's blocks are cut by one sink (`Blocks` in nx-deflate's
# encoder.rs) and written by the ladder's emitter (`Ladder`), canned
# requests' included: a block its profile's tables do not fit goes from
# there to the one block decision, and so does every block the emit-behind
# route hands over. So `choose_and_encode_block(` has exactly one non-test
# call site, inside `impl Emit for Ladder`; a second block loop with its own
# cut rule or misfit guard fails here. (A comment does not count; test
# modules sit below `#[cfg(test)]`.)
DECIDERS=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { t = 0; impl = "" }
    /#\[cfg\(test\)\]/ { t = 1 }
    /^impl/ { impl = $0 }
    /^}/ { impl = "" }
    !t && $0 !~ /^[[:space:]]*\/\// && /choose_and_encode_block\(/ && !/fn choose_and_encode_block/ {
        print FILENAME ": " impl
    }')
if [[ "$DECIDERS" != "crates/deflate/src/encoder.rs: impl Emit for Ladder<'_> {" ]]; then
    echo "$DECIDERS"
    echo "==> FAIL: choose_and_encode_block( is called from the Ladder emitter alone"
    exit 1
fi

echo "==> one run-ahead driver gate"
# A large request's parse runs in segments on one driver (nx-deflate
# workers.rs::run_ahead), for the model's match engine and the ladder's
# sequential matcher alike: it alone applies the size rule
# (`claim_segments`), places the segments and checkpoints, and picks the
# checkpoint the caller adopts. So no non-test line outside workers.rs names
# `claim_segments`, and a helper claim is run (`claim.run(` or
# `.claim(..).run(`) only by `Workers::fan_out`, `run_ahead` and the
# emit-behind route (`encoder.rs::emit_behind`); a route with a split, meet
# or dead-helper fallback of its own fails here. (A comment does not count;
# test modules sit below `#[cfg(test)]`.)
SEGMENT_CLAIMS=$(find crates/*/src -name '*.rs' ! -path crates/deflate/src/workers.rs -print0 |
    sort -z | xargs -0 awk '
    FNR == 1 { t = 0 }
    /#\[cfg\(test\)\]/ { t = 1 }
    !t && $0 !~ /^[[:space:]]*\/\// && /claim_segments/ { print FILENAME ":" FNR ": " $0 }')
CLAIM_RUNS=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { t = 0; fn = "" }
    /#\[cfg\(test\)\]/ { t = 1 }
    /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?fn [a-z_0-9]+/ {
        match($0, /fn [a-z_0-9]+/)
        fn = substr($0, RSTART + 3, RLENGTH - 3)
    }
    !t && $0 !~ /^[[:space:]]*\/\// && /(claim|\.claim\(.*\))\.run\(/ { print FILENAME ": " fn }' | sort)
WANT="crates/deflate/src/encoder.rs: emit_behind
crates/deflate/src/workers.rs: fan_out
crates/deflate/src/workers.rs: run_ahead"
if [[ -n "$SEGMENT_CLAIMS" || "$CLAIM_RUNS" != "$WANT" ]]; then
    echo "$SEGMENT_CLAIMS"
    echo "$CLAIM_RUNS"
    echo "==> FAIL: segments are claimed and run by workers.rs::run_ahead alone"
    exit 1
fi

echo "==> one counting site gate"
# A token is counted where the parse makes it: the block sink's push
# (`impl Sink for Blocks`) bumps its histogram bucket as it takes the token,
# and `Histogram::of` counts a whole block for callers that hold one. So the
# only non-test `hist.record(` calls under crates/deflate/src (every
# histogram there is named `hist`) sit in those two impls; a second pass over
# a block's tokens to count them fails here. (`record_end_of_block` is
# another method; a comment does not count; test modules sit below
# `#[cfg(test)]`.)
COUNTERS=$(find crates/deflate/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { t = 0; impl = "" }
    /#\[cfg\(test\)\]/ { t = 1 }
    /^impl/ { impl = $0 }
    /^}/ { impl = "" }
    !t && $0 !~ /^[[:space:]]*\/\// && /hist\.record\(/ { print FILENAME ": " impl }' | sort)
WANT="crates/deflate/src/encoder.rs: impl<E: Emit> Sink for Blocks<E> {
crates/deflate/src/lz77/mod.rs: impl Histogram {"
if [[ "$COUNTERS" != "$WANT" ]]; then
    echo "$COUNTERS"
    echo "==> FAIL: Histogram::record( is called from the block sink and Histogram::of alone"
    exit 1
fi

echo "==> marker-mode gate"
# nx-core runs no marker-mode decode: the seek index names its window bytes
# from the walk's own matches (`Inflater::window_reads`) and the member
# planner trials a block header on the plain `Inflater`. A non-test line
# under crates/core/src that names a marker-mode item (a comment too) fails
# here. (Test modules sit below `#[cfg(test)]`; the index tests diff against
# the marker pass there.)
MARKERS=$(find crates/core/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { t = 0 }
    /#\[cfg\(test\)\]/ { t = 1 }
    !t && /MarkerInflater|BlockProbe|resolve_markers_into|MARKER_BASE/ {
        print FILENAME ":" FNR ": " $0
    }')
if [[ -n "$MARKERS" ]]; then
    echo "$MARKERS"
    echo "==> FAIL: crates/core/src names marker mode outside its tests"
    exit 1
fi

if [[ "$FAST" == "0" ]]; then
    echo "==> modeled tables gate (tables_all.txt)"
    # These experiments print modeled statistics only (cycles, ratios,
    # simulated queues; no measured host-time column), so their sections
    # of the committed tables_all.txt must reproduce to the byte: making
    # the simulator cheaper to run leaves every simulated statistic
    # where it was. Regenerate the file only when the model is *meant*
    # to move: `tables e1 e2 ... e16 > tables_all.txt`.
    MODELED=(e1 e2 e5 e6 e7 e8 e9 e10 e12 e14 e15 e16)
    fresh=$(mktemp)
    cargo run --offline --release -p nx-bench --bin tables -- "${MODELED[@]}" > "$fresh" 2> /dev/null
    if ! awk -v ids="${MODELED[*]}" '
        BEGIN { n = split(toupper(ids), a, " "); for (i = 1; i <= n; i++) want[a[i]] = 1 }
        /^## E[0-9]+ / { keep = ($2 in want) }
        keep' tables_all.txt | diff - "$fresh"; then
        echo "==> FAIL: a modeled table moved (< committed, > this build)"
        exit 1
    fi
    rm -f "$fresh"
    echo "    ${#MODELED[@]} modeled experiments byte-identical to tables_all.txt"

    echo "==> BENCH files and the flight dump reproduce (E17-E26, accel_server)"
    # Every committed BENCH_*.json holds deterministic cells only (ratios,
    # byte counts, route and fault counters, modeled cycles, verification
    # booleans), and FLIGHT_DUMP.json is the faulted storm's black box on
    # the virtual clock: each must come back byte for byte, which also
    # holds every contract the files record (outputs identical, credit
    # conservation, QoS priority, Jain fairness, a complete trace in the
    # black box). Host wall-clock is judged by `nxbench` pairs, not here.
    # Re-record a file, in a commit of its own that says why, only when
    # its numbers are *meant* to move.
    cargo run --offline --release -p nx-bench --bin tables -- \
        e17 e18 e19 e20 e21 e22 e23 e24 e25 e26 > /dev/null
    cargo run --offline --release -p nx-core --example accel_server > /dev/null
    if ! git diff --exit-code -- 'BENCH_*.json' FLIGHT_DUMP.json; then
        echo "==> FAIL: a BENCH file or the flight dump moved (- committed, + this build)"
        exit 1
    fi
fi

echo "==> OK"
