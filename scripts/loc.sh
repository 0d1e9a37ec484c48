#!/usr/bin/env bash
# Non-test lines of Rust per crate: every line of crates/*/src/**/*.rs
# before the file's first `#[cfg(test)]` (test modules sit at the bottom
# of each file -- the same convention the decode-path panic gate in
# ci.sh relies on), summed per crate.
#
#   scripts/loc.sh
#
# The instrument for ROADMAP aim 2: "non-test LOC per crate goes down".
# A crate listed in CAP is shown against its cap and fails the script
# when it grows past it. Beside each count stands the crate's non-test
# `pub` items (lines matching
# `^[[:space:]]*pub (fn|struct|enum|mod|const|static|type|trait|use) `
# in the same part of each file), the surface ROADMAP.md reports; no cap.

set -euo pipefail
cd "$(dirname "$0")/.."

# nx-accel: 1761 lines before the host-fast match engine (issue 13),
# which was allowed ~60 for its per-cycle scratch and validate bounds.
# nx-deflate: 7308 lines before the epoch reset and the dictionary image
# (issue 14), which were allowed 90 between them.
# It then took 108 for request-proportional inflate set-up (issue 20): the
# decode-table memo with its exact-header compare and keep-on-repeat rule
# (~125, docs included), the one-shot entry points on the thread's scratch
# (~40), Adler-32 in lanes (~25) and the size-decided thread matcher for
# one-shot encodes (~28), against ~110 lines the change deleted (zlib.rs's
# four decode bodies and two header writers folded into one each, gzip.rs's
# two member bodies, three raw one-shot bodies in decoder.rs). The dedupe
# did not cover the memo.
# It then took 40 (the most issue 22 allowed) for the pclmulqdq CRC-32
# kernel: dispatch, `kernel()`, the feature probe, the fold keys, the 4-way
# fold with its Barrett reduction and the module doc are ~90 lines, against
# ~50 the same commit deleted (crc32_combine's GF(2) matrices -> polynomial
# multiply, 28; the slice-by-8 table builder -> the same multiply, 14;
# gzip.rs's second header and trailer writer and its two-step trailer
# compare, 8). The combine rewrite did not cover the kernel.
# nx-core / nx-sys: 8013 / 1776 lines before the service state machine
# and the recovery step function were each folded into one place and the
# second credit accountant (`nx-sys::vas::WindowTable`) was deleted
# (issue 15); capped where that left them. nx-core then took 77 (of 80
# allowed) for the sparse-window seek index (marker pass, wire v2, bounded
# pooled reads), part-paid by one member walk for both the parallel decode
# and the index build (issue 18). It gave 64 back when the second RFC 1952
# header walk (`framing::unwrap`) and the second and third gzip trailer
# checks became calls into `nx_deflate::gzip` (issue 22); capped there.
# Issue 23 (the modeled decompressor priced from counts the inflate loops
# take, instead of a replayed token vector) moved no cap up. nx-accel: the
# model's new `decompress_into` door (caller's scratch and output) is paid
# for by one `request_report` behind `Accelerator::compress` and
# `AccelStream::write`, which each spelled the flow-shop makespan and the
# report; 1820 lines, cap lowered from 1821. nx-deflate: the tally
# (`StreamTrace`, the const-generic `fast_loop`, `inflate_traced_into`,
# `zlib::verify_trailer`) took ~60 lines and package-merge in prefix-count
# form gave 59 back (`huffman/build.rs` 212 -> 153); `Inflater::
# enable_tracing` / `take_trace` went. nx-core: the end-of-stream check at
# every framing caller came out of `framing.rs` (no second trailer reader)
# and `software::decompress` (now the `nx-deflate` doors themselves). Both
# sit exactly where they sat, so their caps stay.
# Issue 24 (the entropy back end on the stack) lowered two. nx-accel 1820 ->
# 1794: `CannedSet` is never empty by construction and `CannedTable::
# cost_bits` is the one spelling of a table's cost, so `select`'s panics,
# `len` / `is_empty`, the free `cost_bits` and three hand-rolled histogram
# loops went. nx-deflate 7545 -> 7543: the `Vec`-building Huffman, plan and
# canonical-code bodies, two of the three `choose_and_encode_block*`
# spellings, the canned path's scratch writer + histogram and three unused
# `pub` items (`huffman::is_complete`, `Histogram::token_count`,
# `deflate_tokens_with_strategy`) paid for the stack builder, the rendered
# canned header, the in-place writer and the layer docs. nx-core's
# `framing::frame` (one place a compress path spells a container) came out
# exactly even: 8024 stays.
# Issue 25 (resumable in-block positions) raised nx-deflate 7543 -> 7582,
# inside the 40 it allowed: the open-block state (`Open`, `Body`), the one
# header reader both engines share (`open_block`), the entry at `(block_bit,
# bit_offset)` (`enter_block`, `Inflater::resume_at` / `block_bit`,
# `BitReader::seek`) and the stored block that stops at a byte
# (`stored_share`), ~110 lines with their docs, against ~70 the change
# deleted: `InflateStream`'s restart-from-the-header loop, `skip_bits`,
# `Inflater::new_at`, and the two engines' copies of the LEN/NLEN parse and
# the BTYPE dispatch. nx-core's checkpoints inside blocks, wire v3 and the
# read that hands its pooled state back on every exit came out even against
# the BTYPE peek in `decode_to` and two decode bodies folded into
# `repair_to`: 8024 stays.
# nx-bench: 5136 lines while it ran a second host-clock benchmark system
# beside `nxbench` (best-of-N timing loops in E17-E21 and E24-E26, `tables
# --json`, ten hand-rolled JSON writers). With the timing loops gone, every
# BENCH_*.json holding deterministic cells through one `Row` writer and CI
# gating the files by `git diff`, it is capped where that left it, so a
# timing loop cannot grow back unnoticed.
# Routing index-less single streams to serial lowered three. nx-core
# 8024 -> 7728: the speculative single-member route (boundary scan, chunk
# decode, patch-and-repair pass, `Spec` / `Body`, the probe budget
# constants), the `chunk_size` knob, the `pool` field and three counters
# never beat the serial walk they fell back to, and went. nx-deflate
# 7582 -> 7565: `probe_block_start` (no caller) and the docs that served
# speculation. nx-bench 3714 -> 3685: E22's chunk / miss / patch cells.
# Running sharded compress on the decode side's scoped `fan_out` lowered
# nx-core 7728 -> 7482: the persistent pool (`Job`, `ShardOut`,
# `WorkerShape`, `worker_loop`), its job channel, submit/collect loop,
# liveness probe and `Drop`, the input copy, the two-step constructor and
# four `pub` methods nothing called (`compress_in_trace`, `compress_with`,
# `inflater`, `decode_stats`) went; the stitch writes the container once.
# One block loop for every ladder encode lowered three. nx-deflate 7565 ->
# 7508: `StreamEncoder::write_into`'s token-count-only loop and
# `deflate_with_dict_to`'s tokenize / stage / split body became calls into
# the one-shot encoder's body (`Encoder::encode_chunk`), and what served
# them only went with them (`Tokenizer::tokenize` / `tokenize_with` /
# `literals`, `hash4::tokenize_into`). nx-core 7482 -> 7480: the FLEVEL
# parameter of `framing::frame`. nx-bench 3685 -> 3684: E25 tokenizes
# through `deflate_tokens`.
# One request queue lowered nx-core 7480 -> 7390: `AsyncSession` became a
# one-window service of its own, so its engine thread, command channel,
# `Cmd`, `QueueTelemetry` (depth gauge, overflow counter) and second
# `queue_wait` synthesis went, with `Trace::context` (their last caller).
# The adapter keeps the frozen API's documented items and the service took
# ~45 back: the pool release, the room condvar and the one admission that
# can wait for room (`TenantHandle::enqueue`, `ServiceCore::has_room`).
# Deleting six `pub` functions nothing in the workspace, `benchmark/`, the
# tests, examples or docs called lowered three: nx-core 7390 -> 7379
# (`ServiceStats::jain_completed`), nx-deflate 7508 -> 7502
# (`huffman::decode::table_from_lengths`) and nx-sys 1589 -> 1551
# (`ExperimentResult::record_into`, `SystemSim::cost_model`). nx-sim, which
# has no cap, lost `FifoStation::next_free` and `Percentiles::record_time_us`.
# Building the seek index in one decode lowered nx-core 7379 -> 7376: the
# marker pass (`Walker::referenced`, its marker scratch, cell buffer and
# live map) gave way to window-read tallies closed by `close_tallies`, and
# the member planner's header trial runs on the plain `Inflater`. It raised
# nx-deflate 7502 -> 7529 for the tally itself: the per-tally mark
# (`Tracer::mark_reads`), a third instantiation of the fast loop that runs
# it (`fast_loop::<true, true>`; marking from the model's traced loop cost
# `accel_model` `decompress_mb_per_s` ~6 % inline, ~2 % out of line with a
# length check) and the `Inflater::window_reads` door.
# nx-sys keeps what the experiments run, 1551 -> 1246: the runner's span
# tracer (never enabled), its second window-credit accountant (one proptest
# turned it on; credits are `nx_core::service::sched`'s), the CRB/CSB types
# and `CsbTag` nothing built, and the runner's second spelling of
# `dma::DmaEngines::transfer` went. nx-core 7376 -> 7351: `Nx::with_options`
# / `options` (one default value in use) and `RecoveryPolicy::
# sleep_on_backoff` (never set). The same change made every file's first
# `#[cfg(test)]` open its test module (a ci.sh gate holds it), which moved
# two counts without moving code: nx-telemetry's histogram.rs had a test-only
# `use` above its body, which hid 276 of its lines (1834 -> 2110 at the
# parent, corrected; 2111 with the module doc's link to `SUB_BUCKETS`
# spelled in full, now capped), and the experiment registry's test-only
# source table hid the `experiments!` invocation from nx-bench (3684 ->
# 3692 at the parent, corrected; 3690 with the table read by the test).
# Running a large request's later segments ahead on helper threads
# (matcher.rs: `tokenize_split`, `run_ahead`, the fused loop over a caller's
# or a helper's cover) took ~100 lines of nx-accel, paid for by deleting
# `history.rs` (`HistoryBuffer`, 107 lines no model path read) and four
# `pub` items nothing called (`MatchEngine::config`, `HashBank::sets` /
# `ways`, `AccelStream::total_in`): 1794 -> 1789.
# The bank at the cost of its lanes raised nx-accel 1789 -> 1837: stamped
# 8-wide rows (`HashBank::stamp` / `row`, the wrap-only clear in `reset`,
# the probe's one distance test per way), the stall fast path over 4-bit
# fields of a `u64` beside the exact merge it falls back to, and the block
# histogram counted in the span pass (huffenc.rs), ~70 lines with their
# docs, against the cursor, the empty-way sentinel and `lookup`'s ring walk
# that went.
# One worker budget for every fan-out lowered nx-core 7351 -> 7329 and
# raised nx-deflate 7529 -> 7677, which is more than nx-core fell: the
# budget module (`workers.rs`: the one CPU-count read, `Workers` with its
# slot counts and high-water mark, the non-blocking `claim`, `Claim::run`,
# the one scoped spawn for request work, and `Workers::fan_out`, the
# dynamic hand-out moved down from nx-core's `parallel.rs::fan_out`) is
# ~150 lines with its docs, against what went: nx-core's `fan_out`,
# `ParallelEngine::try_new` / `with_faults`, `Error::NoWorkers` and the
# inflater's zero-worker rounding, and nx-accel's own CPU cache, segment
# rule and scoped spawn (nx-accel stays at 1837, paying for
# `Accelerator::with_workers` and the engine's budget field).
# Running a large ladder encode's later segments ahead on the handle's
# helpers raised nx-deflate 7677 -> 8047: the sequential tokenizers run from
# a loop-top cursor to a stop (`Cursor`, `Rung`, the skip ranges the
# insert-skip leaves unindexed), and the split itself (`tokenize_into_on`,
# `run_ahead` with its checkpoints, `tokenize_split`, the window compare and
# re-index, `SearchStats::add_between`, `Encoder::with_workers` /
# `StreamEncoder::with_workers`, the one segment rule moved into
# `workers.rs`), ~330 lines with the exactness argument in their docs. It
# raised nx-core 7329 -> 7330 (the handle's budget handed to the one-shot
# ladder encode and to scratch sessions); nx-accel fell 1837 -> 1828 with
# its copy of the segment rule, and its cap follows.
# Emitting a large batch-matcher encode's blocks behind its parse raised
# nx-deflate 8047 -> 8308: the streaming block emitter (`BlockEmitter`:
# `feed`, `close`, the carry of a block straddling a chunk seam), the route
# (`emit_behind`, `emit_chunks`, `claim_behind`, the hand-over and in-flight
# bounds), the batch loop run from a cursor to a stop (`batch::Cursor`,
# `batch::run`), one parse over stops for either matcher (`hash4::Parse`,
# which also serves `tokenize_into_on`'s serial call) and
# `BitWriter::truncate` for a dead helper, ~300 lines with the exactness
# argument in their docs, against the old block loop and the three `pub`
# tokenizers nothing but tests called (`tokenize_fastest_into`,
# `tokenize_greedy4_into`, `tokenize_lazy4_into`, with `Rung::tokenize`).
# Running canned requests through the one encode body and block loop
# lowered nx-deflate 8308 -> 8210: the canned path's own tokenize-and-stage
# body (with its staging thread-local; the thread's `Tokenizer` lends that
# buffer now, and a session's folds its own into it) and its own block loop
# (`emit_canned_blocks`: token-count cuts, a guard summed token by token, a
# misfit fallback that could not store) gave way to a guard priced from the
# histogram the one loop keeps (`Profile::write_block`, one pass over both
# alphabets: summing the canned and fixed costs as four dot products each
# read ~3 % slower on 2 KiB canned requests), and the two
# match-finding strategies only tests selected (`Strategy::HuffmanOnly` /
# `Rle`, `tokenize_rle`, `Encoder::with_strategy` / `strategy`) went with
# their branches in the tokenizer, the one-shot encoder and the emit-behind
# route. `choose_and_encode_block` lost its `Option`: every caller has the
# block's span.
# Counting and emitting where tokens are made lowered nx-deflate 8210 ->
# 8209: the one block sink every parse loop pushes into (`lz77::Sink`,
# `encoder.rs::Blocks` with its `Ladder`, `Canned` and `Behind` emitters),
# the canned single pass (`EmitTables::put` / `end`, `BitWriter::set_bit`)
# and the serial parse as one function (`hash4::parse`) came out one line
# under what went: the streaming `BlockEmitter` (`cut`, `carry`, `feed`),
# `emit_chunks`, `HAND_OVER`, `encode_behind`, `tokens_on`, `hash4::Parse`
# and `batch::Cursor`.
# One run-ahead driver for both segment routes lowered two. nx-accel 1828
# -> 1820 and nx-deflate 8209 -> 8206: the model's and the ladder's own
# splits (segment arithmetic, the parse-then-adopt loop, the dead-helper
# fallback; `tokenize_split` and `run_ahead` twice, the model's single meet
# `SYNC_WINDOWS` with its `sync` / `own` fields, the ladder's `Ahead` and
# `reindex`, and `Rung::run`'s seven-argument dispatch) gave way to
# `workers::run_ahead` with its `Parse` / `Adopt` traits (~60 lines with its
# docs), each route's parse state with its compare and adopt step, and the
# sequential loops taking one `Parser`. That is 11 lines net, short of the 80
# the change aimed at: each route's state, compare and adopt step stay its
# own, and two trait impls per route cost about what the duplicated loop did.
# The decode superloop in libdeflate's shape lowered nx-deflate 8206 -> 8191:
# one branch-free refill at every token start replaced the conditional
# top-of-loop refill and the one inside a match, and a preloaded entry
# replaced the chained-literal fall-through into the match path; the
# 16-byte copy and the refill closure took back what the rest left.
declare -A CAP=([accel]=1820 [bench]=3690 [deflate]=8191 [core]=7330 [sys]=1246 [telemetry]=2111)

total=0
pubs=0
over=0
printf '%-12s %6s %5s\n' crate lines pub
for crate in crates/*/; do
    name=$(basename "$crate")
    read -r n p < <(find "${crate}src" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t{n++}
            !t && /^[[:space:]]*pub (fn|struct|enum|mod|const|static|type|trait|use) /{p++}
            END{print n+0, p+0}')
    cap=${CAP[$name]:-}
    printf '%-12s %6d %5d%s\n' "$name" "$n" "$p" "${cap:+  (cap $cap)}"
    if [[ -n "$cap" && "$n" -gt "$cap" ]]; then
        over=1
    fi
    total=$((total + n))
    pubs=$((pubs + p))
done
printf '%-12s %6d %5d\n' total "$total" "$pubs"
if [[ "$over" != "0" ]]; then
    echo "a crate grew past its non-test LOC cap" >&2
    exit 1
fi
