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
# when it grows past it.

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
declare -A CAP=([accel]=1794 [bench]=3685 [deflate]=7565 [core]=7728 [sys]=1589)

total=0
over=0
for crate in crates/*/; do
    name=$(basename "$crate")
    n=$(find "${crate}src" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}')
    cap=${CAP[$name]:-}
    printf '%-12s %6d%s\n' "$name" "$n" "${cap:+  (cap $cap)}"
    if [[ -n "$cap" && "$n" -gt "$cap" ]]; then
        over=1
    fi
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
if [[ "$over" != "0" ]]; then
    echo "a crate grew past its non-test LOC cap" >&2
    exit 1
fi
