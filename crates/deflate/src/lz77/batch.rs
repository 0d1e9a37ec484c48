//! Batched speculative matcher — the software model of the NX
//! 8-bytes-per-cycle LZ77 pipeline (ISCA 2020 paper, §"compression
//! ratio vs. throughput"). Where the sequential matchers in
//! [`super::hash4`] decide one position at a time, this engine works in
//! fixed windows of [`WINDOW_LANES`] = 8 consecutive positions and runs
//! the hardware's four phases per window:
//!
//! ```text
//!          base                          base+8
//!            |  0  1  2  3  4  5  6  7  |
//! phase 1:   [ batch-hash all 8 lanes from two wide u64 loads ]
//!            [ ingest: publish every lane in the hash4 chains ]
//! phase 2:   [ probe: captured old heads = one bank read/lane  ]
//! phase 3:   [ walk: greedy jump + lazy cascade over lanes    ]
//! phase 4:   [ cover resolution: non-overlapping pick set      ]
//!            emit literals for gaps; the rightmost pick may
//!            overshoot into later windows (those ingest-only)
//! ```
//!
//! Windows advance by a fixed 8 positions, exactly like the hardware
//! ingest; an `emit` frontier past the window end (a long match from an
//! earlier window) turns subsequent windows into ingest-only cycles.
//! Phase 3 does not blindly extend all 8 lanes — that is the work an
//! 8-lane ALU array absorbs in silicon but software pays for serially.
//! The walk extends lane `i` (u64-XOR `match_length`), and on a hit
//! cascades: lane `i+1` is probed while it extends strictly longer,
//! each improvement recorded as a candidate and the dominated ones left
//! for the cover stage to discard — the same speculative waste the
//! hardware pipeline throws away every cycle. Cover selection is
//! [`super::cover::resolve_cover`] — longest-first with lazy-equivalent
//! tie-breaks.
//!
//! Divergences from the hardware N=8 pipeline (also in DESIGN.md):
//!
//! * chains, not banked CAMs: each lane walks the shared `head`/`prev`
//!   arrays with a small per-level budget instead of probing a fixed
//!   row of hash banks, so deeper levels can buy a longer walk;
//! * the hash3 side-table is a lazy **side channel**, level 2+ only:
//!   a lane whose hash4 walk comes up empty pays one head-only
//!   probe-and-publish, so match-dense data never touches the table
//!   while literal-heavy columnar/delta data — the data that needs
//!   3-byte recovery — publishes densely. Level 1 skips it entirely:
//!   recovered 3-byte matches keep literal runs short enough that the
//!   stride-mode skip never engages, and the Fastest rung exists to
//!   win exactly those wall-clock cases (same line the interior-ingest
//!   skip draws). Acceptance matches the sequential matchers: length
//!   4+ joins the candidate set; a pure 3-byte match is kept only when
//!   nothing else in the window qualifies, because cover resolution
//!   floors its candidates at 4;
//! * a stride-mode skip (the sequential matchers' heuristic at batch
//!   grain) collapses to single-probe striding inside incompressible
//!   stretches, resuming windows on a 4-byte echo — the hardware has no
//!   such feedback path, it simply never stalls;
//! * an interior-ingest skip ([`INGEST_SKIP_MIN`], level 1 only) hops
//!   over the fully covered interiors of long matches, publishing one
//!   coarse anchor per window.

use super::cover::{resolve_cover, Candidate, CoverPicks, WINDOW_LANES};
use super::hash::match_length;
use super::hash4::{
    hash3_value, hash4_value, index_end, index_history, Hash4Matcher, CHAIN_HIST_BUCKETS,
    SPEC_COVER_BUCKETS, TOO_FAR,
};
use super::{MatcherConfig, Sink, Token};
use crate::{MIN_MATCH, WINDOW_SIZE};

/// Per-run statistics accumulated in registers/stack and merged into
/// the matcher's [`SearchStats`](super::hash4::SearchStats) once at the
/// end of the pass — bumping the shared counters per window costs a
/// measurable slice of the 8-bytes-per-step budget.
#[derive(Default)]
struct SpecAgg {
    windows: u64,
    candidates: u64,
    covered: u64,
    discarded: u64,
    cover_hist: [u64; SPEC_COVER_BUCKETS],
    chain_hist: [u64; CHAIN_HIST_BUCKETS],
}

impl SpecAgg {
    /// Mirror of `SearchStats::record_walk`, against the local
    /// histogram: one entry per window, total steps across its lanes.
    #[inline]
    fn record_walk(&mut self, steps: usize) {
        let bucket = (usize::BITS - steps.leading_zeros()) as usize;
        self.chain_hist[bucket.min(CHAIN_HIST_BUCKETS - 1)] += 1;
    }

    fn flush(self, m: &mut Hash4Matcher) {
        let s = &mut m.stats;
        s.spec_windows += self.windows;
        s.spec_candidates += self.candidates;
        s.spec_covered += self.covered;
        s.spec_discarded += self.discarded;
        for (dst, src) in s.spec_cover_hist.iter_mut().zip(self.cover_hist) {
            *dst += src;
        }
        for (dst, src) in s.chain_hist.iter_mut().zip(self.chain_hist) {
            *dst += src;
        }
    }
}

/// Literal-run shift for the batch-grained insert-skip heuristic: after
/// `2^SKIP_SHIFT` consecutive literals each further empty window skips
/// `lit_run >> SKIP_SHIFT` extra bytes (capped) without hashing.
const SKIP_SHIFT: u32 = 5;

/// Cap on the stride-mode skip step (the sequential matchers' cap), so
/// one incompressible stretch cannot blind the matcher for long once
/// compressible data resumes.
const SKIP_MAX: usize = 32;

/// Matches at least this long skip ingestion of their fully covered
/// interior windows (zlib's `max_insert_length` idea at batch grain):
/// every interior n-gram also occurs `dist` bytes back where it *is*
/// indexed, so the dictionary only loses the copy nearer the window
/// edge — a fine trade at the throughput rung, and long matches are
/// exactly where ingest-only cycles dominate the wall clock. Level 1
/// only: deeper rungs buy back the ratio with full ingestion, keeping
/// the ladder monotone on long-run corpora.
const INGEST_SKIP_MIN: usize = 128;

/// Chain-walk budget per lane. The hardware probes a fixed number of
/// bank rows per position; the throughput rungs mirror that with a
/// near-head-only walk, while a forced speculative run at a deeper rung
/// inherits a bounded slice of that rung's chain budget (the cover
/// stage, not walk depth, is this engine's quality lever).
fn chain_budget(level: u32, cfg: &MatcherConfig) -> usize {
    match level {
        1 => 1,
        2 => 2,
        3 => 4,
        _ => cfg.max_chain.clamp(4, 16),
    }
}

/// The 4 little-endian bytes at `data[p..]` (requires `p + 4 <= len`).
#[inline(always)]
fn read_u32le(data: &[u8], p: usize) -> u32 {
    u32::from_le_bytes([data[p], data[p + 1], data[p + 2], data[p + 3]])
}

/// The 8 little-endian bytes at `data[p..]` (requires `p + 8 <= len`).
#[inline(always)]
fn read_u64le(data: &[u8], p: usize) -> u64 {
    u64::from_le_bytes([
        data[p],
        data[p + 1],
        data[p + 2],
        data[p + 3],
        data[p + 4],
        data[p + 5],
        data[p + 6],
        data[p + 7],
    ])
}

/// Loads the 4-byte values of all `lanes` window positions at once.
/// The full-window path feeds every lane from two wide u64 loads by
/// shifting — the scalar skeleton a `std::simd` gather/shuffle can
/// replace one-for-one; the tail path loads per lane.
#[inline(always)]
fn load_lane_values(data: &[u8], base: usize, lanes: usize, vals: &mut [u32; WINDOW_LANES]) {
    if lanes == WINDOW_LANES && base + 16 <= data.len() {
        let lo = read_u64le(data, base);
        let hi = read_u64le(data, base + 8);
        vals[0] = lo as u32;
        vals[1] = (lo >> 8) as u32;
        vals[2] = (lo >> 16) as u32;
        vals[3] = (lo >> 24) as u32;
        vals[4] = (lo >> 32) as u32;
        vals[5] = ((lo >> 40) | (hi << 24)) as u32;
        vals[6] = ((lo >> 48) | (hi << 16)) as u32;
        vals[7] = ((lo >> 56) | (hi << 8)) as u32;
    } else {
        for (i, v) in vals.iter_mut().enumerate().take(lanes) {
            *v = read_u32le(data, base + i);
        }
    }
}

/// Extends the chain starting at head stamp `first` for position `pos`
/// whose 4-byte value is `val`, walking at most `budget` candidates.
/// Returns `(best_len, best_dist, steps)`; `best_len` is 0 when nothing
/// of length ≥ 4 was found. The u32 equality pre-check makes every
/// accepted candidate at least 4 bytes, so no 3-byte matches arise.
#[inline(always)]
fn extend_lane(
    m: &Hash4Matcher,
    data: &[u8],
    pos: usize,
    val: u32,
    first: u32,
    budget: usize,
    nice: usize,
) -> (usize, usize, usize) {
    let mut best_len = 0usize;
    let mut best_dist = 0usize;
    let mut steps = 0usize;
    let mut cur = first;
    while cur != 0 {
        let cand = (cur - 1) as usize;
        if cand >= pos || pos - cand > WINDOW_SIZE {
            break;
        }
        steps += 1;
        if read_u32le(data, cand) == val {
            let len = match_length(data, cand, pos);
            if len > best_len {
                best_len = len;
                best_dist = pos - cand;
                if len >= nice {
                    break;
                }
            }
        }
        if steps >= budget {
            break;
        }
        let delta = m.prev_delta(cand);
        if delta == 0 || delta >= cur {
            break;
        }
        cur -= delta;
    }
    (best_len, best_dist, steps)
}

/// Speculative tokenizer: appends tokens for `data[start..]` with
/// `data[..start]` as history, using fixed 8-position windows and cover
/// resolution (see the module docs). Every byte of `data[start..]` is
/// covered by exactly one token; the caller flushes the accumulated
/// search/cover statistics.
pub fn tokenize_speculative_into(
    data: &[u8],
    start: usize,
    level: u32,
    m: &mut Hash4Matcher,
    tokens: &mut Vec<Token>,
) {
    index_history(m, data, start);
    run(data, start, level, m, tokens);
}

/// The batch loop over `data[start..]` on a matcher that indexed the history,
/// into `tokens`; the counters go to the matcher's.
#[inline(never)]
pub(crate) fn run(
    data: &[u8],
    start: usize,
    level: u32,
    m: &mut Hash4Matcher,
    tokens: &mut impl Sink,
) {
    let cfg = MatcherConfig::for_level(level);
    let budget = chain_budget(level, &cfg);
    let lazy_peek = true;
    let may_skip_ingest = level <= 1;
    // The hash3 side channel is a level-2+ quality lever: even probed
    // lazily, recovering 3-byte matches keeps literal runs short enough
    // that the stride-mode skip never engages on semi-compressible data,
    // and the Fastest rung exists to win exactly those wall-clock cases
    // (the interior-ingest skip draws the same line).
    let use_hash3 = level >= 2;
    let end4 = index_end(data);
    let (mut base, mut emit, mut lit_run) = (start, start, 0);
    let (mut skip_ingest, mut agg) = (false, SpecAgg::default());
    let mut vals = [0u32; WINDOW_LANES];
    let mut olds = [0u32; WINDOW_LANES];
    let mut cands = [Candidate {
        offset: 0,
        len: 0,
        dist: 0,
    }; WINDOW_LANES];
    let mut picks = CoverPicks::default();
    while base < end4 {
        if skip_ingest {
            // Interior of a long match: hop over every fully covered
            // window, publishing only lane 0 of each as a coarse anchor
            // (see INGEST_SKIP_MIN). Dropping interiors entirely leaves
            // chains so sparse that later probes walk to far-away
            // candidates and pay extra distance bits; one anchor per
            // window keeps near repeats findable at 1/8 the hash cost.
            if emit >= base + WINDOW_LANES {
                let jump_end = base + ((emit - base) & !(WINDOW_LANES - 1));
                while base < jump_end {
                    let v = read_u32le(data, base);
                    m.spec_insert(hash4_value(v), base);
                    base += WINDOW_LANES;
                }
                if base >= end4 {
                    break;
                }
            }
            skip_ingest = false;
        }
        let wend = (base + WINDOW_LANES).min(end4);
        let lanes = wend - base;
        // Phase 1: batch-hash and ingest every lane. Capturing the old
        // head at insert time is the bank probe (phase 2): lanes later
        // in the window see earlier lanes' insertions, so intra-window
        // matches (runs) resolve just like the hardware's in-flight
        // forwarding. The full-window arm has a constant trip count so
        // it unrolls; only the last window of a run is partial.
        load_lane_values(data, base, lanes, &mut vals);
        if lanes == WINDOW_LANES {
            for i in 0..WINDOW_LANES {
                olds[i] = m.spec_insert(hash4_value(vals[i]), base + i);
            }
        } else {
            for i in 0..lanes {
                olds[i] = m.spec_insert(hash4_value(vals[i]), base + i);
            }
        }
        if emit >= wend {
            // Window fully covered by an earlier overshooting match:
            // ingest-only cycle.
            base += WINDOW_LANES;
            continue;
        }
        // Phase 3: bounded extension for the uncovered lanes. The
        // hardware extends all 8 lanes in parallel silicon; a serial
        // emulation that does the same spends ~8 comparator runs per
        // window and lands well below the sequential matchers. Instead
        // the walk greedy-jumps across each found match and adds one
        // lazy peek at the next lane — the only overlapping candidate
        // the cover stage could prefer is a strictly longer match one
        // position later (the consumed-anchor rule discards interior
        // anchors), so deeper lanes of a covered span cannot win and
        // extending them would be pure waste. A match reaching the
        // window end stops the walk: the remaining lanes are inside
        // its span.
        let window = wend - emit;
        let mut ncand = 0usize;
        let mut walked = 0usize;
        let mut three: Option<(usize, usize)> = None;
        let mut i = emit - base;
        while i < lanes {
            let mut pos = base + i;
            let old = m.rebase(olds[i]); // at use, not ingest: covered lanes never pay
            let (mut len0, mut dist0, steps) =
                extend_lane(m, data, pos, vals[i], old, budget, cfg.nice_length);
            walked += steps;
            if len0 < 4 {
                // hash4 saw nothing: one head-only hash3 side-probe, the
                // sequential matchers' pure-3-byte recovery (columnar /
                // delta data lives on these). Probe-and-publish happens
                // here, lazily — only hash4-miss lanes ever touch the
                // hash3 table, so match-dense data pays nothing for the
                // side channel (an eager per-lane publish in phase 1
                // costs the speculative engine ~15% throughput), while
                // the literal-heavy data that needs 3-byte recovery is
                // exactly the data that publishes densely. Length 4+
                // results join the normal candidate flow; an exact
                // 3-byte hit cannot enter cover resolution (its keep
                // floor is 4), so it is held aside and emitted only if
                // the whole window otherwise stays literal. Same
                // acceptance bound as `search`: a lone-probe length-3
                // match only pays within 64 bytes.
                let first3 = if use_hash3 {
                    m.spec_insert3(hash3_value(vals[i]), pos)
                } else {
                    0
                };
                if first3 != 0 {
                    let cand = (first3 - 1) as usize;
                    if cand < pos
                        && pos - cand <= TOO_FAR
                        && (read_u32le(data, cand) ^ vals[i]) & 0x00FF_FFFF == 0
                    {
                        let len = match_length(data, cand, pos);
                        let dist = pos - cand;
                        if len > MIN_MATCH {
                            len0 = len;
                            dist0 = dist;
                        } else if dist <= 64 && three.is_none() {
                            three = Some((pos, dist));
                        }
                    }
                }
                if len0 < 4 {
                    i += 1;
                    continue;
                }
            }
            let mut len = len0;
            cands[ncand] = Candidate {
                offset: (pos - emit) as u32,
                len: len as u32,
                dist: dist0 as u32,
            };
            ncand += 1;
            // Lazy cascade: keep deferring while the next lane extends
            // strictly longer (the dominated candidates stay behind for
            // the cover stage to discard — that is the speculative
            // discard the hardware pipeline also pays).
            while lazy_peek && pos + len < wend && i + 1 < lanes {
                let (len2, dist2, steps2) = extend_lane(
                    m,
                    data,
                    pos + 1,
                    vals[i + 1],
                    m.rebase(olds[i + 1]),
                    budget,
                    cfg.nice_length,
                );
                walked += steps2;
                if len2 <= len {
                    break;
                }
                i += 1;
                pos += 1;
                len = len2;
                cands[ncand] = Candidate {
                    offset: (pos - emit) as u32,
                    len: len as u32,
                    dist: dist2 as u32,
                };
                ncand += 1;
            }
            if pos + len >= wend {
                break;
            }
            i += len;
        }
        if walked > 0 {
            agg.record_walk(walked);
        }
        agg.windows += 1;
        agg.candidates += ncand as u64;
        if ncand == 0 {
            if let Some((tpos, tdist)) = three {
                // The hash3 side channel was the only producer: emit its
                // lone 3-byte match directly (no cover resolution — a
                // single pick with every other lane already probed).
                agg.candidates += 1;
                agg.covered += MIN_MATCH as u64;
                agg.cover_hist[1] += 1;
                for &b in &data[emit..tpos] {
                    tokens.push(Token::Literal(b));
                }
                tokens.push(Token::Match {
                    len: MIN_MATCH as u16,
                    dist: tdist as u16,
                });
                emit = tpos + MIN_MATCH;
                if emit < wend {
                    for &b in &data[emit..wend] {
                        tokens.push(Token::Literal(b));
                    }
                    emit = wend;
                }
                lit_run = 0;
                base += WINDOW_LANES;
                continue;
            }
            // No candidate anywhere in the window: emit it as literals.
            agg.cover_hist[0] += 1;
            for &b in &data[emit..wend] {
                tokens.push(Token::Literal(b));
            }
            lit_run += wend - emit;
            emit = wend;
            base += WINDOW_LANES;
            if lit_run >= (1 << SKIP_SHIFT) {
                // Degenerate stretch: drop out of window mode into
                // single-probe striding — the sequential matchers' skip
                // heuristic with the same probe rate and blindness
                // profile (8-lane probe bursts followed by long blind
                // gaps lose stride-patterned matches the sequential
                // walk finds). Resume windows at the first 4-byte echo.
                while emit < end4 {
                    let val = read_u32le(data, emit);
                    let h = hash4_value(val);
                    let first = m.head_stamp(h);
                    if first != 0 {
                        let cand = (first - 1) as usize;
                        if cand < emit
                            && emit - cand <= WINDOW_SIZE
                            && read_u32le(data, cand) == val
                        {
                            break;
                        }
                    }
                    m.spec_insert(h, emit);
                    if use_hash3 {
                        m.spec_insert3(hash3_value(val), emit);
                    }
                    let extra = (lit_run >> SKIP_SHIFT).min(SKIP_MAX);
                    let skip_end = (emit + 1 + extra).min(data.len());
                    for &b in &data[emit..skip_end] {
                        tokens.push(Token::Literal(b));
                    }
                    lit_run += skip_end - emit;
                    emit = skip_end; // skipped bytes are never ingested
                }
                base = emit;
            }
            continue;
        }
        // Phase 4: cover resolution and emission. A lone candidate (the
        // bulk of all windows — see the nxtop cover histogram) needs no
        // resolution: the walk already probed every lane outside its
        // span, so gaps are literals by construction.
        if ncand == 1 {
            let c = cands[0];
            agg.covered += u64::from(c.len.min(window as u32 - c.offset));
            agg.cover_hist[1] += 1;
            let anchor = emit + c.offset as usize;
            for &b in &data[emit..anchor] {
                tokens.push(Token::Literal(b));
            }
            tokens.push(Token::Match {
                len: c.len as u16,
                dist: c.dist as u16,
            });
            emit = anchor + c.len as usize;
            skip_ingest = may_skip_ingest && c.len as usize >= INGEST_SKIP_MIN;
            if emit < wend {
                for &b in &data[emit..wend] {
                    tokens.push(Token::Literal(b));
                }
                emit = wend;
            }
            lit_run = 0;
            base += WINDOW_LANES;
            continue;
        }
        let outcome = resolve_cover(&cands[..ncand], window, &mut picks);
        agg.covered += outcome.covered as u64;
        agg.discarded += outcome.discarded as u64;
        agg.cover_hist[outcome.picked.min(WINDOW_LANES)] += 1;
        let mut off = 0usize;
        while off < window {
            if let Some(c) = picks[off] {
                tokens.push(Token::Match {
                    len: c.len as u16,
                    dist: c.dist as u16,
                });
                off += c.len as usize;
                skip_ingest = may_skip_ingest && c.len as usize >= INGEST_SKIP_MIN;
            } else {
                tokens.push(Token::Literal(data[emit + off]));
                off += 1;
            }
        }
        emit += off;
        lit_run = 0;
        // Windows advance by a fixed 8 regardless of the cover: the
        // interior of an overshooting match is ingested by the following
        // windows' ingest-only cycles, exactly like the hardware.
        base += WINDOW_LANES;
    }
    agg.flush(m);
    // The positions past the last window cannot anchor a match.
    for &b in &data[emit..] {
        tokens.push(Token::Literal(b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz77::expand_tokens;

    fn tokenize_spec(data: &[u8], level: u32) -> Vec<Token> {
        let mut m = Hash4Matcher::new();
        let mut tokens = Vec::new();
        tokenize_speculative_into(data, 0, level, &mut m, &mut tokens);
        tokens
    }

    #[test]
    fn empty_and_tiny_inputs() {
        for level in [1, 3, 6, 9] {
            assert!(tokenize_spec(b"", level).is_empty());
            assert_eq!(
                tokenize_spec(b"ab", level),
                vec![Token::Literal(b'a'), Token::Literal(b'b')],
                "level {level}"
            );
        }
    }

    #[test]
    fn finds_simple_repeat() {
        for level in [1, 2, 3, 6] {
            let data = b"abcdefabcdef";
            let tokens = tokenize_spec(data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(
                tokens
                    .iter()
                    .any(|t| matches!(t, Token::Match { len: 6, dist: 6 })),
                "level {level}: {tokens:?}"
            );
        }
    }

    #[test]
    fn run_compresses_via_overlap() {
        for level in [1, 3, 9] {
            let data = vec![b'z'; 3000];
            let tokens = tokenize_spec(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(
                tokens.len() < 40,
                "level {level}: run produced {} tokens",
                tokens.len()
            );
        }
    }

    #[test]
    fn roundtrips_structured_data() {
        let mut data = Vec::new();
        for i in 0..3000u32 {
            data.extend_from_slice(format!("key{}=value{};", i % 57, i % 13).as_bytes());
        }
        for level in 1..=9 {
            let tokens = tokenize_spec(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(tokens.iter().all(Token::is_valid), "level {level}");
        }
    }

    #[test]
    fn roundtrips_pseudorandom_data_with_skip_heuristic() {
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 7) as u8
            })
            .collect();
        for level in [1, 3, 6] {
            let tokens = tokenize_spec(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
        }
    }

    #[test]
    fn history_matches_reach_back() {
        let rec = b"history-record-history-record-";
        let mut data = rec.to_vec();
        let start = data.len();
        data.extend_from_slice(rec);
        let mut m = Hash4Matcher::new();
        let mut tokens = Vec::new();
        tokenize_speculative_into(&data, start, 1, &mut m, &mut tokens);
        let covered: usize = tokens.iter().map(Token::input_len).sum();
        assert_eq!(covered, data.len() - start);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "no history match found: {tokens:?}"
        );
    }

    #[test]
    fn window_bound_respected() {
        let mut data = vec![0u8; WINDOW_SIZE + 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8 ^ (i / 997) as u8;
        }
        for level in [1, 3, 9] {
            let tokens = tokenize_spec(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(tokens.iter().all(Token::is_valid), "level {level}");
        }
    }

    #[test]
    fn cover_beats_pure_greedy_on_staggered_overlaps() {
        // A short match at the window head overlapping a much longer one
        // a position later: sequential greedy takes the short one; the
        // cover stage must prefer the long one (lazy-equivalent).
        let data = b"abcd_XYZabcdefghijklmnop__XabcdefghijklmnopQQQQ";
        let tokens = tokenize_spec(data, 3);
        assert_eq!(expand_tokens(&tokens), data);
        assert!(
            tokens
                .iter()
                .any(|t| matches!(t, Token::Match { len, .. } if *len >= 16)),
            "cover stage failed to keep the long match: {tokens:?}"
        );
    }

    #[test]
    fn hash3_side_channel_finds_pure_3_byte_repeats() {
        // Delta-style columnar data: 3-byte records whose 4-byte windows
        // never repeat, so the hash4 chains see nothing — only the hash3
        // side channel can turn these into matches.
        let mut data = Vec::new();
        for i in 0..400u32 {
            data.extend_from_slice(b"ab:");
            data.push((i % 251) as u8);
        }
        for level in [2, 3, 6] {
            let tokens = tokenize_spec(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(
                tokens
                    .iter()
                    .any(|t| matches!(t, Token::Match { len: 3, .. })),
                "level {level}: no 3-byte match emitted: {tokens:?}"
            );
        }
        // Level 1 keeps the Fastest rung probe-free: no 3-byte matches,
        // but the stream still round-trips.
        let tokens = tokenize_spec(&data, 1);
        assert_eq!(expand_tokens(&tokens), data);
        assert!(!tokens
            .iter()
            .any(|t| matches!(t, Token::Match { len: 3, .. })));
    }

    #[test]
    fn spec_stats_accumulate() {
        let data: Vec<u8> = std::iter::repeat_n(&b"stat stat stat stat "[..], 50)
            .flatten()
            .copied()
            .collect();
        let mut m = Hash4Matcher::new();
        let mut tokens = Vec::new();
        tokenize_speculative_into(&data, 0, 1, &mut m, &mut tokens);
        let stats = m.take_stats();
        assert!(stats.spec_windows > 0);
        assert!(stats.spec_candidates > 0);
        assert!(stats.spec_covered > 0);
        assert_eq!(
            stats.spec_cover_hist.iter().sum::<u64>(),
            stats.spec_windows
        );
        assert_eq!(m.take_stats().spec_windows, 0);
    }

    #[test]
    fn every_level_parses_mixed_content() {
        // All rungs, forced through the speculative engine, must cover
        // the input exactly (differential floor for the Engine knob).
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(format!("<row id='{i}' v='{}'/>", i % 97).as_bytes());
            data.push((i % 256) as u8);
        }
        for level in 1..=9 {
            let tokens = tokenize_spec(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
        }
    }
}
