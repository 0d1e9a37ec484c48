//! Flat-array hash4 match finder — the compression hot path.
//!
//! A libdeflate-style matcher: four-byte prefixes hash through one
//! multiplicative mix into a `head` array of position stamps, and a
//! circular `prev` array of *backward u16 deltas* links same-hash
//! positions into chains (the only thing left in [`super::hash`] is the
//! shared [`match_length`] comparator). Compared to zlib's
//! 3-byte-hash / absolute-link chains:
//!
//! * a 4-byte hash key quarters the collision rate, so a chain walk of
//!   the same budget inspects far fewer false candidates;
//! * `prev` stores `u16` deltas (a window is 32 768 ≤ `u16::MAX`), so the
//!   ring is 64 KB and stays cache-resident;
//! * the chain walk is an inline loop with a last-byte quick reject and
//!   the shared u64-XOR extension ([`super::hash::match_length`]), not an
//!   iterator;
//! * an **insert-skip heuristic** detects incompressible runs (long
//!   stretches with no match) and emits literals in growing steps without
//!   searching or indexing, so random data stops paying for a dictionary
//!   it cannot use.
//!
//! Three tokenizers sit on top, selected by the numeric level exactly as
//! zlib selects `deflate_fast`/`deflate_slow`:
//!
//! * `fastest` (level 1, [`crate::Level::Fastest`]) — head-only greedy:
//!   one probe per position, no chain walk at all;
//! * `greedy4` (levels 2–3) — greedy with a bounded walk;
//! * `lazy4` (levels 4–9) — zlib's one-token lazy deferral
//!   (`deflate_slow`) over the hash4 chains. The skip heuristic only
//!   engages after long literal droughts (shift 8 → 256 consecutive
//!   literals) so compressible data keeps the exact lazy parse.
//!
//! All three append per-search chain-walk lengths and lazy deferrals to
//! local counters that the caller flushes into the process-wide encode
//! telemetry (see [`crate::encoder::encode_counters`]).
//!
//! Each runs from a loop-top `Cursor` to a stop (a `Parser`), which the
//! run-ahead driver steps, and pushes each token into a `Sink` as it makes
//! it: a vector, or an encode's block sink.

use super::hash::match_length;
use super::{MatcherConfig, Sink, Token};
use crate::workers::{run_ahead, Adopt, Parse, Workers};
use crate::{MAX_MATCH, MIN_MATCH, WINDOW_SIZE};

/// log2 of the head table size. 16 bits × 4-byte entries = 256 KB; the
/// multiplicative hash uses the top bits of the 32-bit product.
const HASH4_BITS: u32 = 16;

const HASH4_SIZE: usize = 1 << HASH4_BITS;

/// log2 of the 3-byte head table. A 4-byte hash cannot see pure 3-byte
/// matches at all — and delta-encoded columnar data is made of them —
/// so a second head-only table (no chain) remembers the newest position
/// of each 3-byte prefix, probed only when the hash4 walk comes up
/// empty. Mirrors libdeflate's `hc_matchfinder` hash3 table.
const HASH3_BITS: u32 = 15;

const HASH3_SIZE: usize = 1 << HASH3_BITS;

const WMASK: usize = WINDOW_SIZE - 1;

/// Distance [`Hash4Matcher`]'s epoch keeps between one run's stamps and the next's.
const GAP: u32 = WINDOW_SIZE as u32;

/// Matches at `MIN_MATCH` (3 bytes) only pay off when the distance is
/// small — three literals are usually cheaper than a far reference.
/// Mirrors zlib's `TOO_FAR`. Module-visible: the batch engine's hash3
/// side-probe applies the same bound.
pub(super) const TOO_FAR: usize = 4096;

/// Number of log2 buckets in the chain-walk length histogram
/// (`0, 1, 2–3, 4–7, …, ≥64`).
pub const CHAIN_HIST_BUCKETS: usize = 8;

/// The multiplicative hash over a 4-byte little-endian value — exposed
/// to the batch engine, which loads its lane values with wide reads and
/// hashes them itself.
#[inline]
pub(super) fn hash4_value(v: u32) -> usize {
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH4_BITS)) as usize
}

/// Hash of the four bytes at `data[pos]` (requires `pos + 4 <= len`).
#[inline]
fn hash4(data: &[u8], pos: usize) -> usize {
    let b = &data[pos..pos + 4];
    hash4_value(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// The 3-byte multiplicative hash over a 4-byte little-endian value
/// (the fourth byte is masked off) — exposed to the batch engine, which
/// already holds each lane's `u32` from its wide loads.
#[inline]
pub(super) fn hash3_value(v: u32) -> usize {
    ((v & 0x00FF_FFFF).wrapping_mul(0x9E37_79B1) >> (32 - HASH3_BITS)) as usize
}

/// Hash of the three bytes at `data[pos]` (requires `pos + 3 <= len`).
#[inline]
fn hash3(data: &[u8], pos: usize) -> usize {
    let b = &data[pos..pos + 3];
    hash3_value(u32::from_le_bytes([b[0], b[1], b[2], 0]))
}

/// Buckets in the speculative cover histogram: a window of
/// [`super::cover::WINDOW_LANES`] = 8 positions selects 0..=8 matches.
pub const SPEC_COVER_BUCKETS: usize = 9;

/// Per-tokenize search statistics, accumulated locally (plain integers on
/// the hot path) and flushed once into the process-wide atomics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Chain-walk length histogram: bucket `i` counts searches that
    /// examined `2^(i-1) < n ≤ 2^i …` candidates (log2 buckets, bucket 0
    /// = exactly 0 or 1 candidates examined).
    pub chain_hist: [u64; CHAIN_HIST_BUCKETS],
    /// Lazy-matcher deferrals (a pending match displaced by a longer one).
    pub lazy_deferrals: u64,
    /// 8-position windows resolved by the speculative batch engine.
    pub spec_windows: u64,
    /// Batch-engine candidates that survived probe + extension, before
    /// cover resolution.
    pub spec_candidates: u64,
    /// Window positions covered by selected matches.
    pub spec_covered: u64,
    /// Candidates cover resolution dropped (anchor consumed by a longer
    /// selection, or truncated below the keep threshold).
    pub spec_discarded: u64,
    /// Histogram of matches selected per window (index = pick count).
    pub spec_cover_hist: [u64; SPEC_COVER_BUCKETS],
}

impl SearchStats {
    #[inline]
    pub(super) fn record_walk(&mut self, steps: usize) {
        let bucket = (usize::BITS - steps.leading_zeros()) as usize;
        self.chain_hist[bucket.min(CHAIN_HIST_BUCKETS - 1)] += 1;
    }

    /// Adds what a sequential parse counted between two readings of its
    /// counters (it counts walks and deferrals only).
    fn add_between(&mut self, from: &Self, to: &Self) {
        let hists = from.chain_hist.iter().zip(&to.chain_hist);
        for (n, (f, t)) in self.chain_hist.iter_mut().zip(hists) {
            *n += t - f;
        }
        self.lazy_deferrals += to.lazy_deferrals - from.lazy_deferrals;
    }
}

/// Flat-array hash4 dictionary: `head[h]` holds the stamp
/// `base + position + 1` of the newest occurrence of hash `h`, and
/// `prev[pos & WMASK]` holds the backward delta to the previous position
/// with the same hash (0 = end of chain).
///
/// # Stale-entry safety
///
/// [`reset`](Self::reset) writes no table: it moves the epoch `base` one
/// window past every stamp the finished run could have published (each
/// tokenizer declares its buffer length, `extent`, before its first
/// insert). A stamp `<= base` is therefore a slot nothing was published
/// in since the reset, and reads as empty — as a zeroed slot did when
/// `reset` filled the tables — in two places. A stamp leaving the table is
/// rebased once (`stamp - base`, saturating to 0), so every search keeps
/// the `pos + 1 | 0` convention. And the chain link an insert writes is cut
/// by its window bound alone: `base` starts a window above 0 and each
/// reset leaves a window's gap, so an empty or stale stamp lies more than
/// a window below a live one.
///
/// The 64 KB `prev` ring was never cleared and needs no epoch: every walk
/// starts at a live `head` slot, and an insert writes `prev[pos & WMASK]`
/// *before* publishing `pos` in `head` — so by induction every slot a walk
/// can reach was written in the current run. Within a run, a slot
/// overwritten by a position one window later is detected by the distance
/// bound (deltas always move strictly backward, so walks terminate).
///
/// The head tables are really zeroed only when `base` plus the next
/// buffer's length would not fit `u32`, which restarts the epoch.
#[derive(Debug)]
pub struct Hash4Matcher {
    head: Vec<u32>,
    prev: Vec<u16>,
    /// Head-only 3-byte table (see [`HASH3_BITS`]); same stamp convention
    /// as `head`, no chain.
    head3: Vec<u32>,
    /// Epoch: a stamp `<= base` is empty. `base + extent + GAP` fits `u32`.
    base: u32,
    /// Bound on `position + 1` over everything published since the reset.
    extent: u32,
    /// Positions `0..indexed` came from a loaded [`DictImage`];
    /// [`index_history`] resumes from here.
    indexed: usize,
    /// Local search statistics; see [`take_stats`](Self::take_stats).
    /// Module-visible so the sibling batch engine records into the same
    /// counters the sequential tokenizers use.
    pub(super) stats: SearchStats,
}

impl Default for Hash4Matcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hash4Matcher {
    /// Creates an empty matcher (the ~450 KB of tables allocate here).
    pub fn new() -> Self {
        Self {
            head: vec![0; HASH4_SIZE],
            prev: vec![0; WINDOW_SIZE],
            head3: vec![0; HASH3_SIZE],
            base: GAP,
            extent: 0,
            indexed: 0,
            stats: SearchStats::default(),
        }
    }

    /// Empties the dictionary for a new buffer in O(1); see the type docs
    /// for the epoch invariant and why `prev` may keep stale entries.
    pub fn reset(&mut self) {
        if self.extent != 0 {
            self.base += self.extent + GAP; // fits: `begin` left the room
        } // else nothing was published: the epoch is still unused
        self.extent = 0;
        self.indexed = 0;
    }

    /// Declares that positions below `len` will be published. If the epoch
    /// would overflow, really clears the tables (and forgets a loaded image).
    fn begin(&mut self, len: usize) {
        let len = len.min((u32::MAX - 2 * GAP) as usize) as u32;
        if self.base > u32::MAX - GAP - len {
            self.head.fill(0);
            self.head3.fill(0);
            self.base = GAP;
            self.indexed = 0;
        }
        self.extent = self.extent.max(len);
    }

    /// Loads what indexing `image`'s dictionary would have built into a
    /// just-reset matcher; the next buffer must start with that dictionary.
    pub(crate) fn load_image(&mut self, image: &DictImage) {
        let n = image.prev.len();
        self.begin(n);
        self.prev[..n].copy_from_slice(&image.prev);
        for &(slot, stamp) in &image.head {
            self.head[usize::from(slot)] = self.base + u32::from(stamp);
        }
        for &(slot, stamp) in &image.head3 {
            self.head3[usize::from(slot)] = self.base + u32::from(stamp);
        }
        self.indexed = n;
    }

    /// Takes and clears the accumulated search statistics.
    pub fn take_stats(&mut self) -> SearchStats {
        std::mem::take(&mut self.stats)
    }

    /// A stamp as the searches read it: `position + 1`, or 0 if stale.
    #[inline(always)]
    pub(super) fn rebase(&self, raw: u32) -> u32 {
        raw.saturating_sub(self.base)
    }

    /// Inserts `pos` (requires `pos + 4 <= data.len()`).
    #[inline]
    pub fn insert(&mut self, data: &[u8], pos: usize) {
        self.begin(data.len());
        self.insert_ret(data, pos);
    }

    /// Inserts `pos` and returns the previous heads for its hash4 and
    /// hash3 buckets (`position + 1`, or 0 if empty) — the entry points a
    /// search continues from, saving a second hash of the same bytes.
    #[inline(always)]
    fn insert_ret(&mut self, data: &[u8], pos: usize) -> (u32, u32) {
        let raw = self.spec_insert(hash4(data, pos), pos);
        (self.rebase(raw), self.spec_insert3(hash3(data, pos), pos))
    }

    /// Hash4-chain-only insert for the batch engine: publishes `pos` under
    /// the precomputed hash `h` and returns the previous head stamp (the
    /// bank-probe result) as stored: [`rebase`](Self::rebase) it before use.
    /// The hash3 side-table has its own [`spec_insert3`](Self::spec_insert3).
    #[inline(always)]
    pub(super) fn spec_insert(&mut self, h: usize, pos: usize) -> u32 {
        let raw = self.head[h];
        let stamp = self.base.wrapping_add(pos as u32 + 1);
        let delta = stamp.wrapping_sub(raw);
        // Deltas beyond the window — an empty or stale bucket's always is
        // — terminate the chain; in-window deltas always fit u16.
        self.prev[pos & WMASK] = if delta as usize > WINDOW_SIZE {
            0
        } else {
            delta as u16
        };
        self.head[h] = stamp;
        raw
    }

    /// Head-only hash3 publish for the batch engine: stamps `pos` under
    /// the precomputed 3-byte hash `h3` and returns the previous stamp —
    /// the side-channel probe result the lanes fall back to when their
    /// hash4 walk comes up empty.
    #[inline(always)]
    pub(super) fn spec_insert3(&mut self, h3: usize, pos: usize) -> u32 {
        let old3 = self.rebase(self.head3[h3]);
        self.head3[h3] = self.base.wrapping_add((pos + 1) as u32);
        old3
    }

    /// Backward chain delta stored for `pos` (0 = end of chain) — lets
    /// the batch engine walk chains without borrowing the whole matcher
    /// mutably.
    #[inline]
    pub(super) fn prev_delta(&self, pos: usize) -> u32 {
        u32::from(self.prev[pos & WMASK])
    }

    /// Newest stamp under hash `h` without publishing anything — the
    /// batch engine's stride-mode probe (a probe that also inserted
    /// would cut its own chain when the window pass re-inserts the
    /// position).
    #[inline]
    pub(super) fn head_stamp(&self, h: usize) -> u32 {
        self.rebase(self.head[h])
    }

    /// Walks the chain starting at `first` (a `position + 1` stamp as
    /// returned by [`insert_ret`](Self::insert_ret)) looking for the
    /// longest match at `pos` that beats `prev_len`. Ties prefer the
    /// nearest candidate (newest-first walk, strict `>` improvement),
    /// like zlib's `longest_match`.
    #[inline]
    fn search(
        &mut self,
        data: &[u8],
        pos: usize,
        first: u32,
        first3: u32,
        cfg: &MatcherConfig,
        prev_len: usize,
    ) -> Option<(usize, usize)> {
        let remaining = data.len() - pos;
        let mut best_len = prev_len.max(MIN_MATCH - 1);
        if remaining <= best_len {
            self.stats.record_walk(0);
            return None;
        }
        let max_len = MAX_MATCH.min(remaining);
        let mut best: Option<(usize, usize)> = None;
        let mut steps = 0usize;
        if first != 0 {
            let mut budget = cfg.max_chain;
            if prev_len >= cfg.good_length {
                budget >>= 2;
            }
            budget = budget.max(1);
            let nice = cfg.nice_length.min(remaining);
            let mut cur = first;
            // Hoisted `data[pos + best_len]` (zlib's scan_end): in bounds
            // because best_len < remaining here and stays so below (the
            // walk breaks before updating best_len to max_len).
            let mut scan_end = data[pos + best_len];
            loop {
                let cand = (cur - 1) as usize;
                if cand >= pos || pos - cand > WINDOW_SIZE {
                    break;
                }
                steps += 1;
                // Quick reject: for this candidate to improve on
                // `best_len`, the byte one past the current best must
                // match.
                if data[cand + best_len] == scan_end {
                    let len = match_length(data, cand, pos);
                    if len > best_len {
                        best = Some((len, pos - cand));
                        if len >= nice || len >= max_len {
                            break;
                        }
                        best_len = len;
                        scan_end = data[pos + best_len];
                    }
                }
                if steps >= budget {
                    break;
                }
                let delta = u32::from(self.prev[cand & WMASK]);
                if delta == 0 || delta >= cur {
                    break;
                }
                cur -= delta;
            }
        }
        // hash4 saw nothing: a pure 3-byte match is still possible (the
        // 4-byte hash can't represent it). One head-only hash3 probe —
        // columnar/delta data lives on these. A lone-candidate probe
        // settles for length 3 far more often than a chain walk would, so
        // the distance bound for 3-byte acceptance is much tighter than
        // `TOO_FAR`: past ~64 bytes the distance code usually costs more
        // than three frequent literals.
        if best.is_none() && best_len < MIN_MATCH && first3 != 0 {
            let cand = (first3 - 1) as usize;
            if cand < pos && pos - cand <= TOO_FAR {
                let len = match_length(data, cand, pos);
                if len > MIN_MATCH || (len == MIN_MATCH && pos - cand <= 64) {
                    best = Some((len, pos - cand));
                }
            }
        }
        self.stats.record_walk(steps);
        best
    }
}

/// The matcher state a preset dictionary leaves behind, compact enough to
/// [load](Hash4Matcher::load_image) per request. Covers positions
/// `0..dict.len() - 3`; the last three hash across the seam into the payload.
#[derive(Debug, Clone)]
pub(crate) struct DictImage {
    /// `prev[..positions]`.
    prev: Vec<u16>,
    /// The non-empty slots of `head` and `head3` as `(slot, position + 1)`
    /// in slot order, so loading stores through each table front to back.
    head: Vec<(u16, u16)>,
    head3: Vec<(u16, u16)>,
}

impl DictImage {
    /// Runs a fresh matcher over `dict` (at most one window, so positions
    /// and slots fit `u16`) and keeps what it built.
    pub(crate) fn build(dict: &[u8]) -> Self {
        debug_assert!(dict.len() <= WINDOW_SIZE);
        let n = index_end(dict);
        let mut m = Hash4Matcher::new();
        index_history(&mut m, dict, n);
        let live = |table: &[u32]| {
            let stamps = table.iter().map(|&raw| m.rebase(raw) as u16);
            (0..=u16::MAX).zip(stamps).filter(|s| s.1 != 0).collect()
        };
        Self {
            prev: m.prev[..n].to_vec(),
            head: live(&m.head),
            head3: live(&m.head3),
        }
    }
}

/// Highest position that can be hashed/inserted (exclusive): positions
/// need 4 bytes of lookahead.
#[inline]
pub(super) fn index_end(data: &[u8]) -> usize {
    data.len().saturating_sub(3)
}

/// Opens a run over `data` — every tokenizer's first call: indexes the
/// history prefix `data[..start]` (past what a loaded [`DictImage`] covers)
/// so tokens emitted for `data[start..]` may reference back into it.
pub(super) fn index_history(m: &mut Hash4Matcher, data: &[u8], start: usize) {
    m.begin(data.len());
    for p in m.indexed..start.min(index_end(data)) {
        m.insert_ret(data, p);
    }
}

/// Inserts the interior positions of a committed match, `from..cov_end`.
#[inline]
fn index_span(m: &mut Hash4Matcher, data: &[u8], from: usize, end: usize) {
    let cov_end = end.min(index_end(data));
    let mut p = from;
    while p < cov_end {
        m.insert_ret(data, p);
        p += 1;
    }
}

/// Emits `1 + (lit_run >> shift)` literals starting at `pos` without
/// searching or indexing — the insert-skip heuristic. `pos` itself was
/// indexed; the positions after it that the step covers are not, and go to
/// `skips` as one range if it ends past `keep`. Returns the new position.
/// `shift` controls how aggressively the step grows; the step is capped so
/// one bad stretch cannot blind the matcher for long.
#[inline]
fn emit_skip_literals(
    data: &[u8],
    pos: usize,
    lit_run: &mut usize,
    shift: u32,
    tokens: &mut impl Sink,
    skips: &mut Vec<(usize, usize)>,
    keep: usize,
) -> usize {
    let extra = (*lit_run >> shift).min(32);
    let end = (pos + 1 + extra).min(data.len());
    for &b in &data[pos..end] {
        tokens.push(Token::Literal(b));
    }
    *lit_run += end - pos;
    if end > pos + 1 && end > keep {
        skips.push((pos + 1, end));
    }
    end
}

/// A sequential tokenizer's state at its loop top. With the data and the
/// positions indexed in the window behind `pos`, it is all the parse from
/// `pos` on depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cursor {
    pos: usize,
    /// Literals since the last match: the insert-skip's step grows with it.
    lit_run: usize,
    /// The lazy matcher's deferred match `(len, dist)`, anchored at `pos - 1`.
    pending: Option<(usize, usize)>,
}

impl Cursor {
    fn at(pos: usize) -> Self {
        Self {
            pos,
            lit_run: 0,
            pending: None,
        }
    }

    /// Ends a parse at the end of the input: a pending match fit entirely
    /// in the buffer (searches cap at its end), so it is committed.
    fn finish(self, tokens: &mut impl Sink) {
        if let Some((len, dist)) = self.pending {
            tokens.push(Token::Match {
                len: len as u16,
                dist: dist as u16,
            });
        }
    }
}

/// A sequential tokenizer with its tuning, chosen by level as zlib chooses
/// `deflate_fast` / `deflate_slow`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rung {
    /// Level 1: greedy, head-only (no chain walk).
    Fastest,
    /// Levels 2–3: greedy with a bounded chain walk.
    Greedy(MatcherConfig),
    /// Levels 4–9: one-token lazy deferral.
    Lazy(MatcherConfig),
}

impl Rung {
    fn at(level: u32) -> Self {
        match level {
            ..=1 => Rung::Fastest,
            l if MatcherConfig::is_lazy_level(l) => Rung::Lazy(MatcherConfig::for_level(l)),
            l => Rung::Greedy(MatcherConfig::for_level(l)),
        }
    }
}

/// [`Rung::Fastest`]'s loop from `p.at` to `stop`.
#[inline(never)]
fn fastest(p: &mut Parser<impl Sink>, stop: usize) {
    let (data, m, tokens, skips, keep) = (p.data, &mut *p.m, &mut p.tokens, &mut p.skips, p.keep);
    let end4 = index_end(data);
    let (mut pos, mut lit_run) = (p.at.pos, p.at.lit_run);
    while pos < stop {
        if pos >= end4 {
            tokens.push(Token::Literal(data[pos]));
            pos += 1;
            continue;
        }
        let (old, _) = m.insert_ret(data, pos);
        // The head counts as a candidate where a chain walk would count
        // it: inside the window.
        let cand = (old as usize).wrapping_sub(1);
        let near = old != 0 && pos - cand <= WINDOW_SIZE;
        m.stats.record_walk(usize::from(near));
        if near {
            let (len, dist) = (match_length(data, cand, pos), pos - cand);
            if len >= 4 || (len == MIN_MATCH && dist <= TOO_FAR) {
                tokens.push(Token::Match {
                    len: len as u16,
                    dist: dist as u16,
                });
                index_span(m, data, pos + 1, pos + len);
                pos += len;
                lit_run = 0;
                continue;
            }
        }
        pos = emit_skip_literals(data, pos, &mut lit_run, 5, tokens, skips, keep);
    }
    (p.at.pos, p.at.lit_run) = (pos, lit_run);
}

/// [`Rung::Greedy`]'s loop from `p.at` to `stop`.
#[inline(never)]
fn greedy4(p: &mut Parser<impl Sink>, stop: usize, cfg: &MatcherConfig) {
    let (data, m, tokens, skips, keep) = (p.data, &mut *p.m, &mut p.tokens, &mut p.skips, p.keep);
    let end4 = index_end(data);
    let (mut pos, mut lit_run) = (p.at.pos, p.at.lit_run);
    while pos < stop {
        if pos >= end4 {
            tokens.push(Token::Literal(data[pos]));
            pos += 1;
            continue;
        }
        let (first, first3) = m.insert_ret(data, pos);
        let found = m
            .search(data, pos, first, first3, cfg, 0)
            .filter(|&(len, dist)| len > MIN_MATCH || (len == MIN_MATCH && dist <= TOO_FAR));
        match found {
            Some((len, dist)) => {
                tokens.push(Token::Match {
                    len: len as u16,
                    dist: dist as u16,
                });
                index_span(m, data, pos + 1, pos + len);
                pos += len;
                lit_run = 0;
            }
            None => {
                pos = emit_skip_literals(data, pos, &mut lit_run, 6, tokens, skips, keep);
            }
        }
    }
    (p.at.pos, p.at.lit_run) = (pos, lit_run);
}

/// [`Rung::Lazy`]'s loop from `p.at` to `stop`.
#[inline(never)]
fn lazy4(p: &mut Parser<impl Sink>, stop: usize, cfg: &MatcherConfig) {
    let (data, m, tokens, skips, keep) = (p.data, &mut *p.m, &mut p.tokens, &mut p.skips, p.keep);
    let end4 = index_end(data);
    let Cursor {
        mut pos,
        mut lit_run,
        pending: mut prev,
    } = p.at;
    while pos < stop {
        let cur = if pos < end4 {
            let prev_len = prev.map_or(0, |(l, _)| l);
            let (first, first3) = m.insert_ret(data, pos);
            // zlib refuses to extend searches once the previous match
            // reached max_lazy.
            if prev_len >= cfg.max_lazy {
                None
            } else {
                m.search(data, pos, first, first3, cfg, prev_len)
                    .filter(|&(len, dist)| len > MIN_MATCH || (len == MIN_MATCH && dist <= TOO_FAR))
            }
        } else {
            None
        };
        match (prev, cur) {
            (Some((plen, pdist)), cur) => {
                if cur.is_some_and(|(clen, _)| clen > plen) {
                    // Defer again: previous position becomes a literal.
                    m.stats.lazy_deferrals += 1;
                    tokens.push(Token::Literal(data[pos - 1]));
                    prev = cur;
                    pos += 1;
                } else {
                    // Commit the previous match (anchored at pos-1); pos
                    // itself was indexed by the search above.
                    tokens.push(Token::Match {
                        len: plen as u16,
                        dist: pdist as u16,
                    });
                    index_span(m, data, pos + 1, pos - 1 + plen);
                    pos = pos - 1 + plen;
                    prev = None;
                    lit_run = 0;
                }
            }
            (None, Some((clen, cdist))) => {
                if clen >= cfg.max_lazy || clen >= cfg.nice_length {
                    // Long enough: take it immediately (no deferral).
                    tokens.push(Token::Match {
                        len: clen as u16,
                        dist: cdist as u16,
                    });
                    index_span(m, data, pos + 1, pos + clen);
                    pos += clen;
                    lit_run = 0;
                } else {
                    // Defer the decision by one byte.
                    prev = Some((clen, cdist));
                    pos += 1;
                }
            }
            (None, None) => {
                pos = emit_skip_literals(data, pos, &mut lit_run, 8, tokens, skips, keep);
            }
        }
    }
    p.at = Cursor {
        pos,
        lit_run,
        pending: prev,
    };
}

/// Dispatches to the engine's tokenizer for `level`, appending tokens
/// for `data[start..]` with `data[..start]` as history, then flushes the
/// accumulated search statistics into the process-wide telemetry. The
/// matcher must be fresh or [`Hash4Matcher::reset`].
///
/// Engine routing: [`super::Engine::Auto`] sends the throughput rungs
/// (levels 1–3) through the batched speculative matcher and the deeper
/// rungs through the sequential lazy matcher; `Sequential` restores the
/// pre-batch ladder (1 = fastest, 2–3 = greedy, 4–9 = lazy);
/// `Speculative` forces the batch engine at every rung.
pub fn tokenize_into_with(
    data: &[u8],
    start: usize,
    level: u32,
    engine: super::Engine,
    m: &mut Hash4Matcher,
    tokens: &mut Vec<Token>,
) {
    tokenize_into_on(data, start, level, engine, None, m, tokens);
}

/// [`tokenize_into_with`] on a worker budget, into any [`Sink`]: a sequential-matcher parse of
/// at least two [`SEGMENT_MIN`](crate::workers::SEGMENT_MIN)s of new bytes runs its later segments ahead
/// on the helpers `workers` grants ([`split`]). Tokens and
/// counters are the serial parse's either way.
pub(crate) fn tokenize_into_on(
    data: &[u8],
    start: usize,
    level: u32,
    engine: super::Engine,
    workers: Option<&Workers>,
    m: &mut Hash4Matcher,
    tokens: &mut impl Sink,
) {
    debug_assert!((1..=9).contains(&level));
    match workers.filter(|_| !engine.speculative_at(level)) {
        Some(w) => drop(split(data, start, Rung::at(level), (m, tokens), w, None)),
        None => parse(data, start, level, engine, m, tokens),
    }
    crate::encoder::flush_search_stats(m.take_stats());
}

/// The serial parse of `data[start..]` behind the history `data[..start]`,
/// on `engine`'s matcher for `level` (1–9), into `tokens`. Its counters stay
/// in `m`.
pub(crate) fn parse(
    data: &[u8],
    start: usize,
    level: u32,
    engine: super::Engine,
    m: &mut Hash4Matcher,
    tokens: &mut impl Sink,
) {
    index_history(m, data, start);
    if engine.speculative_at(level) {
        return super::batch::run(data, start, level, m, tokens);
    }
    let mut p = Parser::new(data, Rung::at(level), (m, tokens), start, usize::MAX);
    p.run(data.len());
    p.at.finish(p.tokens);
}

/// A sequential parse from its cursor `at` on: the serial one and a split's
/// caller on the request's matcher into its sink, a split's helper on a
/// fresh matcher into a vector. `skips` holds the ranges `[from, to)` of
/// positions the insert-skip stepped over (the only ones a parse passes
/// without indexing), in order, where `to > keep`.
struct Parser<'a, S> {
    data: &'a [u8],
    rung: Rung,
    m: &'a mut Hash4Matcher,
    tokens: S,
    keep: usize,
    skips: Vec<(usize, usize)>,
    at: Cursor,
}

type Helper<'a> = Parser<'a, Vec<Token>>;

/// A helper's cursor, tokens and skip ranges so far, and counters.
type Checkpoint = (Cursor, usize, usize, SearchStats);

impl<'a, S: Sink> Parser<'a, S> {
    fn new(
        data: &'a [u8],
        rung: Rung,
        (m, tokens): (&'a mut Hash4Matcher, S),
        at: usize,
        keep: usize,
    ) -> Self {
        Self {
            data,
            rung,
            m,
            tokens,
            keep,
            skips: Vec::new(),
            at: Cursor::at(at),
        }
    }

    /// Parses on to its first loop top at or past `stop`. Each loop stays a
    /// function of its own (`#[inline(never)]`): inlined into this one, the
    /// serial level-6 parse of 2 KiB requests ran ~3 % slower.
    fn run(&mut self, stop: usize) {
        match self.rung {
            Rung::Fastest => fastest(self, stop),
            Rung::Greedy(cfg) => greedy4(self, stop, &cfg),
            Rung::Lazy(cfg) => lazy4(self, stop, &cfg),
        }
    }
}

impl<T: Sink> Parse for Parser<'_, &mut T> {
    type Mark = Cursor;
    fn step(&mut self, stop: usize) -> (usize, Cursor) {
        self.run(stop);
        (self.at.pos, self.at)
    }
}

impl Parse for Helper<'_> {
    type Mark = Checkpoint;
    fn step(&mut self, stop: usize) -> (usize, Checkpoint) {
        self.run(stop);
        let (at, skips) = (self.at, self.skips.len());
        (at.pos, (at, self.tokens.len(), skips, self.m.stats))
    }
}

/// Exact: from a loop top `q` a parse depends only on the data, the cursor
/// and which positions of the window behind `q` are indexed. Parses index
/// all they pass but the skipped ranges, and a helper its window before its
/// segment: so equal skip ranges there mean equal tables to any search.
impl<'h, T: Sink> Adopt<Helper<'h>> for Parser<'_, &mut T> {
    fn adopt(&mut self, helper: &mut Helper<'h>, &(at, tokens, skips, from): &Checkpoint) -> bool {
        let (theirs, rest) = helper.skips.split_at(skips);
        if self.at != at || !same_window(&self.skips, theirs, at.pos) {
            return false;
        }
        // Counted once, as they are adopted.
        (helper.tokens[tokens..].iter()).for_each(|&t| self.tokens.push(t));
        let mut stats = self.m.stats;
        stats.add_between(&from, &helper.m.stats);
        std::mem::swap(self.m, helper.m);
        (self.m.stats, self.at) = (stats, helper.at);
        self.skips.extend_from_slice(rest);
        true
    }
}

/// [`tokenize_into_on`]'s segment route on [`run_ahead`] (`pin` as there, and
/// the segment end from which helpers die): a helper parses from a fresh matcher
/// indexed over the window before its segment. Returns the checkpoints adopted.
fn split(
    data: &[u8],
    start: usize,
    rung: Rung,
    (m, tokens): (&mut Hash4Matcher, &mut impl Sink),
    workers: &Workers,
    pin: Option<(usize, usize)>,
) -> Vec<(usize, Checkpoint)> {
    let n = data.len();
    let (done, adopted) = run_ahead(
        workers,
        pin.map(|p| p.0),
        (start, n, 1),
        (&mut Vec::new(), || None),
        |slot, from, to| {
            assert!(pin.is_none_or(|p| to < p.1), "helper killed");
            let m = slot.insert(Hash4Matcher::new()); // On the helper's thread.
            m.begin(n);
            index_span(m, data, from.saturating_sub(WINDOW_SIZE), from);
            let tokens = Vec::with_capacity((to - from) / 4 + 8);
            Parser::new(data, rung, (m, tokens), from, 0)
        },
        |seam| {
            index_history(m, data, start);
            // Only skip ranges reaching into a helper's windows are compared.
            let keep = (seam < n).then(|| seam.saturating_sub(WINDOW_SIZE));
            Parser::new(data, rung, (m, tokens), start, keep.unwrap_or(n))
        },
    );
    done.at.finish(done.tokens);
    adopted
}

/// Whether two parses' skip ranges leave the same positions of the window
/// behind `q` unindexed.
fn same_window(a: &[(usize, usize)], b: &[(usize, usize)], q: usize) -> bool {
    fn window(r: &[(usize, usize)], lo: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let tail = r[r.partition_point(|s| s.1 <= lo)..].iter();
        tail.map(move |&(from, to)| (from.max(lo), to))
    }
    let lo = q.saturating_sub(WINDOW_SIZE);
    window(a, lo).eq(window(b, lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz77::{expand_tokens, Engine};

    fn tokenize_into(
        data: &[u8],
        start: usize,
        level: u32,
        m: &mut Hash4Matcher,
        tokens: &mut Vec<Token>,
    ) {
        tokenize_into_with(data, start, level, Engine::Auto, m, tokens);
    }

    fn tokenize(data: &[u8], level: u32) -> Vec<Token> {
        let mut m = Hash4Matcher::new();
        let mut tokens = Vec::new();
        tokenize_into(data, 0, level, &mut m, &mut tokens);
        tokens
    }

    #[test]
    fn empty_and_tiny_inputs_all_levels() {
        for level in 1..=9 {
            assert!(tokenize(b"", level).is_empty());
            assert_eq!(
                tokenize(b"ab", level),
                vec![Token::Literal(b'a'), Token::Literal(b'b')],
                "level {level}"
            );
        }
    }

    #[test]
    fn finds_simple_repeat() {
        for level in 1..=9 {
            let data = b"abcdefabcdef";
            let tokens = tokenize(data, level);
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
        for level in 1..=9 {
            let data = vec![b'z'; 3000];
            let tokens = tokenize(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(
                tokens.len() < 30,
                "level {level}: run produced {} tokens",
                tokens.len()
            );
        }
    }

    #[test]
    fn roundtrips_structured_data_all_levels() {
        let mut data = Vec::new();
        for i in 0..3000u32 {
            data.extend_from_slice(format!("key{}=value{};", i % 57, i % 13).as_bytes());
        }
        for level in 1..=9 {
            let tokens = tokenize(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(tokens.iter().all(Token::is_valid), "level {level}");
        }
    }

    #[test]
    fn roundtrips_pseudorandom_data_with_skip_heuristic() {
        // Random bytes drive the skip heuristic; every byte must still be
        // covered by exactly one token.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 7) as u8
            })
            .collect();
        for level in 1..=9 {
            let tokens = tokenize(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
        }
    }

    #[test]
    fn history_matches_reach_back() {
        // Tokenize with the first half as history: tokens may reference it.
        let rec = b"history-record-history-record-";
        let mut data = rec.to_vec();
        let start = data.len();
        data.extend_from_slice(rec);
        for level in 1..=9 {
            let mut m = Hash4Matcher::new();
            let mut tokens = Vec::new();
            tokenize_into(&data, start, level, &mut m, &mut tokens);
            let covered: usize = tokens.iter().map(Token::input_len).sum();
            assert_eq!(covered, data.len() - start, "level {level}");
            assert!(
                tokens.iter().any(|t| matches!(t, Token::Match { .. })),
                "level {level}: no history match found"
            );
        }
    }

    #[test]
    fn window_bound_respected() {
        // A repeat more than a window apart must not produce a match
        // referencing past the window.
        let mut data = vec![0u8; WINDOW_SIZE + 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8 ^ (i / 997) as u8;
        }
        for level in [1, 3, 6, 9] {
            let tokens = tokenize(&data, level);
            assert_eq!(expand_tokens(&tokens), data, "level {level}");
            assert!(tokens.iter().all(Token::is_valid), "level {level}");
        }
    }

    const ENGINES: [Engine; 3] = [Engine::Auto, Engine::Sequential, Engine::Speculative];

    /// Tokens from a matcher nothing has touched — what a reused one must
    /// reproduce.
    fn fresh(data: &[u8], start: usize, level: u32, engine: Engine) -> Vec<Token> {
        let mut tokens = Vec::new();
        tokenize_into_with(
            data,
            start,
            level,
            engine,
            &mut Hash4Matcher::new(),
            &mut tokens,
        );
        tokens
    }

    fn assert_reuse_matches_fresh(
        m: &mut Hash4Matcher,
        data: &[u8],
        start: usize,
        level: u32,
        engine: Engine,
    ) {
        let mut tokens = Vec::new();
        m.reset();
        tokenize_into_with(data, start, level, engine, m, &mut tokens);
        assert_eq!(
            tokens,
            fresh(data, start, level, engine),
            "level {level} {engine:?} len {} start {start} base {}",
            data.len(),
            m.base
        );
    }

    /// Deterministic request stream: `(data, start)` with a random corpus
    /// kind, a length in `0..=max_len` and a random history split.
    fn requests(seed: u64, n: usize, max_len: usize) -> impl Iterator<Item = (Vec<u8>, usize)> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as usize
        };
        let kinds = nx_corpus::CorpusKind::all();
        (0..n).map(move |_| {
            let kind = kinds[next() % kinds.len()];
            // Half the requests are RPC-sized, where a run's stamps sit
            // closest to its predecessor's.
            let len = next() % (if next() % 2 == 0 { 2048 } else { max_len } + 1);
            let data = kind.generate(next() as u64, len);
            let start = next() % (len + 1);
            (data, start)
        })
    }

    #[test]
    fn reused_matcher_tokenizes_like_a_fresh_one() {
        // One matcher across every level x engine, 8 requests each (216).
        let mut m = Hash4Matcher::new();
        let mut reqs = requests(0x5eed, 9 * 3 * 8, 70 << 10);
        for level in 1..=9 {
            for engine in ENGINES {
                for (data, start) in reqs.by_ref().take(8) {
                    assert_reuse_matches_fresh(&mut m, &data, start, level, engine);
                }
            }
        }
    }

    #[test]
    fn reused_matcher_matches_fresh_on_every_tiny_input() {
        // Every string over {a, b} up to 7 bytes, every history split:
        // the lengths around MIN_MATCH and the 4-byte hash horizon.
        let mut m = Hash4Matcher::new();
        for len in 0..=7usize {
            for bits in 0..1u32 << len {
                let data: Vec<u8> = (0..len).map(|i| b'a' + (bits >> i & 1) as u8).collect();
                for start in 0..=len {
                    for (level, engine) in [1, 6, 9].into_iter().zip(ENGINES) {
                        assert_reuse_matches_fresh(&mut m, &data, start, level, engine);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn reused_matcher_matches_fresh_on_random_streams(
            seed in proptest::prelude::any::<u64>(),
            level in 1u32..=9,
            engine_pick in 0usize..3,
        ) {
            let mut m = Hash4Matcher::new();
            for (data, start) in requests(seed, 6, 6 << 10) {
                assert_reuse_matches_fresh(&mut m, &data, start, level, ENGINES[engine_pick]);
            }
        }
    }

    #[test]
    fn epoch_overflow_really_clears_and_tokens_still_match() {
        let mut m = Hash4Matcher::new();
        let mut cleared = 0;
        for (i, (data, start)) in requests(0xc1ea2, 40, 70 << 10).enumerate() {
            // Every fourth request, park the epoch a request below its
            // ceiling: the tables are warm, and one of the next few
            // requests must take the real clear.
            if i % 4 == 1 {
                m.reset();
                m.base = u32::MAX - GAP - (70 << 10);
            }
            let before = m.base;
            let (level, engine) = (1 + i as u32 % 9, ENGINES[i % 3]);
            assert_reuse_matches_fresh(&mut m, &data, start, level, engine);
            if m.base < before {
                cleared += 1;
                assert_eq!(m.base, GAP, "a clear restarts the epoch");
            }
        }
        assert!(cleared >= 5, "only {cleared} real clears");
    }

    /// Tokens for `dict + payload` with the dictionary primed from its
    /// image on a reused matcher.
    fn image_primed(
        m: &mut Hash4Matcher,
        image: &DictImage,
        buf: &[u8],
        start: usize,
    ) -> Vec<Token> {
        let mut tokens = Vec::new();
        m.reset();
        m.load_image(image);
        tokenize_into_with(buf, start, 6, Engine::Auto, m, &mut tokens);
        tokens
    }

    #[test]
    fn image_primed_equals_live_primed_across_the_seam() {
        // Dictionaries of 0..=8 bytes x payloads of 0..=7: every way the
        // three seam positions (and the 4-byte horizon) can fall.
        let text = b"abcabcababcabcab";
        let mut m = Hash4Matcher::new();
        for dict_len in 0..=8usize {
            let image = DictImage::build(&text[..dict_len]);
            assert_eq!(image.prev.len(), dict_len.saturating_sub(3));
            for payload_len in 0..=7usize {
                let buf = &text[..dict_len + payload_len];
                assert_eq!(
                    image_primed(&mut m, &image, buf, dict_len),
                    fresh(buf, dict_len, 6, Engine::Auto),
                    "dict {dict_len} payload {payload_len}"
                );
            }
        }
    }

    #[test]
    fn full_window_image_equals_live_priming_even_across_a_clear() {
        let dict = nx_corpus::CorpusKind::Logs.generate(7, WINDOW_SIZE);
        let image = DictImage::build(&dict);
        assert_eq!(image.prev.len(), WINDOW_SIZE - 3);
        let mut buf = dict.clone();
        buf.extend_from_slice(&nx_corpus::CorpusKind::Logs.generate(8, 4096));
        let want = fresh(&buf, dict.len(), 6, Engine::Auto);
        let mut m = Hash4Matcher::new();
        assert_eq!(image_primed(&mut m, &image, &buf, dict.len()), want);
        // The image fits under the epoch's ceiling but the whole buffer
        // does not: the clear forgets the image and priming runs live.
        m.reset();
        m.base = u32::MAX - GAP - dict.len() as u32 - 100;
        assert_eq!(image_primed(&mut m, &image, &buf, dict.len()), want);
        assert_eq!((m.base, m.indexed), (GAP, 0));
    }

    #[test]
    fn idle_resets_do_not_spend_the_epoch() {
        let mut m = Hash4Matcher::new();
        for _ in 0..(u32::MAX / GAP) as usize + 2 {
            m.reset();
        }
        assert_eq!(m.base, GAP);
    }

    #[test]
    fn reset_clears_previous_buffer() {
        let mut m = Hash4Matcher::new();
        let mut tokens = Vec::new();
        let a = b"shared-prefix-0123456789-shared-prefix";
        tokenize_into(a, 0, 6, &mut m, &mut tokens);
        // Re-tokenizing a different buffer after reset must be
        // self-consistent (no matches into the dead buffer).
        m.reset();
        tokens.clear();
        let b = vec![7u8; 500];
        tokenize_into(&b, 0, 6, &mut m, &mut tokens);
        assert_eq!(expand_tokens(&tokens), b);
    }

    #[test]
    fn lazy_prefers_later_longer_match() {
        let data = b"0abc1abcd__0abc1abcd__xabcdefgh+abcdefgh";
        let lazy = tokenize(data, 9);
        let greedy = tokenize(data, 3);
        assert_eq!(expand_tokens(&lazy), data);
        assert_eq!(expand_tokens(&greedy), data);
        assert!(lazy.len() <= greedy.len());
    }

    #[test]
    fn chain_walk_stats_accumulate() {
        let mut m = Hash4Matcher::new();
        let mut tokens = Vec::new();
        let data: Vec<u8> = std::iter::repeat_n(&b"stat stat stat stat "[..], 50)
            .flatten()
            .copied()
            .collect();
        parse(&data, 0, 6, Engine::Sequential, &mut m, &mut tokens);
        let stats = m.take_stats();
        assert!(stats.chain_hist.iter().sum::<u64>() > 0);
        // Second take is empty.
        assert_eq!(m.take_stats().chain_hist.iter().sum::<u64>(), 0);
    }

    /// The serial call's tokens and counters: the oracle of every split.
    fn serial(data: &[u8], start: usize, level: u32) -> (Vec<Token>, SearchStats) {
        let (mut m, mut tokens) = (Hash4Matcher::new(), Vec::new());
        parse(data, start, level, Engine::Sequential, &mut m, &mut tokens);
        (tokens, m.take_stats())
    }

    /// Runs `data[start..]` in `segments` segments, the helpers on a budget
    /// of their own (so the split does not depend on the host's CPUs), twice
    /// on one matcher, and diffs tokens and counters against the serial
    /// call; returns the cursors of the checkpoints adopted.
    fn split_as_serial(data: &[u8], start: usize, level: u32, segments: usize) -> Vec<Cursor> {
        dying_split_as_serial(data, start, level, segments, usize::MAX)
    }

    /// [`split_as_serial`] with the helpers of the segments ending at or
    /// past `dies` killed.
    fn dying_split_as_serial(
        data: &[u8],
        start: usize,
        level: u32,
        segments: usize,
        dies: usize,
    ) -> Vec<Cursor> {
        let (want, want_stats) = serial(data, start, level);
        let mut m = Hash4Matcher::new();
        let mut adopted = Vec::new();
        for _ in 0..2 {
            let mut got = Vec::new();
            m.reset();
            let (budget, rung) = (Workers::new(segments - 1), Rung::at(level));
            let cps = split(
                data,
                start,
                rung,
                (&mut m, &mut got),
                &budget,
                Some((segments, dies)),
            );
            adopted.push(cps.iter().map(|cp| cp.1 .0).collect::<Vec<_>>());
            let diff = got.iter().zip(&want).position(|(a, b)| a != b);
            assert!(
                got == want,
                "level {level}, {segments} segments, start {start}: {} vs {} tokens, first \
                 difference at {diff:?}",
                got.len(),
                want.len()
            );
            assert_eq!(m.take_stats(), want_stats, "level {level}");
        }
        assert_eq!(adopted[0], adopted[1]);
        adopted.pop().unwrap()
    }

    /// The levels and engines the split serves: the sequential matcher's.
    const SPLIT_RUNGS: [(u32, Engine); 5] = [
        (1, Engine::Sequential),
        (3, Engine::Sequential),
        (6, Engine::Sequential),
        (9, Engine::Sequential),
        (6, Engine::Auto),
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn split_equals_the_serial_call(
            seed in proptest::prelude::any::<u64>(),
            len in 40_000usize..160_000,
            history in 0usize..=WINDOW_SIZE,
            segments in 2usize..=4,
            pick in 0usize..SPLIT_RUNGS.len(),
        ) {
            let (level, engine) = SPLIT_RUNGS[pick];
            assert!(!engine.speculative_at(level));
            let data = nx_corpus::mixed(seed, len);
            let adopted = split_as_serial(&data, history, level, segments);
            assert!(adopted.len() < segments);
        }
    }

    #[test]
    fn helpers_are_adopted_on_mixed_data() {
        // Eight 192 KiB mixed buffers in four segments (one per 48 KiB):
        // most helpers' parses meet the caller's.
        for level in [1, 6] {
            let adopted: usize = (0..8)
                .map(|seed| split_as_serial(&nx_corpus::mixed(seed, 192 << 10), 0, level, 4))
                .map(|a| a.len())
                .sum();
            assert!(adopted >= 16, "level {level}: {adopted} of 24 adopted");
        }
    }

    #[test]
    fn dead_helpers_leave_their_segments_to_the_caller() {
        const N: usize = 160 << 10;
        let data = nx_corpus::mixed(9, N);
        for level in [1, 6] {
            assert_eq!(split_as_serial(&data, 0, level, 3).len(), 2);
            // The last segment's helper dies; every one, after history.
            assert_eq!(dying_split_as_serial(&data, 0, level, 3, N).len(), 1);
            assert!(dying_split_as_serial(&data, 20_000, level, 4, 0).is_empty());
        }
    }

    /// Text without a `z`, so a run of them matches nothing before it.
    fn text(seed: u64, len: usize) -> Vec<u8> {
        let mut t = nx_corpus::CorpusKind::Text.generate(seed, len);
        t.iter_mut().filter(|b| **b == b'z').for_each(|b| *b = b'y');
        t
    }

    #[test]
    fn split_is_exact_at_a_literal_drought() {
        // Random bytes around the second segment's start `s`: a drought the
        // caller entered 100 literals before `s` (not skipping yet, so only
        // its literal run tells it from the helper's), 1 000 before (skipping
        // already), and one that ended 1 000 before `s` (skip ranges in the
        // caller's window, none in the helper's). Text after `s` copies the
        // drought, so a window that indexed the skipped positions finds
        // other matches than one that did not.
        let (s, drought) = (64 << 10, 3_000);
        for (at, level) in [
            (s - 100, 6),
            (s - 1_000, 6),
            (s - 1_000 - drought, 6),
            (s - 100, 3),
        ] {
            let mut data = text(1, 2 * s);
            let noise = nx_corpus::CorpusKind::Random.generate(2, drought);
            data[at..at + drought].copy_from_slice(&noise);
            data.copy_within(at..at + drought, s + 8_000);
            let adopted = split_as_serial(&data, 0, level, 2);
            assert_eq!(adopted.len(), 1, "drought at s - {}", s - at);
            // The two parses agree only once the drought's skip ranges left
            // the window.
            let q = adopted[0].pos;
            assert!(
                q >= at + drought + WINDOW_SIZE - 64,
                "adopted at s + {}",
                q - s
            );
        }
    }

    #[test]
    fn split_is_exact_where_a_match_crosses_a_mark_or_one_is_pending() {
        // Level 6. The caller crosses `s` inside a match, so it cannot take
        // the checkpoint at `s`. At the mark after it sits a lazy match the
        // parse deferred: 50 `z`s (one literal, then a 49-byte match), then a
        // 6-byte copy found at `mark - 1` and deferred, pending at the loop
        // top `mark`. A second buffer puts a 600-byte copy across the mark,
        // which a 258-byte match crosses.
        let (s, n) = (64 << 10, 128 << 10);
        let mark = s + crate::workers::MARK;
        let mut pending = text(3, n);
        pending.copy_within(s - 5_125..s - 4_875, s - 125);
        pending[mark - 51..mark - 1].fill(b'z');
        pending.copy_within(mark - 2_000..mark - 1_994, mark - 1);
        let adopted = split_as_serial(&pending, 0, 6, 2);
        assert_eq!(adopted.len(), 1);
        assert_eq!(adopted[0].pos, mark);
        assert!(adopted[0].pending.is_some(), "{:?}", adopted[0]);

        let mut crossing = text(4, n);
        crossing.copy_within(s - 5_125..s - 4_875, s - 125);
        crossing.copy_within(mark - 9_000..mark - 8_400, mark - 300);
        let (tokens, _) = serial(&crossing, 0, 6);
        assert!(tokens.contains(&Token::Match {
            len: 258,
            dist: 8_700
        }));
        let adopted = split_as_serial(&crossing, 0, 6, 2);
        assert_eq!(adopted.len(), 1);
        assert!(adopted[0].pos > mark, "{:?}", adopted[0]);
    }

    #[test]
    fn a_checkpoint_at_the_segment_start_reaches_back_a_full_window() {
        // A 258-byte run of `z`s ends exactly at `s`, so the caller stands at
        // `s` as the helper starts; a 40-byte motif at `s - WINDOW_SIZE`
        // repeats at `s`. A helper that indexed its window one position short
        // would miss that match, and its tokens would be adopted at `s`.
        let s = 64 << 10;
        let mut data = text(5, 2 * s);
        let motif = nx_corpus::CorpusKind::Random.generate(7, 40);
        data[s - 259..s].fill(b'z');
        data[s - WINDOW_SIZE..s - WINDOW_SIZE + 40].copy_from_slice(&motif);
        data[s..s + 40].copy_from_slice(&motif);
        // (Level 1 leaves skip ranges in the text's window, so it adopts later.)
        for level in [3, 6, 9] {
            // The serial parse takes the match at `s`.
            let (tokens, _) = serial(&data, 0, level);
            let mut at = tokens.iter().scan(0, |p, t| {
                Some((std::mem::replace(p, *p + t.input_len()), t))
            });
            let (_, first) = at.find(|&(p, _)| p >= s).unwrap();
            assert!(
                matches!(first, Token::Match { len: 40.., dist } if usize::from(*dist) == WINDOW_SIZE),
                "level {level}: {first:?}"
            );
            let adopted = split_as_serial(&data, 0, level, 2);
            assert_eq!(adopted, [Cursor::at(s)], "level {level}");
        }
    }

    #[test]
    fn the_route_claims_for_the_sequential_matcher_only() {
        // Two segments' worth of new bytes on a budget of one helper: the
        // sequential matcher claims it, the batch engine (`Auto` 1-3) never
        // touches the budget; tokens equal the serial call either way.
        let data = nx_corpus::mixed(11, 2 * crate::workers::SEGMENT_MIN + 100);
        for (level, engine, helpers) in [
            (6, Engine::Auto, 1),
            (1, Engine::Sequential, 1),
            (3, Engine::Auto, 0),
        ] {
            let budget = Workers::new(1);
            let (mut m, mut got) = (Hash4Matcher::new(), Vec::new());
            tokenize_into_on(&data, 100, level, engine, Some(&budget), &mut m, &mut got);
            assert!(
                got == fresh(&data, 100, level, engine),
                "level {level} {engine:?}"
            );
            assert_eq!(budget.peak(), helpers, "level {level} {engine:?}");
        }
    }
}
