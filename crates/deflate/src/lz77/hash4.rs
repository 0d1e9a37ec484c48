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
//! * [`tokenize_fastest_into`] (level 1, [`crate::Level::Fastest`]) —
//!   head-only greedy: one probe per position, no chain walk at all;
//! * [`tokenize_greedy4_into`] (levels 2–3) — greedy with a bounded walk;
//! * [`tokenize_lazy4_into`] (levels 4–9) — zlib's one-token lazy
//!   deferral (`deflate_slow`) over the hash4 chains.
//!
//! All three append per-search chain-walk lengths and lazy deferrals to
//! local counters that the caller flushes into the process-wide encode
//! telemetry (see [`crate::encoder::encode_counters`]).

use super::hash::match_length;
use super::{MatcherConfig, Token};
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
#[derive(Debug, Default, Clone, Copy)]
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
/// searching or indexing — the insert-skip heuristic. Returns the new
/// position. `shift` controls how aggressively the step grows; the step
/// is capped so one bad stretch cannot blind the matcher for long.
#[inline]
fn emit_skip_literals(
    data: &[u8],
    pos: usize,
    lit_run: &mut usize,
    shift: u32,
    tokens: &mut Vec<Token>,
) -> usize {
    let extra = (*lit_run >> shift).min(32);
    let end = (pos + 1 + extra).min(data.len());
    for &b in &data[pos..end] {
        tokens.push(Token::Literal(b));
    }
    *lit_run += end - pos;
    end
}

/// Level-1 tokenizer: greedy, head-only (no chain walk), with the
/// insert-skip heuristic — the [`crate::Level::Fastest`] pass.
pub fn tokenize_fastest_into(
    data: &[u8],
    start: usize,
    m: &mut Hash4Matcher,
    tokens: &mut Vec<Token>,
) {
    index_history(m, data, start);
    let end4 = index_end(data);
    let mut pos = start;
    let mut lit_run = 0usize;
    while pos < data.len() {
        if pos >= end4 {
            tokens.push(Token::Literal(data[pos]));
            pos += 1;
            continue;
        }
        let (old, _) = m.insert_ret(data, pos);
        m.stats.record_walk(usize::from(old != 0));
        if old != 0 {
            let cand = (old - 1) as usize;
            let dist = pos - cand;
            if dist <= WINDOW_SIZE {
                let len = match_length(data, cand, pos);
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
        }
        pos = emit_skip_literals(data, pos, &mut lit_run, 5, tokens);
    }
}

/// Levels 2–3 tokenizer: greedy with a bounded chain walk.
pub fn tokenize_greedy4_into(
    data: &[u8],
    start: usize,
    cfg: &MatcherConfig,
    m: &mut Hash4Matcher,
    tokens: &mut Vec<Token>,
) {
    index_history(m, data, start);
    let end4 = index_end(data);
    let mut pos = start;
    let mut lit_run = 0usize;
    while pos < data.len() {
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
                pos = emit_skip_literals(data, pos, &mut lit_run, 6, tokens);
            }
        }
    }
}

/// Levels 4–9 tokenizer: one-token lazy deferral (zlib `deflate_slow`)
/// over the hash4 chains. The skip heuristic only engages after long
/// literal droughts (shift 8 → 256 consecutive literals) so compressible
/// data keeps the exact lazy parse.
pub fn tokenize_lazy4_into(
    data: &[u8],
    start: usize,
    cfg: &MatcherConfig,
    m: &mut Hash4Matcher,
    tokens: &mut Vec<Token>,
) {
    index_history(m, data, start);
    let end4 = index_end(data);
    let mut pos = start;
    let mut lit_run = 0usize;
    // Pending match from the previous position, anchored at pos-1.
    let mut prev: Option<(usize, usize)> = None;
    while pos < data.len() {
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
                pos = emit_skip_literals(data, pos, &mut lit_run, 8, tokens);
            }
        }
    }
    // A pending match at end-of-input fit entirely in the buffer
    // (search caps at the input end), so commit it.
    if let Some((plen, pdist)) = prev {
        tokens.push(Token::Match {
            len: plen as u16,
            dist: pdist as u16,
        });
    }
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
    debug_assert!((1..=9).contains(&level));
    if engine.speculative_at(level) {
        super::batch::tokenize_speculative_into(data, start, level, m, tokens);
    } else if level <= 1 {
        tokenize_fastest_into(data, start, m, tokens);
    } else {
        let cfg = MatcherConfig::for_level(level);
        if MatcherConfig::is_lazy_level(level) {
            tokenize_lazy4_into(data, start, &cfg, m, tokens);
        } else {
            tokenize_greedy4_into(data, start, &cfg, m, tokens);
        }
    }
    crate::encoder::flush_search_stats(m.take_stats());
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
        let cfg = MatcherConfig::for_level(6);
        tokenize_lazy4_into(&data, 0, &cfg, &mut m, &mut tokens);
        let stats = m.take_stats();
        assert!(stats.chain_hist.iter().sum::<u64>() > 0);
        // Second take is empty.
        assert_eq!(m.take_stats().chain_hist.iter().sum::<u64>(), 0);
    }
}
