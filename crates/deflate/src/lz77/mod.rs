//! LZ77 token model and the DEFLATE length/distance code mappings.
//!
//! A DEFLATE block body is a sequence of *tokens*: literal bytes and
//! back-references (`length`, `distance`) into the preceding 32 KB of
//! output. This module defines the shared [`Token`] type used by the
//! software matchers here and by the hardware match-engine model in
//! `nx-accel`, plus the RFC 1951 §3.2.5 mappings from lengths/distances to
//! code symbols and extra bits.

pub mod batch;
pub mod cover;
pub mod hash;
pub mod hash4;

use crate::{MAX_MATCH, MIN_MATCH};

/// Which match-finding engine drives tokenization.
///
/// The sequential matchers in [`hash4`] decide one position at a time
/// (zlib's model); the batched speculative matcher in [`batch`] works in
/// 8-position windows with cover resolution (the NX hardware's model).
/// `Auto` — the default everywhere — routes the throughput rungs
/// (levels 1–3, [`crate::Level::Fastest`]/[`crate::Level::Fast`])
/// through the batch engine and the deeper rungs through the sequential
/// lazy matcher; the other two variants force one engine at every rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Per-level routing: speculative for levels 1–3, sequential above.
    #[default]
    Auto,
    /// Sequential matchers at every level (the pre-batch ladder).
    Sequential,
    /// The batched speculative matcher at every level.
    Speculative,
}

impl Engine {
    /// Whether the speculative batch matcher handles `level` under this
    /// selection.
    #[inline]
    pub fn speculative_at(self, level: u32) -> bool {
        match self {
            Engine::Auto => (1..=3).contains(&level),
            Engine::Sequential => false,
            Engine::Speculative => level >= 1,
        }
    }
}

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Token {
    /// A single uncompressed byte.
    Literal(u8),
    /// A back-reference copying `len` bytes from `dist` bytes behind the
    /// current output position. Invariants: `3 <= len <= 258`,
    /// `1 <= dist <= 32768`.
    Match {
        /// Copy length in bytes.
        len: u16,
        /// Backward distance in bytes.
        dist: u16,
    },
}

impl Token {
    /// Number of input bytes this token covers.
    #[inline]
    pub fn input_len(&self) -> usize {
        match *self {
            Token::Literal(_) => 1,
            Token::Match { len, .. } => usize::from(len),
        }
    }

    /// Validates the DEFLATE invariants on this token.
    pub fn is_valid(&self) -> bool {
        match *self {
            Token::Literal(_) => true,
            Token::Match { len, dist } => {
                (MIN_MATCH..=MAX_MATCH).contains(&usize::from(len))
                    && (1..=crate::WINDOW_SIZE).contains(&usize::from(dist))
            }
        }
    }
}

/// Number of literal/length symbols (0–255 literals, 256 end-of-block,
/// 257–285 lengths; 286/287 are reserved but participate in fixed codes).
pub const NUM_LITLEN_SYMBOLS: usize = 288;

/// Number of distance symbols (0–29; 30/31 reserved).
pub const NUM_DIST_SYMBOLS: usize = 32;

/// End-of-block symbol in the literal/length alphabet.
pub const END_OF_BLOCK: u16 = 256;

/// Base match length for each length code 257..=285 (index 0 = code 257).
pub const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];

/// Extra bits for each length code 257..=285.
pub const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// Base distance for each distance code 0..=29.
pub const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];

/// Extra bits for each distance code 0..=29.
pub const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// `len - 3` → length-code index, precomputed over the whole 3..=258
/// domain. The encoder consults this once per match token, so a table
/// lookup beats recomputing the log2-based bucketing each time.
static LENGTH_CODE_LUT: [u8; 256] = build_length_code_lut();

const fn build_length_code_lut() -> [u8; 256] {
    let mut lut = [0u8; 256];
    let mut m = 0u32;
    while m < 256 {
        lut[m as usize] = if m == 255 {
            28 // len 258 has its own zero-extra code
        } else if m < 8 {
            m as u8
        } else {
            let e = 31 - m.leading_zeros(); // floor(log2(m)), >= 3
            (4 * (e - 1) + ((m >> (e - 2)) & 3)) as u8
        };
        m += 1;
    }
    lut
}

/// Distance-code lookup using zlib's two-scale trick: the first 256
/// entries map `dist - 1` directly; the last 256 map `(dist - 1) >> 7`
/// for larger distances. Buckets of 128 at those magnitudes never cross
/// a code boundary (all codes with base ≥ 257 span multiples of 128).
static DIST_CODE_LUT: [u8; 512] = build_dist_code_lut();

const fn build_dist_code_lut() -> [u8; 512] {
    const fn code(d: u32) -> u8 {
        if d < 4 {
            d as u8
        } else {
            let e = 31 - d.leading_zeros(); // floor(log2(d)), >= 2
            (2 * e + ((d >> (e - 1)) & 1)) as u8
        }
    }
    let mut lut = [0u8; 512];
    let mut d = 0u32;
    while d < 256 {
        lut[d as usize] = code(d);
        lut[256 + d as usize] = code(d << 7);
        d += 1;
    }
    lut
}

/// Maps a match length (3..=258) to its length-code *index* (0..=28, i.e.
/// symbol `257 + index`).
///
/// # Panics
///
/// Debug-panics outside the valid range.
#[inline]
pub fn length_code_index(len: u16) -> usize {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&usize::from(len)));
    usize::from(LENGTH_CODE_LUT[usize::from(len - 3)])
}

/// Maps a distance (1..=32768) to its distance-code symbol (0..=29).
///
/// # Panics
///
/// Debug-panics outside the valid range.
#[inline]
pub fn dist_code(dist: u16) -> usize {
    debug_assert!((1..=32768u32).contains(&u32::from(dist)));
    let d = usize::from(dist) - 1;
    let i = if d < 256 { d } else { 256 + (d >> 7) };
    usize::from(DIST_CODE_LUT[i])
}

/// Where a parse puts its tokens, one at a time, as it makes them. A plain
/// vector collects them ([`hash4::tokenize_into_with`],
/// [`crate::deflate_tokens`]); an encode's block sink counts, cuts and
/// emits them as they come (`encoder::Blocks`).
pub(crate) trait Sink {
    /// Takes the next token.
    fn push(&mut self, t: Token);
}

impl Sink for Vec<Token> {
    #[inline(always)]
    fn push(&mut self, t: Token) {
        Vec::push(self, t);
    }
}

impl<S: Sink> Sink for &mut S {
    #[inline(always)]
    fn push(&mut self, t: Token) {
        (**self).push(t);
    }
}

/// Reusable LZ77 tokenizer state.
///
/// One-shot tokenization allocates a ~450 KB hash4 dictionary and a token
/// buffer on every call — fine for one-shot compression, wasteful for
/// chunked sessions (the streaming encoder, the parallel engine's shard
/// workers) and small requests that tokenize thousands of chunks. A
/// `Tokenizer` owns both, and the buffer a chunk behind history or a
/// dictionary is staged in, and recycles them: resetting the dictionary
/// writes no table (see [`hash4::Hash4Matcher`] for why stale entries are
/// safe), and the buffers keep their capacity across calls.
#[derive(Debug, Default)]
pub(crate) struct Tokenizer {
    matcher: hash4::Hash4Matcher,
    tokens: Vec<Token>,
    staging: Vec<u8>,
}

/// A [`Tokenizer`] taken apart for one encode: the matcher, the token
/// buffer and the staging buffer.
pub(crate) type Parts<'a> = (
    &'a mut hash4::Hash4Matcher,
    &'a mut Vec<Token>,
    &'a mut Vec<u8>,
);

impl Tokenizer {
    /// Taken apart for one encode: the matcher, reset in O(1), the cleared
    /// token buffer and the staging buffer.
    pub(crate) fn parts(&mut self) -> Parts<'_> {
        self.matcher.reset();
        self.tokens.clear();
        (&mut self.matcher, &mut self.tokens, &mut self.staging)
    }
}

/// Runs `f` on the calling thread's long-lived [`Tokenizer`], taken apart
/// ([`Tokenizer::parts`]). A fresh matcher's ~450 KB of tables cost more to
/// allocate and zero than a 1–16 KiB request spends tokenizing, and buffers
/// that keep their capacity let such a request allocate nothing but its
/// output. `f` must not re-enter.
pub(crate) fn with_thread_tokenizer<R>(f: impl FnOnce(Parts<'_>) -> R) -> R {
    thread_local! {
        static TOKENIZER: std::cell::RefCell<Tokenizer> = std::cell::RefCell::default();
    }
    TOKENIZER.with(|tokenizer| f(tokenizer.borrow_mut().parts()))
}

/// Per-block symbol frequency histograms, as maintained by both the
/// software encoder and the accelerator's hardware counters: two plain
/// arrays, so a block's histogram lives on the stack.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Literal/length symbol counts.
    pub litlen: [u32; NUM_LITLEN_SYMBOLS],
    /// Distance symbol counts.
    pub dist: [u32; NUM_DIST_SYMBOLS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            litlen: [0; NUM_LITLEN_SYMBOLS],
            dist: [0; NUM_DIST_SYMBOLS],
        }
    }

    /// The histogram of one block: `tokens` and the end-of-block marker.
    pub fn of(tokens: &[Token]) -> Self {
        let mut hist = Self::new();
        tokens.iter().for_each(|&t| hist.record(t));
        hist.record_end_of_block();
        hist
    }

    /// Counts one token.
    #[inline]
    pub fn record(&mut self, token: Token) {
        match token {
            Token::Literal(b) => self.litlen[usize::from(b)] += 1,
            Token::Match { len, dist } => {
                self.litlen[257 + length_code_index(len)] += 1;
                self.dist[dist_code(dist)] += 1;
            }
        }
    }

    /// Counts the end-of-block marker (every block emits exactly one).
    pub fn record_end_of_block(&mut self) {
        self.litlen[usize::from(END_OF_BLOCK)] += 1;
    }

    /// Zeroes all counts.
    pub fn clear(&mut self) {
        *self = Self::new();
    }
}

/// Tuning knobs for the match finders, mirroring zlib's per-level
/// `configuration_table` (deflate.c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatcherConfig {
    /// If the current match is at least this long, reduce chain effort.
    pub good_length: usize,
    /// Lazy matching threshold: do not defer matches at least this long
    /// (greedy matchers ignore this field).
    pub max_lazy: usize,
    /// Stop searching once a match of this length is found.
    pub nice_length: usize,
    /// Maximum hash-chain candidates examined per position.
    pub max_chain: usize,
}

impl MatcherConfig {
    /// Search budget for `level` (1..=9).
    ///
    /// The shape follows zlib's `configuration_table` (deflate.c), but the
    /// mid-level chain budgets are re-tuned for the hash4 matcher the way
    /// libdeflate tunes its: a 4-byte hash produces far fewer false
    /// candidates than zlib's 3-byte hash, so a much shorter walk reaches
    /// the same match quality. Level 6 with a depth-40 walk lands within
    /// ~0.3% of the old depth-128 ratio at roughly twice the speed.
    ///
    /// Levels 4 and 8–9 deviate from zlib's row values deliberately.
    /// zlib's level 4 (`max_lazy` 4, chain 16) spends *less* search
    /// effort than its level 3 under a 4-byte hash, producing a
    /// non-monotone rung; 4 here keeps level 3's chain budget and adds
    /// lazy deferral. zlib's 8/9 `max_lazy` of 128/258 makes the lazy
    /// matcher re-search almost every position of a long match one byte
    /// later — with hash4's cheaper chains that pathology cost binary
    /// corpora *ratio* as well as speed (E21's pre-tune report shows
    /// `best` below `default`), so 8/9 cap deferral at 64/128 and trade
    /// the freed time for chain depth that actually helps.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `1..=9`.
    pub fn for_level(level: u32) -> Self {
        let (good_length, max_lazy, nice_length, max_chain) = match level {
            1 => (4, 4, 8, 4),
            2 => (4, 5, 16, 8),
            3 => (4, 6, 32, 24),
            4 => (8, 8, 32, 24),
            5 => (8, 16, 48, 24),
            6 => (8, 16, 72, 40),
            7 => (8, 32, 112, 110),
            8 => (16, 64, 192, 512),
            9 => (32, 128, 258, 2048),
            _ => panic!("matcher config defined for levels 1..=9, got {level}"),
        };
        Self {
            good_length,
            max_lazy,
            nice_length,
            max_chain,
        }
    }

    /// Whether zlib would use the lazy (deflate_slow) strategy for `level`.
    pub fn is_lazy_level(level: u32) -> bool {
        level >= 4
    }
}

/// Expands a token sequence back into bytes — the reference semantics the
/// matchers and the hardware model must both satisfy. Used by tests.
pub fn expand_tokens(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - usize::from(dist);
                for i in 0..usize::from(len) {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_codes_cover_rfc_table() {
        // Every base length must map to its own code, and the last length
        // of each range must map to the same code.
        for (idx, &base) in LENGTH_BASE.iter().enumerate() {
            assert_eq!(length_code_index(base), idx, "base of code {idx}");
            let top = if idx == 28 {
                258
            } else {
                base + (1 << LENGTH_EXTRA[idx]) - 1
            };
            let top = top.min(257); // lengths 3..=257 for codes 0..=27
            if idx < 28 {
                assert_eq!(length_code_index(top), idx, "top of code {idx}");
            }
        }
        assert_eq!(length_code_index(258), 28);
        assert_eq!(length_code_index(257), 27);
    }

    #[test]
    fn every_length_maps_consistently() {
        for len in 3..=258u16 {
            let idx = length_code_index(len);
            let base = LENGTH_BASE[idx];
            let extra = LENGTH_EXTRA[idx];
            assert!(len >= base, "len {len} below base of its code");
            if idx < 28 {
                assert!(
                    u32::from(len - base) < (1 << extra),
                    "len {len} overflows extra bits of code {idx}"
                );
            } else {
                assert_eq!(len, 258);
            }
        }
    }

    #[test]
    fn dist_codes_cover_rfc_table() {
        for (code, &base) in DIST_BASE.iter().enumerate() {
            assert_eq!(dist_code(base), code, "base of code {code}");
            let top = base as u32 + (1u32 << DIST_EXTRA[code]) - 1;
            assert_eq!(dist_code(top as u16), code, "top of code {code}");
        }
    }

    #[test]
    fn every_distance_maps_consistently() {
        for dist in 1..=32768u32 {
            let code = dist_code(dist as u16);
            let base = u32::from(DIST_BASE[code]);
            assert!(dist >= base);
            assert!(dist - base < (1 << DIST_EXTRA[code]));
        }
    }

    #[test]
    fn histogram_records_tokens() {
        let mut h = Histogram::new();
        h.record(Token::Literal(b'x'));
        h.record(Token::Match { len: 3, dist: 1 });
        h.record(Token::Match {
            len: 258,
            dist: 32768,
        });
        h.record_end_of_block();
        assert_eq!(h.litlen[usize::from(b'x')], 1);
        assert_eq!(h.litlen[257], 1);
        assert_eq!(h.litlen[285], 1);
        assert_eq!(h.dist[0], 1);
        assert_eq!(h.dist[29], 1);
        assert_eq!(h.litlen[256], 1);
    }

    #[test]
    fn token_validity() {
        assert!(Token::Literal(0).is_valid());
        assert!(Token::Match { len: 3, dist: 1 }.is_valid());
        assert!(Token::Match {
            len: 258,
            dist: 32768
        }
        .is_valid());
        assert!(!Token::Match { len: 2, dist: 1 }.is_valid());
        assert!(!Token::Match { len: 259, dist: 1 }.is_valid());
        assert!(!Token::Match { len: 3, dist: 0 }.is_valid());
    }

    #[test]
    fn expand_tokens_handles_overlap() {
        // RLE via overlapping match: "ab" + match(len 6, dist 2) = "abababab".
        let tokens = [
            Token::Literal(b'a'),
            Token::Literal(b'b'),
            Token::Match { len: 6, dist: 2 },
        ];
        assert_eq!(expand_tokens(&tokens), b"abababab");
    }
}
