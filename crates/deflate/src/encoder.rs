//! The DEFLATE encoder: token streams → RFC 1951 bit streams.
//!
//! The encoder mirrors zlib's structure: input is tokenized by the level's
//! match finder ([`deflate_tokens`]), split into blocks, and each block is
//! emitted as whichever of *stored* / *fixed Huffman* / *dynamic Huffman*
//! costs the fewest bits. The block emitters are public so the hardware
//! model in `nx-accel` can reuse the bit-exact serialization with its own
//! token stream and its own (hardware-constrained) block strategy.

use std::mem::take;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::OnceLock;

use crate::bitio::BitWriter;
use crate::huffman::build::{used_lengths_into, Used, MAX_SYMBOLS, SMALL_SYMBOLS};
use crate::huffman::{
    first_codes, first_codes_of, next_code, Code, FirstCodes, MAX_CODELEN_CODE_LEN, MAX_CODE_LEN,
};
use crate::lz77::hash4::{
    parse, Hash4Matcher, SearchStats, CHAIN_HIST_BUCKETS, SPEC_COVER_BUCKETS,
};
use crate::lz77::{
    self, dist_code, Engine, Histogram, Sink, Token, DIST_BASE, DIST_EXTRA, LENGTH_BASE,
    LENGTH_EXTRA, NUM_DIST_SYMBOLS, NUM_LITLEN_SYMBOLS,
};
use crate::profile::Profile;
use crate::stream::{Flush, StreamEncoder};
use crate::workers::{Claim, Workers, SEGMENT_MIN};
use crate::{Error, Result};

/// A validated zlib-style compression level (0..=9).
///
/// Level 0 stores the input without compression; levels 1–3 use the greedy
/// matcher; levels 4–9 use the lazy matcher with progressively larger
/// search budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompressionLevel(u32);

impl CompressionLevel {
    /// Validates and wraps `level`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidLevel`] if `level > 9`.
    pub fn new(level: u32) -> Result<Self> {
        if level > 9 {
            return Err(Error::InvalidLevel(level));
        }
        Ok(Self(level))
    }

    /// zlib's default level.
    pub fn default_level() -> Self {
        Self(6)
    }

    /// The numeric level.
    pub fn get(self) -> u32 {
        self.0
    }
}

impl Default for CompressionLevel {
    fn default() -> Self {
        Self::default_level()
    }
}

impl std::fmt::Display for CompressionLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The coarse compression-level ladder — five named speed/ratio points
/// over the numeric zlib levels.
///
/// `Fastest` maps to numeric level 1, which runs the head-only greedy
/// pass (one hash probe per position, no chain walk); `Default` maps to
/// level 6 and keeps the current lazy-matcher behavior. Facades that
/// accept a [`Level`] convert through
/// [`compression_level`](Level::compression_level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Level {
    /// Head-only greedy matcher, maximum throughput (numeric level 1).
    Fastest,
    /// Greedy matcher with a short chain walk (numeric level 3).
    Fast,
    /// Lazy matcher, zlib's default search budget (numeric level 6).
    #[default]
    Default,
    /// Lazy matcher with a deep search (numeric level 8).
    High,
    /// Maximum-effort lazy matcher (numeric level 9).
    Best,
}

impl Level {
    /// All rungs, fastest first.
    pub const fn all() -> [Level; 5] {
        [
            Level::Fastest,
            Level::Fast,
            Level::Default,
            Level::High,
            Level::Best,
        ]
    }

    /// Stable display name.
    pub const fn name(self) -> &'static str {
        match self {
            Level::Fastest => "fastest",
            Level::Fast => "fast",
            Level::Default => "default",
            Level::High => "high",
            Level::Best => "best",
        }
    }

    /// Rung index 0..=4, fastest first (used by per-level counters).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The numeric level this rung runs at.
    pub const fn compression_level(self) -> CompressionLevel {
        CompressionLevel(match self {
            Level::Fastest => 1,
            Level::Fast => 3,
            Level::Default => 6,
            Level::High => 8,
            Level::Best => 9,
        })
    }

    /// The nearest rung for a numeric level (0–1 → `Fastest`, 2–3 →
    /// `Fast`, 4–6 → `Default`, 7–8 → `High`, 9 → `Best`).
    pub const fn from_numeric(level: u32) -> Level {
        match level {
            0 | 1 => Level::Fastest,
            2 | 3 => Level::Fast,
            4..=6 => Level::Default,
            7 | 8 => Level::High,
            _ => Level::Best,
        }
    }
}

impl From<Level> for CompressionLevel {
    fn from(l: Level) -> Self {
        l.compression_level()
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Process-wide encode-path counters, mirrored after the decode-path
// counters in `decoder`. The matchers accumulate locally and flush once
// per tokenize call; block counters bump once per emitted block.
static BLOCKS_STORED: AtomicU64 = AtomicU64::new(0);
static BLOCKS_FIXED: AtomicU64 = AtomicU64::new(0);
static BLOCKS_DYNAMIC: AtomicU64 = AtomicU64::new(0);
static LAZY_DEFERRALS: AtomicU64 = AtomicU64::new(0);
static CHAIN_HIST: [AtomicU64; CHAIN_HIST_BUCKETS] =
    [const { AtomicU64::new(0) }; CHAIN_HIST_BUCKETS];
static BLOCKS_BY_LEVEL: [AtomicU64; 5] = [const { AtomicU64::new(0) }; 5];
// Speculative batch-engine cover statistics (see `lz77::batch`).
static SPEC_WINDOWS: AtomicU64 = AtomicU64::new(0);
static SPEC_CANDIDATES: AtomicU64 = AtomicU64::new(0);
static SPEC_COVERED: AtomicU64 = AtomicU64::new(0);
static SPEC_DISCARDED: AtomicU64 = AtomicU64::new(0);
static SPEC_COVER_HIST: [AtomicU64; SPEC_COVER_BUCKETS] =
    [const { AtomicU64::new(0) }; SPEC_COVER_BUCKETS];

/// Snapshot of the process-wide encode counters; see [`encode_counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeCounters {
    /// Stored (type 0) blocks emitted.
    pub blocks_stored: u64,
    /// Fixed-Huffman (type 1) blocks emitted.
    pub blocks_fixed: u64,
    /// Dynamic-Huffman (type 2) blocks emitted.
    pub blocks_dynamic: u64,
    /// Lazy-matcher deferrals (pending match displaced by a longer one).
    pub lazy_deferrals: u64,
    /// Chain-walk length histogram in log2 buckets (`≤1, 2, 3–4, 5–8, …`
    /// candidates examined per search).
    pub chain_hist: [u64; CHAIN_HIST_BUCKETS],
    /// Blocks emitted per [`Level`] rung (index = [`Level::index`]).
    pub blocks_by_level: [u64; 5],
    /// 8-position windows resolved by the speculative batch engine.
    pub spec_windows: u64,
    /// Batch-engine candidates probed (pre-cover).
    pub spec_candidates: u64,
    /// Window positions covered by selected matches.
    pub spec_covered: u64,
    /// Candidates dropped by cover resolution.
    pub spec_discarded: u64,
    /// Matches-per-window histogram (index = picks in a window, 0..=8).
    pub spec_cover_hist: [u64; SPEC_COVER_BUCKETS],
}

/// Process-wide encode-path counters: blocks by type, lazy deferrals and
/// the chain-walk length histogram. Monotone; exported through the
/// telemetry registry by `nx-core`.
pub fn encode_counters() -> EncodeCounters {
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    EncodeCounters {
        blocks_stored: load(&BLOCKS_STORED),
        blocks_fixed: load(&BLOCKS_FIXED),
        blocks_dynamic: load(&BLOCKS_DYNAMIC),
        lazy_deferrals: load(&LAZY_DEFERRALS),
        chain_hist: CHAIN_HIST.each_ref().map(load),
        blocks_by_level: BLOCKS_BY_LEVEL.each_ref().map(load),
        spec_windows: load(&SPEC_WINDOWS),
        spec_candidates: load(&SPEC_CANDIDATES),
        spec_covered: load(&SPEC_COVERED),
        spec_discarded: load(&SPEC_DISCARDED),
        spec_cover_hist: SPEC_COVER_HIST.each_ref().map(load),
    }
}

/// Flushes a tokenizer's locally accumulated search statistics into the
/// process-wide counters (one batch of relaxed adds per tokenize call,
/// keeping atomics off the per-position hot path).
pub(crate) fn flush_search_stats(stats: SearchStats) {
    for (bucket, &n) in CHAIN_HIST.iter().zip(stats.chain_hist.iter()) {
        if n > 0 {
            bucket.fetch_add(n, Ordering::Relaxed);
        }
    }
    if stats.lazy_deferrals > 0 {
        LAZY_DEFERRALS.fetch_add(stats.lazy_deferrals, Ordering::Relaxed);
    }
    if stats.spec_windows > 0 {
        SPEC_WINDOWS.fetch_add(stats.spec_windows, Ordering::Relaxed);
        SPEC_CANDIDATES.fetch_add(stats.spec_candidates, Ordering::Relaxed);
        SPEC_COVERED.fetch_add(stats.spec_covered, Ordering::Relaxed);
        SPEC_DISCARDED.fetch_add(stats.spec_discarded, Ordering::Relaxed);
        for (bucket, &n) in SPEC_COVER_HIST.iter().zip(stats.spec_cover_hist.iter()) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
    }
}

/// Maximum number of tokens per emitted block. Bounding the block keeps the
/// dynamic-Huffman tables adaptive; the value matches the symbol-buffer
/// depth modeled for the accelerator so software and hardware block
/// granularity are comparable.
pub const MAX_BLOCK_TOKENS: usize = 50_000;

/// Maximum input bytes a single block may span. Token count alone lets a
/// highly redundant block stretch over megabytes of input, and — worse —
/// puts block boundaries at engine-dependent *token* offsets, so two
/// tokenizers with near-identical parses can straddle content
/// transitions differently and pay divergent table costs. A byte cap
/// pins boundaries to input positions: tables stay fresh and block
/// splits are comparable across engines.
pub const MAX_BLOCK_BYTES: usize = 128 << 10;

/// Largest stored-block payload (RFC 1951: 16-bit LEN field).
pub const MAX_STORED_BLOCK: usize = 65_535;

/// Largest one-shot input that tokenizes on the thread's scratch; see
/// [`deflate_tokens_with`] for why size decides.
const THREAD_SCRATCH_MAX: usize = 2 * crate::WINDOW_SIZE;

/// Match-finding strategy: full LZ77 matching, greedy or lazy per level,
/// is the only one. The type stays because [`deflate_tokens_with`] takes it
/// and callers outside this workspace pass `Strategy::Default`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Full LZ77 matching (greedy or lazy per level).
    #[default]
    Default,
}

/// Tokenizes `data` at `level` without entropy-coding it. Level 0 returns
/// one literal token per byte.
pub fn deflate_tokens(data: &[u8], level: CompressionLevel) -> Vec<Token> {
    deflate_tokens_with(data, level, Strategy::Default, Engine::Auto)
}

/// Tokenizes `data` on an explicit match [`Engine`] (the one [`Strategy`]):
/// the parse collected whole, through a plain vector.
pub fn deflate_tokens_with(
    data: &[u8],
    level: CompressionLevel,
    Strategy::Default: Strategy,
    engine: Engine,
) -> Vec<Token> {
    let l = level.get();
    if l == 0 {
        return data.iter().map(|&b| Token::Literal(b)).collect();
    }
    let tokenize = |m: &mut Hash4Matcher| {
        let mut tokens = Vec::with_capacity(data.len() / 4 + 8);
        lz77::hash4::tokenize_into_with(data, 0, l, engine, m, &mut tokens);
        tokens
    };
    // Decided by size: up to a window or two, allocating and zeroing a
    // matcher costs more than tokenizing with it, so borrow the thread's;
    // at 1–32 MiB the fresh zero-page tables measured 6–10 % faster than
    // reused ones.
    if data.len() <= THREAD_SCRATCH_MAX {
        lz77::with_thread_tokenizer(|(m, ..)| tokenize(m))
    } else {
        tokenize(&mut Hash4Matcher::new())
    }
}

/// One-shot raw-DEFLATE compression of `data` at `level` with a preset
/// dictionary: matches in the early output may reference `dict` (its last
/// 32 KB), exactly as zlib's `deflateSetDictionary` arranges. The decoder
/// must prime its window with the same dictionary
/// ([`crate::decoder::inflate_with_dict`]).
pub fn deflate_with_dict(data: &[u8], level: CompressionLevel, dict: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    deflate_with_dict_to(data, level, dict, &mut out);
    out
}

/// [`deflate_with_dict`], appending the stream to `out` (a container's
/// header may already be there). The stream is a one-chunk
/// [`StreamEncoder::with_dict`] session, so its blocks split and choose as
/// every ladder encode's do, stored included: a stored block carries its
/// own bytes whatever the window holds.
pub(crate) fn deflate_with_dict_to(
    data: &[u8],
    level: CompressionLevel,
    dict: &[u8],
    out: &mut Vec<u8>,
) {
    if level.get() == 0 || dict.is_empty() {
        return Encoder::new(level).compress_to(data, out);
    }
    StreamEncoder::with_dict(level, dict).write_into(data, Flush::Finish, out);
}

/// One-shot raw-DEFLATE compression of `data` at `level`.
///
/// The output is a complete DEFLATE stream (final block flagged); wrap it
/// with [`crate::gzip`] or [`crate::zlib`] for framed formats.
///
/// ```
/// use nx_deflate::{deflate, inflate, CompressionLevel};
/// # fn main() -> Result<(), nx_deflate::Error> {
/// let out = deflate(b"aaaaaaaaaaaaaaaaaaaaaaaa", CompressionLevel::new(6)?);
/// assert!(out.len() < 24);
/// assert_eq!(inflate(&out)?, b"aaaaaaaaaaaaaaaaaaaaaaaa");
/// # Ok(())
/// # }
/// ```
pub fn deflate(data: &[u8], level: CompressionLevel) -> Vec<u8> {
    Encoder::new(level).compress(data)
}

/// Reusable DEFLATE encoder configured with a [`CompressionLevel`] and a
/// match [`Engine`].
#[derive(Debug, Clone)]
pub struct Encoder {
    level: CompressionLevel,
    engine: Engine,
    /// The budget a large sequential-matcher encode claims helpers from;
    /// `None` parses on the caller alone.
    pub(crate) workers: Option<Workers>,
}

impl Encoder {
    /// Creates an encoder for `level` on the default match engine.
    pub fn new(level: CompressionLevel) -> Self {
        Self::with_engine(level, Engine::Auto)
    }

    /// Creates an encoder with an explicit match [`Engine`] — the knob
    /// that forces the speculative batch matcher (or the sequential
    /// ladder) at any rung.
    pub fn with_engine(level: CompressionLevel, engine: Engine) -> Self {
        Self {
            level,
            engine,
            workers: None,
        }
    }

    /// This encoder on a worker budget: an encode of at least two
    /// [`SEGMENT_MIN`]s runs its later segments ahead (sequential matcher)
    /// or emits its blocks behind its parse (batch matcher) on the helpers
    /// the budget grants. The stream is the same byte for byte.
    pub fn with_workers(mut self, workers: Workers) -> Self {
        self.workers = Some(workers);
        self
    }

    /// The configured level.
    pub fn level(&self) -> CompressionLevel {
        self.level
    }

    /// The configured match engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Compresses `data` into a complete raw DEFLATE stream.
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 64);
        self.compress_to(data, &mut out);
        out
    }

    /// Compresses `data`, appending the complete stream to `out` in place:
    /// the writer adopts the vector (a container's header may already be
    /// there) and hands it back, so framing costs no second buffer.
    pub fn compress_to(&self, data: &[u8], out: &mut Vec<u8>) {
        let mut w = BitWriter::from_vec(std::mem::take(out));
        self.compress_into(&mut w, data);
        *out = w.finish();
    }

    /// Compresses `data`, appending the stream to an existing writer.
    pub fn compress_into(&self, w: &mut BitWriter, data: &[u8]) {
        if data.len() <= THREAD_SCRATCH_MAX || self.level.get() == 0 {
            // Up to a window or two the thread lends its token buffer as
            // well as its matcher: the request allocates its output only.
            // (Level 0 stores without either.)
            lz77::with_thread_tokenizer(|tok| self.encode_chunk(w, &[], data, tok, None, true));
        } else {
            // Larger inputs on a fresh matcher (see `deflate_tokens_with`)
            // and a token buffer of one block.
            let parts = (&mut Hash4Matcher::new(), &mut Vec::new(), &mut Vec::new());
            self.encode_chunk(w, &[], data, parts, None, true);
        }
    }

    /// The one encode body of every entry point — this one-shot encoder,
    /// [`StreamEncoder`], the dictionary encoder and a canned request
    /// ([`crate::deflate_canned_into`]). Tokenizes `chunk` behind `history`
    /// (at most one window, staged before it) on the caller's matcher (fresh,
    /// reset, or holding `history`'s [`DictImage`](lz77::hash4::DictImage))
    /// into the one block sink ([`Blocks`]) on the token buffer, which writes
    /// each block as it closes, through `canned`'s tables where they fit, the
    /// last one final if `last`. A large batch-matcher chunk on a budget emits
    /// them behind the parse ([`emit_behind`]). Level 0 stores it.
    pub(crate) fn encode_chunk(
        &self,
        w: &mut BitWriter,
        history: &[u8],
        chunk: &[u8],
        (m, tokens, staging): lz77::Parts<'_>,
        canned: Option<&Profile>,
        last: bool,
    ) {
        let level = self.level.get();
        if level == 0 {
            return encode_stored(w, chunk, last);
        }
        let (input, start) = if history.is_empty() {
            (chunk, 0)
        } else {
            staging.clear();
            staging.reserve(history.len() + chunk.len());
            staging.extend_from_slice(history);
            staging.extend_from_slice(chunk);
            (&staging[..], history.len())
        };
        if let Some(claim) = self.claim_behind(chunk.len()) {
            let route = (claim, emit_blocks as Emitter);
            emit_behind(self, w, input, start, (&mut *m, tokens), route, last);
            return flush_search_stats(m.take_stats());
        }
        let ladder = Ladder::new(self, w, chunk);
        match canned {
            Some(profile) => {
                let canned = Canned {
                    ladder,
                    profile,
                    head: 0,
                    pending: (0, 0),
                };
                self.encode_into(input, start, m, tokens, canned, last);
            }
            None => self.encode_into(input, start, m, tokens, ladder, last),
        }
    }

    /// Parses `data[start..]` into a block sink on the buffer `tokens` that
    /// emits through `emit`, then closes it, the last block final if `last`.
    fn encode_into<E: Emit>(
        &self,
        data: &[u8],
        start: usize,
        m: &mut Hash4Matcher,
        tokens: &mut Vec<Token>,
        emit: E,
        last: bool,
    ) {
        let mut blocks = Blocks::new(emit, take(tokens), data.len() - start);
        let (level, workers) = (self.level.get(), self.workers.as_ref());
        lz77::hash4::tokenize_into_on(data, start, level, self.engine, workers, m, &mut blocks);
        *tokens = blocks.close(last);
    }

    /// The one helper a batch-matcher parse (`Auto` 1–3, `Speculative`) of
    /// at least two [`SEGMENT_MIN`]s of new bytes runs its emission on, if
    /// its budget has one free. That parse does not split, so its helper
    /// emits instead.
    fn claim_behind(&self, new_bytes: usize) -> Option<Claim> {
        let batch = self.engine.speculative_at(self.level.get());
        let budget = self
            .workers
            .as_ref()
            .filter(|_| batch && new_bytes >= 2 * SEGMENT_MIN)?;
        Some(budget.claim(2)).filter(|c| c.granted() == 1)
    }
}

/// Blocks the parse may have out before it waits for a buffer back. More
/// buffers live beside the growing output left more heap unreturned.
const IN_FLIGHT: usize = 2;

/// The emitter's side of [`emit_behind`]: what its helper runs. Returns the
/// blocks it wrote.
type Emitter = fn(Ladder<'_>, Receiver<(Block, bool)>, Sender<Block>) -> usize;

/// Writes each block handed over, final if it comes marked so, and hands its
/// buffers back, until the parse hangs up.
fn emit_blocks(mut out: Ladder<'_>, blocks: Receiver<(Block, bool)>, back: Sender<Block>) -> usize {
    let mut written = 0;
    for (mut block, last) in blocks {
        out.block(&mut block, last);
        written += 1;
        // The parse may have stopped taking buffers back.
        let _ = back.send(block);
    }
    written
}

/// The emit-behind route: `data[start..]` parses on the caller into a block
/// sink that hands each closed block ([`Behind`]) to the emitter on
/// `claim`'s helper, which writes it into `w`, the caller's own writer
/// (mid-byte or not): the serial blocks, cut by the one rule. The caller
/// waits only while [`IN_FLIGHT`] blocks are out. Returns the blocks written,
/// or `None` if the emitter died: then `w` is cut back to where it stood, and
/// the serial body runs on `m` (reset, its counters dropped) and `tokens`.
/// The parse's counters stay in `m`.
fn emit_behind(
    enc: &Encoder,
    w: &mut BitWriter,
    data: &[u8],
    start: usize,
    (m, tokens): (&mut Hash4Matcher, &mut Vec<Token>),
    (claim, emit): (Claim, Emitter),
    last: bool,
) -> Option<usize> {
    let (entry, level, chunk) = (w.bit_len(), enc.level.get(), &data[start..]);
    let ((to, blocks), (back, spares)) = (channel(), channel());
    for _ in 0..IN_FLIGHT {
        let mut spare = Block::default();
        spare.tokens.reserve(MAX_BLOCK_TOKENS.min(chunk.len()));
        let _ = back.send(spare);
    }
    let (buffer, emitted) = claim.run(
        [(Ladder::new(enc, &mut *w, chunk), blocks, back)],
        |(out, blocks, back)| emit(out, blocks, back),
        || {
            let mut blocks = Blocks::new(Behind { to, spares }, take(tokens), chunk.len());
            parse(data, start, level, enc.engine, m, &mut blocks);
            blocks.close(last) // and hangs up: the emitter ends
        },
    );
    *tokens = buffer;
    if emitted[0].is_some() {
        return emitted[0];
    }
    w.truncate(entry);
    m.reset();
    m.take_stats();
    let mut blocks = Blocks::new(Ladder::new(enc, w, chunk), take(tokens), chunk.len());
    parse(data, start, level, enc.engine, m, &mut blocks);
    *tokens = blocks.close(last);
    None
}

/// The one block sink, where an encode's parse pushes each token as it makes
/// it. A push counts the token in the open block's histogram, token count and
/// input span, and closes the block by the one cut rule ([`MAX_BLOCK_TOKENS`]
/// / [`MAX_BLOCK_BYTES`]) once a further token arrives, so only
/// [`close`](Self::close) knows the last block. An encode holds one block of
/// tokens. `E` takes the tokens and the closed blocks: [`Ladder`],
/// [`Canned`] or [`Behind`].
pub(crate) struct Blocks<E> {
    emit: E,
    open: Block,
}

/// A block's tokens, their histogram, and the input they cover:
/// `start..start + span` of the encode's new bytes.
#[derive(Default)]
pub(crate) struct Block {
    tokens: Vec<Token>,
    hist: Histogram,
    start: usize,
    span: usize,
}

/// What becomes of a [`Blocks`] sink's tokens and blocks.
pub(crate) trait Emit {
    /// Takes each token as it is pushed.
    #[inline(always)]
    fn token(&mut self, _: Token) {}

    /// Takes a closed block (end-of-block counted), the last if `last`. It
    /// may leave another block's buffers in its place.
    fn block(&mut self, block: &mut Block, last: bool);

    /// Opens a block: the first, and each after a cut.
    fn open(&mut self) {}
}

impl<E: Emit> Blocks<E> {
    /// A sink emitting through `emit`, on the token buffer `tokens` reserved
    /// for one block of an encode of `new_bytes`.
    fn new(mut emit: E, mut tokens: Vec<Token>, new_bytes: usize) -> Self {
        tokens.clear();
        tokens.reserve(MAX_BLOCK_TOKENS.min(new_bytes));
        emit.open();
        let open = Block {
            tokens,
            ..Block::default()
        };
        Self { emit, open }
    }

    /// Closes the open block, which is full: a further token has arrived.
    #[inline(never)]
    fn cut(&mut self) {
        let next = self.open.start + self.open.span;
        self.open.hist.record_end_of_block();
        self.emit.block(&mut self.open, false);
        self.open.tokens.clear();
        (self.open.hist, self.open.start, self.open.span) = (Histogram::new(), next, 0);
        self.emit.open();
    }

    /// Closes the open block, final if `last` (without a token pushed: the
    /// empty stream, if `last`), and hands back the token buffer.
    fn close(mut self, last: bool) -> Vec<Token> {
        self.open.hist.record_end_of_block();
        self.emit.block(&mut self.open, last);
        self.open.tokens
    }
}

impl<E: Emit> Sink for Blocks<E> {
    #[inline(always)]
    fn push(&mut self, t: Token) {
        if self.open.tokens.len() >= MAX_BLOCK_TOKENS || self.open.span >= MAX_BLOCK_BYTES {
            self.cut();
        }
        self.open.tokens.push(t);
        self.open.hist.record(t);
        self.open.span += t.input_len();
        self.emit.token(t);
    }
}

/// A ladder encode's [`Emit`]: each closed block goes to the one block
/// decision, with the input it covers. A close without a token writes the
/// empty stream's final block, or nothing if more follows.
pub(crate) struct Ladder<'a> {
    w: &'a mut BitWriter,
    data: &'a [u8],
    rung: Level,
}

impl<'a> Ladder<'a> {
    /// The blocks of `enc`'s encode of the new bytes `data`, into `w`.
    fn new(enc: &Encoder, w: &'a mut BitWriter, data: &'a [u8]) -> Self {
        let rung = Level::from_numeric(enc.level.get());
        Self { w, data, rung }
    }
}

impl Emit for Ladder<'_> {
    fn block(&mut self, b: &mut Block, last: bool) {
        if !b.tokens.is_empty() {
            let stored = &self.data[b.start..b.start + b.span];
            choose_and_encode_block(self.w, stored, &b.tokens, &b.hist, last, self.rung);
        } else if last {
            encode_fixed_block(self.w, &[], true);
        }
    }
}

/// A canned encode's [`Emit`], in one pass: each block opens with the
/// profile's rendered header, BFINAL clear, and each token is written through
/// the profile's tables as it is pushed. At the close the histogram prices
/// the block ([`Profile::fits`]): kept, it gets BFINAL if it is the last; a
/// misfit is cut back to its header and goes to the one block decision.
pub(crate) struct Canned<'a> {
    ladder: Ladder<'a>,
    profile: &'a Profile,
    /// Where the open block's header starts.
    head: u64,
    /// Literal bits not written yet ([`EmitTables::put`]).
    pending: (u64, u32),
}

impl Emit for Canned<'_> {
    #[inline(always)]
    fn token(&mut self, t: Token) {
        self.profile.tables.put(self.ladder.w, &mut self.pending, t);
    }

    fn block(&mut self, b: &mut Block, last: bool) {
        let w = &mut *self.ladder.w;
        self.profile.tables.end(w, take(&mut self.pending));
        if !b.tokens.is_empty() && self.profile.fits(&b.hist) {
            BLOCKS_DYNAMIC.fetch_add(1, Ordering::Relaxed);
            if last {
                w.set_bit(self.head);
            }
        } else {
            w.truncate(self.head);
            self.ladder.block(b, last);
        }
    }

    fn open(&mut self) {
        self.head = self.ladder.w.bit_len();
        self.profile.header.write(self.ladder.w);
    }
}

/// The emit-behind route's [`Emit`], on the parse's side: each closed block
/// goes to the emitter, marked last or not, for a spare it handed back. Once
/// the emitter is gone, blocks are dropped (the route falls back).
struct Behind {
    to: Sender<(Block, bool)>,
    spares: Receiver<Block>,
}

impl Emit for Behind {
    fn block(&mut self, b: &mut Block, last: bool) {
        if let Ok(spare) = self.spares.recv() {
            let _ = self.to.send((std::mem::replace(b, spare), last));
        }
    }
}

/// Emits `bytes` as one or more stored (type 0) blocks, flagging the last
/// one as final if `is_final`. Handles the 65 535-byte LEN limit and the
/// empty-input case (one empty stored block).
pub fn encode_stored(w: &mut BitWriter, bytes: &[u8], is_final: bool) {
    if bytes.is_empty() {
        encode_stored_block(w, &[], is_final);
        return;
    }
    let mut chunks = bytes.chunks(MAX_STORED_BLOCK).peekable();
    while let Some(c) = chunks.next() {
        let last = chunks.peek().is_none();
        encode_stored_block(w, c, is_final && last);
    }
}

/// Emits exactly one stored block (`bytes.len() <= 65535`).
///
/// # Panics
///
/// Panics if `bytes` exceeds the stored-block LEN field.
pub fn encode_stored_block(w: &mut BitWriter, bytes: &[u8], is_final: bool) {
    assert!(bytes.len() <= MAX_STORED_BLOCK, "stored block too large");
    BLOCKS_STORED.fetch_add(1, Ordering::Relaxed);
    w.write_bits(u64::from(is_final), 1);
    w.write_bits(0b00, 2); // BTYPE=00
    w.align_to_byte();
    let len = bytes.len() as u16;
    w.write_bytes(&len.to_le_bytes());
    w.write_bytes(&(!len).to_le_bytes());
    w.write_bytes(bytes);
}

/// The fixed literal/length code lengths of RFC 1951 §3.2.6.
pub const fn fixed_litlen_lengths() -> [u8; NUM_LITLEN_SYMBOLS] {
    let mut l = [8u8; NUM_LITLEN_SYMBOLS];
    let mut i = 144;
    while i < 280 {
        l[i] = if i < 256 { 9 } else { 7 };
        i += 1;
    }
    l
}

/// The fixed distance code lengths (all 5 bits, including the two reserved
/// symbols).
pub const fn fixed_dist_lengths() -> [u8; NUM_DIST_SYMBOLS] {
    [5u8; NUM_DIST_SYMBOLS]
}

pub(crate) const FIXED_LITLEN: [u8; NUM_LITLEN_SYMBOLS] = fixed_litlen_lengths();
pub(crate) const FIXED_DIST: [u8; NUM_DIST_SYMBOLS] = fixed_dist_lengths();

/// Exact body bits (every counted symbol's code plus its extra bits) of
/// `hist` under the given code lengths: four dot products, no branch per
/// symbol (a walk over the used symbols read 1.8x slower on 1 KiB blocks).
fn body_bits(hist: &Histogram, litlen: &[u8], dist: &[u8]) -> u64 {
    fn dot(freqs: &[u32], bits: &[u8]) -> u64 {
        let each = freqs.iter().zip(bits);
        each.map(|(&f, &b)| u64::from(f) * u64::from(b)).sum()
    }
    dot(&hist.litlen, litlen)
        + dot(&hist.litlen[257..], &LENGTH_EXTRA)
        + dot(&hist.dist, dist)
        + dot(&hist.dist, &DIST_EXTRA)
}

/// Fused emission tables, built once per block straight from the code
/// lengths, so the body loop does one table load per alphabet and at most
/// one `write_bits` per token:
///
/// * `lit[b]` packs a literal's Huffman code as `bits << 4 | len`;
/// * `len_sym[len - 3]` packs a match length's Huffman code *already
///   merged with its extra-bits value* as `merged << 5 | total_bits`
///   (code ≤ 15 bits + extra ≤ 5 bits = 20 ≤ 27 payload bits);
/// * `dist_sym[code]` packs a distance code as `bits << 4 | len` (the
///   distance extra value depends on the token and is OR-ed in last).
///
/// A symbol without a code keeps a zero entry (so only the match lengths of
/// used length codes are filled). A match is at most 15 + 5 + 15 + 13 = 48
/// bits, within the writer's 57.
#[derive(Debug, Clone)]
pub(crate) struct EmitTables {
    lit: [u32; 256],
    len_sym: [u32; 256],
    dist_sym: [u32; NUM_DIST_SYMBOLS],
    pub(crate) eob: Code,
}

impl EmitTables {
    /// Walks the plan's coded symbols in order (its bitmaps: the two
    /// reserved literal/length symbols get no entry) handing out canonical
    /// codes from `litlen_first` / `dist_first` (see [`first_codes`]).
    fn build(plan: &DynamicPlan) -> Self {
        let mut t = EmitTables {
            lit: [0; 256],
            len_sym: [0; 256],
            dist_sym: [0; NUM_DIST_SYMBOLS],
            eob: Code::default(),
        };
        let packed = |c: Code| u32::from(c.bits) << 4 | u32::from(c.len);
        let (litlen, mut next) = (&plan.litlen_lengths, plan.litlen_first);
        plan.litlen_used.each(|s| {
            let len = litlen[s];
            if s < 256 {
                t.lit[s] = packed(next_code(&mut next, len));
            } else if s == 256 {
                t.eob = next_code(&mut next, len);
            } else if s < 286 {
                let c = next_code(&mut next, len);
                // Code 284 stops one short of its 5 extra bits: 258 is code 285.
                let li = s - 257;
                let base = LENGTH_BASE[li];
                let end = LENGTH_BASE.get(li + 1).copied().unwrap_or(259);
                let total = u32::from(len) + u32::from(LENGTH_EXTRA[li]);
                for l in base..end {
                    let merged = u32::from(c.bits) | u32::from(l - base) << len;
                    t.len_sym[usize::from(l - 3)] = merged << 5 | total;
                }
            }
        });
        let mut next = plan.dist_first;
        let dist = &plan.dist_lengths;
        plan.dist_used
            .each(|s| t.dist_sym[s] = packed(next_code(&mut next, dist[s])));
        t
    }

    /// Writes a block body: every token, then end-of-block.
    pub(crate) fn write_body(&self, w: &mut BitWriter, tokens: &[Token]) {
        let mut pending = (0, 0);
        tokens.iter().for_each(|&t| self.put(w, &mut pending, t));
        self.end(w, pending);
    }

    /// The one per-token encode step. A match is one `write_bits` call;
    /// literals (15 bits at most) gather in `pending` and go out three or
    /// more to a call -- when a fourth might not fit, and before a match. A
    /// symbol without a code writes no bits of its own: a canned block that
    /// has one is a misfit, and is cut from the writer.
    #[inline(always)]
    pub(crate) fn put(&self, w: &mut BitWriter, (acc, n): &mut (u64, u32), token: Token) {
        match token {
            Token::Literal(b) => {
                let e = self.lit[usize::from(b)];
                *acc |= u64::from(e >> 4) << *n;
                *n += e & 15;
                if *n > 57 - 15 {
                    w.write_bits(*acc, *n);
                    (*acc, *n) = (0, 0);
                }
            }
            Token::Match { len, dist: d } => {
                w.write_bits(*acc, *n);
                let le = self.len_sym[usize::from(len - 3)];
                let (mut word, mut bits) = (u64::from(le >> 5), le & 31);
                let di = dist_code(d);
                let de = self.dist_sym[di];
                word |= u64::from(de >> 4) << bits;
                bits += de & 15;
                word |= u64::from(d - DIST_BASE[di]) << bits;
                w.write_bits(word, bits + u32::from(DIST_EXTRA[di]));
                (*acc, *n) = (0, 0);
            }
        }
    }

    /// Writes end-of-block behind the literal bits `pending` holds (at most
    /// 42: the code fits).
    pub(crate) fn end(&self, w: &mut BitWriter, (acc, n): (u64, u32)) {
        w.write_bits(
            acc | u64::from(self.eob.bits) << n,
            n + u32::from(self.eob.len),
        );
    }
}

/// Fixed-code emission tables: they never change, so build once per process
/// (RFC 1951 §3.2.6 constants: a complete code by definition).
pub(crate) fn fixed_emit_tables() -> &'static EmitTables {
    static TABLES: OnceLock<EmitTables> = OnceLock::new();
    TABLES.get_or_init(|| DynamicPlan::from_lengths(&FIXED_LITLEN, &FIXED_DIST).emit_tables())
}

/// Emits one fixed-Huffman (type 1) block containing `tokens`.
pub fn encode_fixed_block(w: &mut BitWriter, tokens: &[Token], is_final: bool) {
    BLOCKS_FIXED.fetch_add(1, Ordering::Relaxed);
    w.write_bits(u64::from(is_final) | 0b01 << 1, 3); // BFINAL, BTYPE=01
    fixed_emit_tables().write_body(w, tokens);
}

/// Order in which code-length code lengths are transmitted (RFC 1951).
pub const CODELEN_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// One instruction of the run-length-coded header: a symbol of the
/// code-length alphabet (0..=15 a code length, 16 repeat the previous one
/// 3–6 times, 17 / 18 a run of 3–10 / 11–138 zeros) and the value of the
/// extra bits behind it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ClSym {
    pub(crate) sym: u8,
    extra: u8,
}

impl ClSym {
    /// How many extra bits follow the symbol.
    fn extra_bits(self) -> u32 {
        [0, 2, 3, 7][usize::from(self.sym).saturating_sub(15)]
    }
}

/// Most instructions a header can hold: one per transmitted code length.
const MAX_CL_SYMS: usize = NUM_LITLEN_SYMBOLS + NUM_DIST_SYMBOLS;

/// Run-length encodes `lengths` into code-length-alphabet instructions,
/// written to the front of `out`; returns how many.
fn rle_code_lengths(lengths: &[u8], out: &mut [ClSym; MAX_CL_SYMS]) -> usize {
    let mut n = 0usize;
    let mut push = |sym: u8, extra: usize| {
        out[n] = ClSym {
            sym,
            extra: extra as u8,
        };
        n += 1;
    };
    let mut i = 0usize;
    while i < lengths.len() {
        let v = lengths[i];
        let mut left = lengths[i..].iter().take_while(|&&l| l == v).count();
        i += left;
        if v != 0 {
            // A repeat needs a length in front of it to repeat.
            push(v, 0);
            left -= 1;
        }
        while left >= 3 {
            let (sym, least, most) = match v {
                0 if left >= 11 => (18, 11, 138),
                0 => (17, 3, 10),
                _ => (16, 3, 6),
            };
            let take = left.min(most);
            push(sym, take - least);
            left -= take;
        }
        (0..left).for_each(|_| push(v, 0));
    }
    n
}

/// The fully planned dynamic block header + code tables: a plain
/// fixed-size value (about 1 KB), built on the stack with no allocation.
///
/// Building the plan is separated from writing it so callers (the block
/// chooser here, and the accelerator's cycle model) can obtain exact bit
/// costs before committing. The leaves, HLIT / HDIST and the emit tables
/// walk the used symbols one pass per alphabet marks, not the alphabet.
#[derive(Debug, Clone)]
pub struct DynamicPlan {
    litlen_lengths: [u8; NUM_LITLEN_SYMBOLS],
    dist_lengths: [u8; NUM_DIST_SYMBOLS],
    /// The symbols with a code: the nonzero lengths.
    litlen_used: Used,
    dist_used: Used,
    /// What validating (or building) the lengths leaves behind, and all
    /// [`EmitTables::build`] needs besides them.
    litlen_first: FirstCodes,
    dist_first: FirstCodes,
    cl_lengths: [u8; 19],
    cl_first: FirstCodes,
    /// The run-length-coded lengths are `cl_syms[..cl_count]`.
    cl_syms: [ClSym; MAX_CL_SYMS],
    cl_count: usize,
    hlit: usize,
    hdist: usize,
    hclen: usize,
    header_bits: u64,
}

impl DynamicPlan {
    /// Plans dynamic-Huffman tables for the given histogram.
    ///
    /// The histogram must already include the end-of-block symbol. At least
    /// two codes are forced into each alphabet (zlib does the same) so the
    /// emitted trees are always complete and interoperable.
    pub fn from_histogram(hist: &Histogram) -> Self {
        let (mut litlen_used, mut dist_used) = (Used::of(&hist.litlen), Used::of(&hist.dist));
        litlen_used.force_two();
        dist_used.force_two();
        let mut litlen = [0u8; NUM_LITLEN_SYMBOLS];
        let mut dist = [0u8; NUM_DIST_SYMBOLS];
        let litlen_counts =
            used_lengths_into::<MAX_SYMBOLS>(&hist.litlen, &litlen_used, MAX_CODE_LEN, &mut litlen);
        let dist_counts =
            used_lengths_into::<SMALL_SYMBOLS>(&hist.dist, &dist_used, MAX_CODE_LEN, &mut dist);
        Self::plan(
            (litlen, litlen_used, first_codes_of(&litlen_counts)),
            (dist, dist_used, first_codes_of(&dist_counts)),
        )
    }

    /// Plans a block around externally supplied code lengths — the
    /// "canned DHT" path, where a precomputed table is transmitted instead
    /// of one generated from the block's own statistics.
    ///
    /// The lengths must describe valid (non-oversubscribed) codes; symbols
    /// the block uses must have nonzero lengths or
    /// [`write_body`](Self::write_body) will panic.
    ///
    /// # Panics
    ///
    /// Panics if the lengths exceed the DEFLATE limits (15 bits, 288 / 32
    /// symbols) or oversubscribe the code space.
    pub fn from_lengths(litlen: &[u8], dist: &[u8]) -> Self {
        let mut litlen_lengths = [0u8; NUM_LITLEN_SYMBOLS];
        let mut dist_lengths = [0u8; NUM_DIST_SYMBOLS];
        litlen_lengths[..litlen.len()].copy_from_slice(litlen);
        dist_lengths[..dist.len()].copy_from_slice(dist);
        let first = |l: &[u8]| match first_codes(l) {
            Ok(first) => first,
            Err(e) => panic!("invalid code lengths for dynamic plan: {e:?}"),
        };
        let (litlen_first, dist_first) = (first(&litlen_lengths), first(&dist_lengths));
        let (litlen_used, dist_used) = (Used::of(&litlen_lengths), Used::of(&dist_lengths));
        Self::plan(
            (litlen_lengths, litlen_used, litlen_first),
            (dist_lengths, dist_used, dist_first),
        )
    }

    /// The header around valid code lengths, each alphabet given with its
    /// coded symbols and first codes.
    fn plan(
        (litlen_lengths, litlen_used, litlen_first): ([u8; NUM_LITLEN_SYMBOLS], Used, FirstCodes),
        (dist_lengths, dist_used, dist_first): ([u8; NUM_DIST_SYMBOLS], Used, FirstCodes),
    ) -> Self {
        let (hlit, hdist) = (litlen_used.end().max(257), dist_used.end().max(1));

        // One run-length pass over both alphabets: a run may cross from the
        // literal/length lengths into the distance lengths. (Its cost is a
        // branch per run; walking the used symbols' gaps read no faster.)
        let mut combined = [0u8; MAX_CL_SYMS];
        combined[..hlit].copy_from_slice(&litlen_lengths[..hlit]);
        combined[hlit..hlit + hdist].copy_from_slice(&dist_lengths[..hdist]);
        let mut cl_syms = [ClSym::default(); MAX_CL_SYMS];
        let cl_count = rle_code_lengths(&combined[..hlit + hdist], &mut cl_syms);

        let mut cl_freq = [0u32; 19];
        for s in &cl_syms[..cl_count] {
            cl_freq[usize::from(s.sym)] += 1;
        }
        let cl_used = Used::of(&cl_freq);
        let mut cl_lengths = [0u8; 19];
        let mut cl_counts = used_lengths_into::<SMALL_SYMBOLS>(
            &cl_freq,
            &cl_used,
            MAX_CODELEN_CODE_LEN,
            &mut cl_lengths,
        );
        // A single used symbol yields an incomplete 1-bit code, which
        // inflate implementations accept for this alphabet; force two codes
        // anyway, for maximum compatibility.
        if cl_used.count == 1 {
            cl_lengths[usize::from(cl_lengths[0] > 0)] = 1;
            cl_counts[1] = 2;
        }
        let hclen =
            (CODELEN_ORDER.iter().rposition(|&s| cl_lengths[s] > 0)).map_or(4, |p| (p + 1).max(4));

        let mut header_bits = 3 + 5 + 5 + 4 + 3 * hclen as u64; // BFINAL+BTYPE, HLIT, HDIST, HCLEN
        for s in &cl_syms[..cl_count] {
            header_bits += u64::from(cl_lengths[usize::from(s.sym)]) + u64::from(s.extra_bits());
        }
        Self {
            litlen_lengths,
            dist_lengths,
            litlen_used,
            dist_used,
            litlen_first,
            dist_first,
            cl_lengths,
            cl_first: first_codes_of(&cl_counts),
            cl_syms,
            cl_count,
            hlit,
            hdist,
            hclen,
            header_bits,
        }
    }

    /// Exact size in bits of the header (from BFINAL through the code-length
    /// stream).
    pub fn header_bits(&self) -> u64 {
        self.header_bits
    }

    /// Exact size in bits of the body for `hist` (tokens + end-of-block),
    /// excluding the header.
    pub fn body_bits(&self, hist: &Histogram) -> u64 {
        body_bits(hist, &self.litlen_lengths, &self.dist_lengths)
    }

    /// Writes the block header (BFINAL, BTYPE=10, table description).
    pub fn write_header(&self, w: &mut BitWriter, is_final: bool) {
        BLOCKS_DYNAMIC.fetch_add(1, Ordering::Relaxed);
        self.render_header(w, is_final);
    }

    /// The header's bits, a few fields to a `write_bits` call.
    fn render_header(&self, w: &mut BitWriter, is_final: bool) {
        let mut acc = u64::from(is_final) | 0b10 << 1;
        acc |= (self.hlit as u64 - 257) << 3 | (self.hdist as u64 - 1) << 8;
        w.write_bits(acc | (self.hclen as u64 - 4) << 13, 17);
        let (mut acc, mut n) = (0u64, 0u32);
        for &s in CODELEN_ORDER.iter().take(self.hclen) {
            acc |= u64::from(self.cl_lengths[s]) << n;
            n += 3;
        }
        w.write_bits(acc, n); // at most 19 x 3 = 57 bits
        let (mut next, mut codes) = (self.cl_first, [Code::default(); 19]);
        for (code, &len) in codes.iter_mut().zip(&self.cl_lengths) {
            if len > 0 {
                *code = next_code(&mut next, len);
            }
        }
        // A code-length symbol is at most 7 + 7 bits: four to a call.
        for four in self.cl_syms[..self.cl_count].chunks(4) {
            let (mut acc, mut n) = (0u64, 0u32);
            for s in four {
                let c = codes[usize::from(s.sym)];
                debug_assert!(c.len > 0, "emitting unused code-length symbol");
                acc |= (u64::from(c.bits) | u64::from(s.extra) << c.len) << n;
                n += u32::from(c.len) + s.extra_bits();
            }
            w.write_bits(acc, n);
        }
    }

    /// Renders the header once, for a plan that outlives its block (a
    /// canned profile's).
    pub(crate) fn rendered_header(&self) -> RenderedHeader {
        let mut w = BitWriter::new();
        self.render_header(&mut w, false);
        let word = |seven: &[u8]| {
            let mut le = [0u8; 8];
            le[..seven.len()].copy_from_slice(seven);
            u64::from_le_bytes(le)
        };
        RenderedHeader {
            bits: self.header_bits,
            words: w.finish().chunks(7).map(word).collect(),
        }
    }

    /// Writes the block body — all `tokens` then end-of-block — through
    /// freshly fused `EmitTables` (one `write_bits` per token).
    pub fn write_body(&self, w: &mut BitWriter, tokens: &[Token]) {
        self.emit_tables().write_body(w, tokens);
    }

    /// Fuses this plan's codes into [`EmitTables`] — once per block; the
    /// canned-profile path keeps the result with the profile.
    pub(crate) fn emit_tables(&self) -> EmitTables {
        EmitTables::build(self)
    }

    /// The planned literal/length code lengths (for inspection/tests).
    pub fn litlen_lengths(&self) -> &[u8] {
        &self.litlen_lengths
    }

    /// The planned distance code lengths (for inspection/tests).
    pub fn dist_lengths(&self) -> &[u8] {
        &self.dist_lengths
    }
}

/// A block header that never changes (a canned profile's), rendered once:
/// the bits [`DynamicPlan::write_header`] writes, 56 to a word, BFINAL clear
/// (a block sink sets it once it knows the block is the last).
#[derive(Debug, Clone)]
pub(crate) struct RenderedHeader {
    words: Vec<u64>,
    pub(crate) bits: u64,
}

impl RenderedHeader {
    /// Replays the header, BFINAL clear: a dozen `write_bits` calls where
    /// deriving it takes a hundred.
    pub(crate) fn write(&self, w: &mut BitWriter) {
        let mut left = self.bits as u32;
        for &word in &self.words {
            w.write_bits(word, left.min(56));
            left = left.saturating_sub(56);
        }
    }
}

/// Emits one dynamic-Huffman (type 2) block containing `tokens`.
pub fn encode_dynamic_block(w: &mut BitWriter, tokens: &[Token], is_final: bool) {
    let plan = DynamicPlan::from_histogram(&Histogram::of(tokens));
    plan.write_header(w, is_final);
    plan.write_body(w, tokens);
}

/// Exact bit cost of encoding `tokens` with the fixed tables (including
/// the 3-bit block header and end-of-block).
pub fn fixed_block_bits(hist: &Histogram) -> u64 {
    3 + body_bits(hist, &FIXED_LITLEN, &FIXED_DIST)
}

/// The one block decision (zlib's `_tr_flush_block`): emits `tokens` as
/// whichever of stored, fixed or dynamic is smallest by exact bit cost, from
/// their histogram (end-of-block included), and counts the block under
/// `rung`. `stored` is the input the tokens cover.
pub fn choose_and_encode_block(
    w: &mut BitWriter,
    stored: &[u8],
    tokens: &[Token],
    hist: &Histogram,
    is_final: bool,
    rung: Level,
) {
    BLOCKS_BY_LEVEL[rung.index()].fetch_add(1, Ordering::Relaxed);
    let plan = DynamicPlan::from_histogram(hist);
    let dynamic_bits = plan.header_bits() + plan.body_bits(hist);
    let fixed_bits = fixed_block_bits(hist);
    // Stored: alignment padding (≤7) + per-chunk 5-byte headers + payload.
    let chunks = stored.len().div_ceil(MAX_STORED_BLOCK).max(1) as u64;
    if 7 + chunks * (3 + 32 + 4) + stored.len() as u64 * 8 < dynamic_bits.min(fixed_bits) {
        encode_stored(w, stored, is_final);
    } else if fixed_bits <= dynamic_bits {
        encode_fixed_block(w, tokens, is_final);
    } else {
        plan.write_header(w, is_final);
        plan.write_body(w, tokens);
    }
}

#[cfg(test)]
/// The plan as it stood before issue 24 -- `Vec` fields, three
/// `canonical_codes` vectors, a second table packed from them per block --
/// kept verbatim (but for the histogram's field types and `extra`'s return
/// type, which moved) as the oracle [`reference::diff_plan`] diffs against;
/// and what the canned path's parent block loop
/// (`profile::reference::emit_canned_blocks`) called, verbatim.
pub(crate) mod reference {
    use super::{
        dist_code, encode_fixed_block, encode_stored, fixed_block_bits, fixed_dist_lengths,
        fixed_litlen_lengths, BitWriter, Code, DynamicPlan as Plan, EmitTables, Histogram, Level,
        Token, BLOCKS_BY_LEVEL, CODELEN_ORDER, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA,
        MAX_CODELEN_CODE_LEN, MAX_CODE_LEN, MAX_STORED_BLOCK,
    };
    use crate::huffman::build::reference::parent as build;
    use crate::huffman::canonical_codes;
    use crate::lz77::DIST_BASE;
    use stack::force_min_codes;
    use std::sync::atomic::Ordering;

    /// The plan, its emit tables and its prices as they stood before the
    /// used-symbol bitmaps: every step a walk over the whole alphabet, the
    /// lengths from the parent stack builder, the first codes validated.
    /// Verbatim, but for `parent_build`'s name, the dynamic-block counter
    /// the header writer no longer bumps, and `force_min_codes` made
    /// visible to the older plan above.
    #[allow(dead_code)]
    pub(crate) mod stack {
        use crate::bitio::BitWriter;
        use crate::encoder::{
            ClSym, EmitTables, RenderedHeader, CODELEN_ORDER, FIXED_DIST, FIXED_LITLEN, MAX_CL_SYMS,
        };
        use crate::huffman::build::reference::stack as build;
        use crate::huffman::{
            first_codes, next_code, Code, FirstCodes, MAX_CODELEN_CODE_LEN, MAX_CODE_LEN,
        };
        use crate::lz77::{
            Histogram, Token, DIST_EXTRA, LENGTH_BASE, LENGTH_EXTRA, NUM_DIST_SYMBOLS,
            NUM_LITLEN_SYMBOLS,
        };

        /// Exact body bits (every counted symbol's code plus its extra bits) of
        /// `hist` under the given code lengths: four dot products, no branch per
        /// symbol.
        fn body_bits(hist: &Histogram, litlen: &[u8], dist: &[u8]) -> u64 {
            fn dot(freqs: &[u32], bits: &[u8]) -> u64 {
                let each = freqs.iter().zip(bits);
                each.map(|(&f, &b)| u64::from(f) * u64::from(b)).sum()
            }
            dot(&hist.litlen, litlen)
                + dot(&hist.litlen[257..], &LENGTH_EXTRA)
                + dot(&hist.dist, dist)
                + dot(&hist.dist, &DIST_EXTRA)
        }

        impl EmitTables {
            /// Walks both alphabets in symbol order handing out canonical codes
            /// from `next` / `dist_next` (see [`first_codes`]).
            fn parent_build(
                litlen: &[u8; NUM_LITLEN_SYMBOLS],
                mut next: FirstCodes,
                dist: &[u8; NUM_DIST_SYMBOLS],
                mut dist_next: FirstCodes,
            ) -> Self {
                let mut t = EmitTables {
                    lit: [0; 256],
                    len_sym: [0; 256],
                    dist_sym: [0; NUM_DIST_SYMBOLS],
                    eob: Code::default(),
                };
                let packed = |c: Code| u32::from(c.bits) << 4 | u32::from(c.len);
                for (slot, &len) in t.lit.iter_mut().zip(&litlen[..256]) {
                    if len > 0 {
                        *slot = packed(next_code(&mut next, len));
                    }
                }
                if litlen[256] > 0 {
                    t.eob = next_code(&mut next, litlen[256]);
                }
                for (li, &len) in litlen[257..286].iter().enumerate() {
                    if len == 0 {
                        continue;
                    }
                    let c = next_code(&mut next, len);
                    // Code 284 stops one short of its 5 extra bits: 258 is code 285.
                    let base = LENGTH_BASE[li];
                    let end = LENGTH_BASE.get(li + 1).copied().unwrap_or(259);
                    let total = u32::from(len) + u32::from(LENGTH_EXTRA[li]);
                    for l in base..end {
                        let merged = u32::from(c.bits) | u32::from(l - base) << len;
                        t.len_sym[usize::from(l - 3)] = merged << 5 | total;
                    }
                }
                for (slot, &len) in t.dist_sym.iter_mut().zip(dist) {
                    if len > 0 {
                        *slot = packed(next_code(&mut dist_next, len));
                    }
                }
                t
            }
        }

        /// Run-length encodes `lengths` into code-length-alphabet instructions,
        /// written to the front of `out`; returns how many.
        fn rle_code_lengths(lengths: &[u8], out: &mut [ClSym; MAX_CL_SYMS]) -> usize {
            let mut n = 0usize;
            let mut push = |sym: u8, extra: usize| {
                out[n] = ClSym {
                    sym,
                    extra: extra as u8,
                };
                n += 1;
            };
            let mut i = 0usize;
            while i < lengths.len() {
                let v = lengths[i];
                let mut left = lengths[i..].iter().take_while(|&&l| l == v).count();
                i += left;
                if v != 0 {
                    // A repeat needs a length in front of it to repeat.
                    push(v, 0);
                    left -= 1;
                }
                while left >= 3 {
                    let (sym, least, most) = match v {
                        0 if left >= 11 => (18, 11, 138),
                        0 => (17, 3, 10),
                        _ => (16, 3, 6),
                    };
                    let take = left.min(most);
                    push(sym, take - least);
                    left -= take;
                }
                (0..left).for_each(|_| push(v, 0));
            }
            n
        }

        /// The fully planned dynamic block header + code tables: a plain
        /// fixed-size value (about 1 KB), built on the stack with no allocation.
        ///
        /// Building the plan is separated from writing it so callers (the block
        /// chooser here, and the accelerator's cycle model) can obtain exact bit
        /// costs before committing.
        #[derive(Debug, Clone)]
        pub struct DynamicPlan {
            litlen_lengths: [u8; NUM_LITLEN_SYMBOLS],
            dist_lengths: [u8; NUM_DIST_SYMBOLS],
            /// What validating the lengths leaves behind, and all
            /// [`EmitTables::build`] needs besides them.
            litlen_first: FirstCodes,
            dist_first: FirstCodes,
            cl_lengths: [u8; 19],
            /// The run-length-coded lengths are `cl_syms[..cl_count]`.
            cl_syms: [ClSym; MAX_CL_SYMS],
            cl_count: usize,
            hlit: usize,
            hdist: usize,
            hclen: usize,
            header_bits: u64,
        }

        impl DynamicPlan {
            /// Plans dynamic-Huffman tables for the given histogram.
            ///
            /// The histogram must already include the end-of-block symbol. At least
            /// two codes are forced into each alphabet (zlib does the same) so the
            /// emitted trees are always complete and interoperable.
            pub fn from_histogram(hist: &Histogram) -> Self {
                let (mut litlen_freq, mut dist_freq) = (hist.litlen, hist.dist);
                force_min_codes(&mut litlen_freq);
                force_min_codes(&mut dist_freq);
                let mut litlen = [0u8; NUM_LITLEN_SYMBOLS];
                let mut dist = [0u8; NUM_DIST_SYMBOLS];
                build::limited_lengths_into(&litlen_freq, MAX_CODE_LEN, &mut litlen);
                build::limited_lengths_into(&dist_freq, MAX_CODE_LEN, &mut dist);
                Self::from_lengths(&litlen, &dist)
            }

            /// Plans a block around externally supplied code lengths — the
            /// "canned DHT" path, where a precomputed table is transmitted instead
            /// of one generated from the block's own statistics.
            ///
            /// The lengths must describe valid (non-oversubscribed) codes; symbols
            /// the block uses must have nonzero lengths or
            /// [`write_body`](Self::write_body) will panic.
            ///
            /// # Panics
            ///
            /// Panics if the lengths exceed the DEFLATE limits (15 bits, 288 / 32
            /// symbols) or oversubscribe the code space.
            pub fn from_lengths(litlen: &[u8], dist: &[u8]) -> Self {
                let mut litlen_lengths = [0u8; NUM_LITLEN_SYMBOLS];
                let mut dist_lengths = [0u8; NUM_DIST_SYMBOLS];
                litlen_lengths[..litlen.len()].copy_from_slice(litlen);
                dist_lengths[..dist.len()].copy_from_slice(dist);
                let hlit =
                    (litlen_lengths.iter().rposition(|&l| l > 0)).map_or(257, |p| (p + 1).max(257));
                let hdist = (dist_lengths.iter().rposition(|&l| l > 0)).map_or(1, |p| p + 1);

                // One run-length pass over both alphabets: a run may cross from the
                // literal/length lengths into the distance lengths.
                let mut combined = [0u8; MAX_CL_SYMS];
                combined[..hlit].copy_from_slice(&litlen_lengths[..hlit]);
                combined[hlit..hlit + hdist].copy_from_slice(&dist_lengths[..hdist]);
                let mut cl_syms = [ClSym::default(); MAX_CL_SYMS];
                let cl_count = rle_code_lengths(&combined[..hlit + hdist], &mut cl_syms);

                let mut cl_freq = [0u32; 19];
                for s in &cl_syms[..cl_count] {
                    cl_freq[usize::from(s.sym)] += 1;
                }
                let mut cl_lengths = [0u8; 19];
                build::limited_lengths_into(&cl_freq, MAX_CODELEN_CODE_LEN, &mut cl_lengths);
                // A single used symbol yields an incomplete 1-bit code, which
                // inflate implementations accept for this alphabet; force two codes
                // anyway, for maximum compatibility.
                if cl_lengths.iter().filter(|&&l| l > 0).count() == 1 {
                    cl_lengths[usize::from(cl_lengths[0] > 0)] = 1;
                }
                let hclen = (CODELEN_ORDER.iter().rposition(|&s| cl_lengths[s] > 0))
                    .map_or(4, |p| (p + 1).max(4));

                let mut header_bits = 3 + 5 + 5 + 4 + 3 * hclen as u64; // BFINAL+BTYPE, HLIT, HDIST, HCLEN
                for s in &cl_syms[..cl_count] {
                    header_bits +=
                        u64::from(cl_lengths[usize::from(s.sym)]) + u64::from(s.extra_bits());
                }
                Self {
                    litlen_first: first_codes_or_panic(&litlen_lengths),
                    dist_first: first_codes_or_panic(&dist_lengths),
                    litlen_lengths,
                    dist_lengths,
                    cl_lengths,
                    cl_syms,
                    cl_count,
                    hlit,
                    hdist,
                    hclen,
                    header_bits,
                }
            }

            /// Exact size in bits of the header (from BFINAL through the code-length
            /// stream).
            pub fn header_bits(&self) -> u64 {
                self.header_bits
            }

            /// Exact size in bits of the body for `hist` (tokens + end-of-block),
            /// excluding the header.
            pub fn body_bits(&self, hist: &Histogram) -> u64 {
                body_bits(hist, &self.litlen_lengths, &self.dist_lengths)
            }

            /// Writes the block header (BFINAL, BTYPE=10, table description).
            pub fn write_header(&self, w: &mut BitWriter, is_final: bool) {
                self.render_header(w, is_final);
            }

            /// The header's bits, a few fields to a `write_bits` call.
            fn render_header(&self, w: &mut BitWriter, is_final: bool) {
                let mut acc = u64::from(is_final) | 0b10 << 1;
                acc |= (self.hlit as u64 - 257) << 3 | (self.hdist as u64 - 1) << 8;
                w.write_bits(acc | (self.hclen as u64 - 4) << 13, 17);
                let (mut acc, mut n) = (0u64, 0u32);
                for &s in CODELEN_ORDER.iter().take(self.hclen) {
                    acc |= u64::from(self.cl_lengths[s]) << n;
                    n += 3;
                }
                w.write_bits(acc, n); // at most 19 x 3 = 57 bits
                let mut next = first_codes_or_panic(&self.cl_lengths);
                let mut codes = [Code::default(); 19];
                for (code, &len) in codes.iter_mut().zip(&self.cl_lengths) {
                    if len > 0 {
                        *code = next_code(&mut next, len);
                    }
                }
                // A code-length symbol is at most 7 + 7 bits: four to a call.
                for four in self.cl_syms[..self.cl_count].chunks(4) {
                    let (mut acc, mut n) = (0u64, 0u32);
                    for s in four {
                        let c = codes[usize::from(s.sym)];
                        debug_assert!(c.len > 0, "emitting unused code-length symbol");
                        acc |= (u64::from(c.bits) | u64::from(s.extra) << c.len) << n;
                        n += u32::from(c.len) + s.extra_bits();
                    }
                    w.write_bits(acc, n);
                }
            }

            /// Renders the header once, for a plan that outlives its block (a
            /// canned profile's).
            pub(crate) fn rendered_header(&self) -> RenderedHeader {
                let mut w = BitWriter::new();
                self.render_header(&mut w, false);
                let word = |seven: &[u8]| {
                    let mut le = [0u8; 8];
                    le[..seven.len()].copy_from_slice(seven);
                    u64::from_le_bytes(le)
                };
                RenderedHeader {
                    bits: self.header_bits,
                    words: w.finish().chunks(7).map(word).collect(),
                }
            }

            /// Writes the block body — all `tokens` then end-of-block — through
            /// freshly fused `EmitTables` (one `write_bits` per token).
            pub fn write_body(&self, w: &mut BitWriter, tokens: &[Token]) {
                self.emit_tables().write_body(w, tokens);
            }

            /// Fuses this plan's codes into [`EmitTables`] — once per block; the
            /// canned-profile path keeps the result with the profile.
            pub(crate) fn emit_tables(&self) -> EmitTables {
                let (litlen, dist) = (&self.litlen_lengths, &self.dist_lengths);
                EmitTables::parent_build(litlen, self.litlen_first, dist, self.dist_first)
            }

            /// The planned literal/length code lengths (for inspection/tests).
            pub fn litlen_lengths(&self) -> &[u8] {
                &self.litlen_lengths
            }

            /// The planned distance code lengths (for inspection/tests).
            pub fn dist_lengths(&self) -> &[u8] {
                &self.dist_lengths
            }
        }

        /// First canonical codes of lengths that must describe a valid code; the
        /// panic is reachable only through [`DynamicPlan::from_lengths`] with bad
        /// caller input, which that constructor documents.
        fn first_codes_or_panic(lengths: &[u8]) -> FirstCodes {
            match first_codes(lengths) {
                Ok(c) => c,
                Err(e) => panic!("invalid code lengths for dynamic plan: {e:?}"),
            }
        }

        /// Ensures at least two symbols in `freqs` are nonzero so the resulting
        /// Huffman code is complete (zlib's "force at least two codes" rule).
        pub(crate) fn force_min_codes(freqs: &mut [u32]) {
            let mut used = freqs.iter().filter(|&&f| f > 0).count();
            let mut i = 0;
            while used < 2 {
                if freqs[i] == 0 {
                    freqs[i] = 1;
                    used += 1;
                }
                i += 1;
            }
        }

        /// Exact bit cost of encoding `tokens` with the fixed tables (including
        /// the 3-bit block header and end-of-block).
        pub fn fixed_block_bits(hist: &Histogram) -> u64 {
            3 + body_bits(hist, &FIXED_LITLEN, &FIXED_DIST)
        }
    }

    impl EmitTables {
        /// Exact bits `token` takes under these tables, and whether every code
        /// it needs exists.
        #[inline]
        pub(crate) fn token_bits(&self, token: Token) -> (u32, bool) {
            match token {
                Token::Literal(b) => {
                    let n = self.lit[usize::from(b)] & 15;
                    (n, n != 0)
                }
                Token::Match { len, dist: d } => {
                    let n = self.len_sym[usize::from(len - 3)] & 31;
                    let di = dist_code(d);
                    let dn = self.dist_sym[di] & 15;
                    (n + dn + u32::from(DIST_EXTRA[di]), n != 0 && dn != 0)
                }
            }
        }
    }

    /// The one block decision (zlib's `_tr_flush_block`): emits `tokens` as
    /// whichever of stored, fixed or dynamic is smallest by exact bit cost, from
    /// their histogram (end-of-block included), and counts the block under
    /// `rung`. `stored` is the input the tokens cover; `None` where the caller
    /// does not track it (the canned path's misfit fallback).
    pub fn choose_and_encode_block(
        w: &mut BitWriter,
        stored: Option<&[u8]>,
        tokens: &[Token],
        hist: &Histogram,
        is_final: bool,
        rung: Level,
    ) {
        BLOCKS_BY_LEVEL[rung.index()].fetch_add(1, Ordering::Relaxed);
        let plan = Plan::from_histogram(hist);
        let dynamic_bits = plan.header_bits() + plan.body_bits(hist);
        let fixed_bits = fixed_block_bits(hist);
        // Stored: alignment padding (≤7) + per-chunk 5-byte headers + payload.
        let stored = stored.filter(|bytes| {
            let chunks = bytes.len().div_ceil(MAX_STORED_BLOCK).max(1) as u64;
            7 + chunks * (3 + 32 + 4) + bytes.len() as u64 * 8 < dynamic_bits.min(fixed_bits)
        });
        if let Some(bytes) = stored {
            encode_stored(w, bytes, is_final);
        } else if fixed_bits <= dynamic_bits {
            encode_fixed_block(w, tokens, is_final);
        } else {
            plan.write_header(w, is_final);
            plan.write_body(w, tokens);
        }
    }

    /// A code-length-alphabet instruction produced by run-length encoding the
    /// combined literal/length + distance code lengths.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ClSym {
        /// Emit a literal code length 0..=15.
        Len(u8),
        /// Symbol 16: repeat previous length 3–6 times.
        Rep(u8),
        /// Symbol 17: run of zeros, 3–10 long.
        Zero(u8),
        /// Symbol 18: run of zeros, 11–138 long.
        ZeroLong(u8),
    }

    impl ClSym {
        pub fn symbol(self) -> usize {
            match self {
                ClSym::Len(v) => usize::from(v),
                ClSym::Rep(_) => 16,
                ClSym::Zero(_) => 17,
                ClSym::ZeroLong(_) => 18,
            }
        }

        /// In the new form: the symbol and the value of its extra bits.
        pub fn packed(self) -> super::ClSym {
            let (sym, extra) = (self.symbol() as u8, extra(self).map_or(0, |(v, _)| v as u8));
            super::ClSym { sym, extra }
        }
    }

    /// Run-length encodes `lengths` into code-length-alphabet instructions.
    pub(crate) fn rle_code_lengths(lengths: &[u8]) -> Vec<ClSym> {
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < lengths.len() {
            let v = lengths[i];
            let mut run = 1usize;
            while i + run < lengths.len() && lengths[i + run] == v {
                run += 1;
            }
            if v == 0 {
                let mut left = run;
                while left >= 11 {
                    let take = left.min(138);
                    out.push(ClSym::ZeroLong(take as u8));
                    left -= take;
                }
                if left >= 3 {
                    out.push(ClSym::Zero(left as u8));
                    left = 0;
                }
                for _ in 0..left {
                    out.push(ClSym::Len(0));
                }
            } else {
                out.push(ClSym::Len(v));
                let mut left = run - 1;
                while left >= 3 {
                    let take = left.min(6);
                    out.push(ClSym::Rep(take as u8));
                    left -= take;
                }
                for _ in 0..left {
                    out.push(ClSym::Len(v));
                }
            }
            i += run;
        }
        out
    }

    fn extra(s: ClSym) -> Option<(u64, u32)> {
        match s {
            ClSym::Len(_) => None,
            ClSym::Rep(n) => Some((u64::from(n - 3), 2)),
            ClSym::Zero(n) => Some((u64::from(n - 3), 3)),
            ClSym::ZeroLong(n) => Some((u64::from(n - 11), 7)),
        }
    }

    pub struct DynamicPlan {
        litlen_lengths: Vec<u8>,
        dist_lengths: Vec<u8>,
        litlen_codes: Vec<Code>,
        dist_codes: Vec<Code>,
        cl_lengths: Vec<u8>,
        cl_codes: Vec<Code>,
        cl_syms: Vec<ClSym>,
        hlit: usize,
        hdist: usize,
        hclen: usize,
    }

    impl DynamicPlan {
        pub fn from_histogram(hist: &Histogram) -> Self {
            let mut litlen_freq = hist.litlen.to_vec();
            let mut dist_freq = hist.dist.to_vec();
            force_min_codes(&mut litlen_freq);
            force_min_codes(&mut dist_freq);

            let litlen_lengths = build::limited_lengths(&litlen_freq, MAX_CODE_LEN);
            let dist_lengths = build::limited_lengths(&dist_freq, MAX_CODE_LEN);
            Self::from_lengths(litlen_lengths, dist_lengths)
        }

        /// Plans a block around externally supplied code lengths — the
        /// "canned DHT" path, where a precomputed table is transmitted instead
        /// of one generated from the block's own statistics.
        ///
        /// The lengths must describe valid (non-oversubscribed) codes; symbols
        /// the block uses must have nonzero lengths or
        /// [`write_body`](Self::write_body) will panic.
        ///
        /// # Panics
        ///
        /// Panics if the lengths exceed the DEFLATE limits or oversubscribe
        /// the code space.
        pub fn from_lengths(litlen_lengths: Vec<u8>, dist_lengths: Vec<u8>) -> Self {
            let hlit = litlen_lengths
                .iter()
                .rposition(|&l| l > 0)
                .map_or(257, |p| (p + 1).max(257));
            let hdist = dist_lengths
                .iter()
                .rposition(|&l| l > 0)
                .map_or(1, |p| (p + 1).max(1));

            let mut combined = Vec::with_capacity(hlit + hdist);
            combined.extend_from_slice(&litlen_lengths[..hlit]);
            combined.extend_from_slice(&dist_lengths[..hdist]);
            let cl_syms = rle_code_lengths(&combined);

            let mut cl_freq = vec![0u32; 19];
            for s in &cl_syms {
                cl_freq[s.symbol()] += 1;
            }
            let mut cl_lengths = build::limited_lengths(&cl_freq, MAX_CODELEN_CODE_LEN);
            // The code-length alphabet must itself be decodable; a single used
            // symbol yields an incomplete 1-bit code, which inflate
            // implementations accept for this alphabet, but force two codes for
            // maximum compatibility.
            if cl_lengths.iter().filter(|&&l| l > 0).count() == 1 {
                if let Some(used) = cl_lengths.iter().position(|&l| l > 0) {
                    let other = usize::from(used == 0);
                    cl_lengths[used] = 1;
                    cl_lengths[other] = 1;
                }
            }

            let hclen = CODELEN_ORDER
                .iter()
                .rposition(|&s| cl_lengths[s] > 0)
                .map_or(4, |p| (p + 1).max(4));

            let litlen_codes = codes_or_panic(&litlen_lengths);
            let dist_codes = codes_or_panic(&dist_lengths);
            let cl_codes = codes_or_panic(&cl_lengths);

            Self {
                litlen_lengths,
                dist_lengths,
                litlen_codes,
                dist_codes,
                cl_lengths,
                cl_codes,
                cl_syms,
                hlit,
                hdist,
                hclen,
            }
        }

        /// Exact size in bits of the header (from BFINAL through the code-length
        /// stream).
        pub fn header_bits(&self) -> u64 {
            let mut bits = 3 + 5 + 5 + 4; // BFINAL+BTYPE, HLIT, HDIST, HCLEN
            bits += 3 * self.hclen as u64;
            for s in &self.cl_syms {
                bits += u64::from(self.cl_lengths[s.symbol()]);
                if let Some((_, n)) = extra(*s) {
                    bits += u64::from(n);
                }
            }
            bits
        }

        /// Exact size in bits of the body for `hist` (tokens + end-of-block),
        /// excluding the header.
        pub fn body_bits(&self, hist: &Histogram) -> u64 {
            let mut bits = 0u64;
            for (sym, &f) in hist.litlen.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                bits += u64::from(f) * u64::from(self.litlen_lengths[sym]);
                if sym > 256 {
                    bits += u64::from(f) * u64::from(LENGTH_EXTRA[sym - 257]);
                }
            }
            for (sym, &f) in hist.dist.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                bits += u64::from(f) * u64::from(self.dist_lengths[sym]);
                bits += u64::from(f) * u64::from(DIST_EXTRA[sym]);
            }
            bits
        }

        /// Writes the block header (BFINAL, BTYPE=10, table description).
        pub fn write_header(&self, w: &mut BitWriter, is_final: bool) {
            w.write_bits(u64::from(is_final), 1);
            w.write_bits(0b10, 2);
            w.write_bits(self.hlit as u64 - 257, 5);
            w.write_bits(self.hdist as u64 - 1, 5);
            w.write_bits(self.hclen as u64 - 4, 4);
            for &s in CODELEN_ORDER.iter().take(self.hclen) {
                w.write_bits(u64::from(self.cl_lengths[s]), 3);
            }
            for s in &self.cl_syms {
                let c = self.cl_codes[s.symbol()];
                debug_assert!(c.len > 0, "emitting unused code-length symbol");
                w.write_bits(u64::from(c.bits), u32::from(c.len));
                if let Some((v, n)) = extra(*s) {
                    w.write_bits(v, n);
                }
            }
        }
    }

    fn codes_or_panic(lengths: &[u8]) -> Vec<Code> {
        match canonical_codes(lengths) {
            Ok(c) => c,
            Err(e) => panic!("invalid code lengths for dynamic plan: {e:?}"),
        }
    }

    /// Tokens that use every literal, length and distance symbol `hist`
    /// counts (a length code at both ends of its range, each beside a
    /// counted distance code at the far end of its range), so a body
    /// written from them reads every fused table entry the block can.
    pub fn covering_tokens(hist: &Histogram) -> Vec<Token> {
        let mut tokens: Vec<Token> = (0..=255u8)
            .filter(|&b| hist.litlen[usize::from(b)] > 0)
            .map(Token::Literal)
            .collect();
        let dists: Vec<u16> = (0..30)
            .filter(|&d| hist.dist[d] > 0)
            .map(|d| DIST_BASE[d] + ((1 << DIST_EXTRA[d]) - 1))
            .collect();
        let lens = (0..29).filter(|&li| hist.litlen[257 + li] > 0);
        let lens: Vec<u16> = lens
            .flat_map(|li| {
                [
                    LENGTH_BASE[li],
                    LENGTH_BASE.get(li + 1).map_or(258, |&e| e - 1),
                ]
            })
            .collect();
        if !dists.is_empty() && !lens.is_empty() {
            for i in 0..lens.len().max(dists.len()) {
                let (len, dist) = (lens[i % lens.len()], dists[i % dists.len()]);
                tokens.push(Token::Match { len, dist });
            }
        }
        tokens
    }

    /// Everything `hist`'s plan decides and writes, new against the parent
    /// stack plan (`stack`), built from the histogram and again from the
    /// lengths (the canned door): the length sets, `header_bits`, the
    /// header's written bits at either BFINAL off a byte boundary,
    /// `body_bits`, the fixed price the block decision takes, every entry of
    /// the fused tables, and the bytes `write_body` makes of `tokens`.
    pub fn diff_stack(hist: &Histogram, tokens: &[Token], what: &str) {
        let (new, old) = (
            super::DynamicPlan::from_histogram(hist),
            stack::DynamicPlan::from_histogram(hist),
        );
        assert_eq!(new.litlen_lengths(), old.litlen_lengths(), "{what}");
        assert_eq!(new.dist_lengths(), old.dist_lengths(), "{what}");
        assert_eq!(new.body_bits(hist), old.body_bits(hist), "{what}");
        assert_eq!(
            fixed_block_bits(hist),
            stack::fixed_block_bits(hist),
            "{what}"
        );
        diff_built(&new, &old, tokens, &format!("{what} histogram"));
        diff_lengths(new.litlen_lengths(), new.dist_lengths(), tokens, what);
    }

    /// The plans built from the given code lengths (the canned door), new
    /// against the parent stack plan: header, tables and `tokens`' body.
    pub fn diff_lengths(litlen: &[u8], dist: &[u8], tokens: &[Token], what: &str) {
        let new = super::DynamicPlan::from_lengths(litlen, dist);
        let old = stack::DynamicPlan::from_lengths(litlen, dist);
        diff_built(&new, &old, tokens, &format!("{what} lengths"));
    }

    /// Two plans' `header_bits`, written header bits at either BFINAL off a
    /// byte boundary, fused tables (every entry) and body bytes.
    fn diff_built(new: &Plan, old: &stack::DynamicPlan, tokens: &[Token], what: &str) {
        assert_eq!(new.header_bits(), old.header_bits(), "{what}");
        for is_final in [false, true] {
            let (mut got, mut want) = (BitWriter::new(), BitWriter::new());
            got.write_bits(0b101, 3);
            want.write_bits(0b101, 3);
            new.write_header(&mut got, is_final);
            old.write_header(&mut want, is_final);
            assert_eq!(got.finish(), want.finish(), "{what} final {is_final}");
        }
        let (got, want) = (new.emit_tables(), old.emit_tables());
        assert_eq!(got.lit, want.lit, "{what}");
        assert_eq!(got.len_sym, want.len_sym, "{what}");
        assert_eq!(got.dist_sym, want.dist_sym, "{what}");
        assert_eq!(got.eob, want.eob, "{what}");
        let (mut got, mut want) = (BitWriter::new(), BitWriter::new());
        got.write_bits(0b1, 1);
        want.write_bits(0b1, 1);
        new.write_body(&mut got, tokens);
        old.write_body(&mut want, tokens);
        assert_eq!(got.finish(), want.finish(), "{what} body");
    }

    /// [`diff_stack`] on tokens covering `hist`, then everything `hist`'s
    /// plan decides, new against old: the three length sets, `hlit` /
    /// `hdist` / `hclen`, `header_bits`, the header's bytes (written, and
    /// replayed from its rendered form, at either BFINAL and off a byte
    /// boundary) and every fused table entry of a coded symbol.
    pub fn diff_plan(hist: &Histogram, what: &str) {
        diff_stack(hist, &covering_tokens(hist), what);
        let (new, old) = (
            super::DynamicPlan::from_histogram(hist),
            DynamicPlan::from_histogram(hist),
        );
        assert_eq!(new.litlen_lengths[..], old.litlen_lengths[..], "{what}");
        assert_eq!(new.dist_lengths[..], old.dist_lengths[..], "{what}");
        assert_eq!(new.cl_lengths[..], old.cl_lengths[..], "{what}");
        let old_syms: Vec<super::ClSym> = old.cl_syms.iter().map(|s| s.packed()).collect();
        assert_eq!(new.cl_syms[..new.cl_count], old_syms[..], "{what}");
        let counts = |p: (usize, usize, usize)| p;
        assert_eq!(
            counts((new.hlit, new.hdist, new.hclen)),
            counts((old.hlit, old.hdist, old.hclen)),
            "{what}"
        );
        assert_eq!(new.header_bits(), old.header_bits(), "{what}");
        // (The old sums index past `LENGTH_EXTRA` on a reserved symbol.)
        if hist.litlen[286..] == [0, 0] && hist.dist[30..] == [0, 0] {
            assert_eq!(new.body_bits(hist), old.body_bits(hist), "{what}");
            assert_eq!(fixed_block_bits(hist), old_fixed_block_bits(hist), "{what}");
        }
        let rendered = new.rendered_header();
        for is_final in [false, true] {
            let mut want = BitWriter::new();
            want.write_bits(0b101, 3);
            old.write_header(&mut want, is_final);
            let want = want.finish();
            let mut got = BitWriter::new();
            got.write_bits(0b101, 3);
            new.write_header(&mut got, is_final);
            assert_eq!(got.bit_len(), 3 + new.header_bits(), "{what}");
            assert_eq!(got.finish(), want, "{what} final {is_final}");
            let mut replay = BitWriter::new();
            replay.write_bits(0b101, 3);
            rendered.write(&mut replay);
            if is_final {
                replay.set_bit(3); // as a block sink sets it
            }
            assert_eq!(replay.finish(), want, "{what} rendered, final {is_final}");
        }
        let et = new.emit_tables();
        let packed = |c: Code| u32::from(c.bits) << 4 | u32::from(c.len);
        for (b, &c) in old.litlen_codes[..256].iter().enumerate() {
            assert_eq!(et.lit[b], packed(c), "{what} literal {b}");
        }
        assert_eq!(et.eob, old.litlen_codes[256], "{what}");
        for len in 3..=258u16 {
            let li = crate::lz77::length_code_index(len);
            let c = old.litlen_codes[257 + li];
            if c.len > 0 {
                let merged = u32::from(c.bits) | (u32::from(len - LENGTH_BASE[li]) << c.len);
                let total = u32::from(c.len) + u32::from(LENGTH_EXTRA[li]);
                assert_eq!(
                    et.len_sym[usize::from(len - 3)],
                    merged << 5 | total,
                    "{what} length {len}"
                );
            } else {
                assert_eq!(et.len_sym[usize::from(len - 3)], 0, "{what} length {len}");
            }
        }
        for (d, &c) in old.dist_codes.iter().enumerate() {
            assert_eq!(et.dist_sym[d], packed(c), "{what} distance code {d}");
        }
    }

    fn old_fixed_block_bits(hist: &Histogram) -> u64 {
        let litlen = fixed_litlen_lengths();
        let dist = fixed_dist_lengths();
        let mut bits = 3u64;
        for (sym, &f) in hist.litlen.iter().enumerate() {
            if f == 0 {
                continue;
            }
            bits += u64::from(f) * u64::from(litlen[sym]);
            if sym > 256 {
                bits += u64::from(f) * u64::from(LENGTH_EXTRA[sym - 257]);
            }
        }
        for (sym, &f) in hist.dist.iter().enumerate() {
            if f == 0 {
                continue;
            }
            bits += u64::from(f) * (u64::from(dist[sym]) + u64::from(DIST_EXTRA[sym]));
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::inflate;

    fn level(l: u32) -> CompressionLevel {
        CompressionLevel::new(l).unwrap()
    }

    #[test]
    fn level_validation() {
        assert!(CompressionLevel::new(9).is_ok());
        assert_eq!(CompressionLevel::new(10), Err(Error::InvalidLevel(10)));
        assert_eq!(CompressionLevel::default().get(), 6);
    }

    #[test]
    fn empty_input_roundtrips() {
        for l in 0..=9 {
            let out = deflate(b"", level(l));
            assert_eq!(inflate(&out).unwrap(), b"", "level {l}");
        }
    }

    #[test]
    fn stored_level_roundtrips() {
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 31) as u8).collect();
        let out = deflate(&data, level(0));
        // Stored output: payload + per-64K headers, no compression.
        assert!(out.len() >= data.len());
        assert!(out.len() < data.len() + 5 * (data.len() / MAX_STORED_BLOCK + 2));
        assert_eq!(inflate(&out).unwrap(), data);
    }

    #[test]
    fn all_levels_roundtrip_text() {
        let data: Vec<u8> =
            std::iter::repeat_n(&b"compression accelerators on POWER9 and z15 "[..], 500)
                .flatten()
                .copied()
                .collect();
        for l in 0..=9 {
            let out = deflate(&data, level(l));
            assert_eq!(inflate(&out).unwrap(), data, "level {l}");
            if l > 0 {
                assert!(out.len() < data.len() / 4, "level {l} barely compressed");
            }
        }
    }

    #[test]
    fn higher_levels_compress_at_least_as_well() {
        let mut data = Vec::new();
        for i in 0..4000u32 {
            data.extend_from_slice(format!("record,{},{},field{}\n", i, i % 97, i % 13).as_bytes());
        }
        // Levels 1-3 default to the speculative batch engine, which on
        // records like these can beat the lazy ladder outright; pin the
        // low rung to the sequential matcher so this checks effort
        // monotonicity within one engine.
        let s1_seq = Encoder::with_engine(level(1), Engine::Sequential)
            .compress(&data)
            .len();
        let s1 = deflate(&data, level(1)).len();
        let s6 = deflate(&data, level(6)).len();
        let s9 = deflate(&data, level(9)).len();
        assert!(s6 <= s1_seq);
        assert!(s9 <= s6 + s6 / 100); // allow 1% jitter from block splits
                                      // The speculative engine must not trail its sequential peer by
                                      // more than a few percent on easy data (here it actually wins).
        assert!(s1 <= s1_seq + s1_seq / 20);
    }

    #[test]
    fn incompressible_data_falls_back_to_stored() {
        let mut x = 0x9E3779B9u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let out = deflate(&data, level(6));
        // Must not expand by more than stored-block overhead.
        assert!(out.len() <= data.len() + 5 * (data.len() / MAX_STORED_BLOCK + 2) + 16);
        assert_eq!(inflate(&out).unwrap(), data);
    }

    #[test]
    fn fixed_block_roundtrip() {
        let mut w = BitWriter::new();
        let tokens = vec![
            Token::Literal(b'h'),
            Token::Literal(b'i'),
            Token::Match { len: 4, dist: 2 },
        ];
        encode_fixed_block(&mut w, &tokens, true);
        assert_eq!(inflate(&w.finish()).unwrap(), b"hihihi");
    }

    #[test]
    fn dynamic_block_roundtrip() {
        let mut w = BitWriter::new();
        let tokens: Vec<Token> = b"banana banana banana"
            .iter()
            .map(|&b| Token::Literal(b))
            .collect();
        encode_dynamic_block(&mut w, &tokens, true);
        assert_eq!(inflate(&w.finish()).unwrap(), b"banana banana banana");
    }

    #[test]
    fn dynamic_block_with_no_matches_has_valid_dist_tree() {
        // No distances used at all: the forced two-code distance tree must
        // still decode.
        let mut w = BitWriter::new();
        let tokens: Vec<Token> = (0..=255u8).map(Token::Literal).collect();
        encode_dynamic_block(&mut w, &tokens, true);
        let expect: Vec<u8> = (0..=255).collect();
        assert_eq!(inflate(&w.finish()).unwrap(), expect);
    }

    #[test]
    fn plan_bit_accounting_is_exact() {
        let tokens: Vec<Token> = b"abracadabra abracadabra abracadabra"
            .iter()
            .map(|&b| Token::Literal(b))
            .collect();
        let mut hist = Histogram::new();
        for &t in &tokens {
            hist.record(t);
        }
        hist.record_end_of_block();
        let plan = DynamicPlan::from_histogram(&hist);
        let mut w = BitWriter::new();
        plan.write_header(&mut w, true);
        assert_eq!(w.bit_len(), plan.header_bits());
        plan.write_body(&mut w, &tokens);
        assert_eq!(w.bit_len(), plan.header_bits() + plan.body_bits(&hist));
    }

    #[test]
    fn canned_plan_from_lengths_roundtrips() {
        // A generic "canned" table covering every transmittable symbol
        // (literals weighted higher). Only distance symbols 0..=29 may
        // receive codes — 30/31 are reserved and make HDIST invalid.
        let mut hist = Histogram::new();
        for (s, f) in hist.litlen.iter_mut().enumerate().take(286) {
            *f = if s < 256 { 2 } else { 1 };
        }
        for f in hist.dist.iter_mut().take(30) {
            *f = 1;
        }
        let plan = DynamicPlan::from_histogram(&hist);
        let canned = DynamicPlan::from_lengths(plan.litlen_lengths(), plan.dist_lengths());
        let tokens = vec![
            Token::Literal(b'q'),
            Token::Literal(0xFE),
            Token::Match { len: 3, dist: 2 },
            Token::Match { len: 258, dist: 5 },
        ];
        let mut w = BitWriter::new();
        canned.write_header(&mut w, true);
        canned.write_body(&mut w, &tokens);
        let out = inflate(&w.finish()).expect("canned-table block decodes");
        assert_eq!(out, crate::lz77::expand_tokens(&tokens));
    }

    #[test]
    fn rle_code_lengths_edge_runs() {
        use reference::ClSym::{Len, Rep, Zero, ZeroLong};
        let rle = |lengths: &[u8]| {
            let mut syms = [ClSym::default(); MAX_CL_SYMS];
            let n = rle_code_lengths(lengths, &mut syms);
            let old = reference::rle_code_lengths(lengths);
            let packed: Vec<ClSym> = old.iter().map(|s| s.packed()).collect();
            assert_eq!(syms[..n], packed[..]);
            old
        };
        // 138-long zero run → single ZeroLong(138); 139 → ZeroLong(138)+...
        assert_eq!(rle(&[0u8; 138]), vec![ZeroLong(138)]);
        // 139 = 138 + 1: trailing single zero emitted literally.
        assert_eq!(rle(&[0u8; 139]), vec![ZeroLong(138), Len(0)]);
        // Nonzero run of 8: Len + Rep(6) + Len.
        assert_eq!(rle(&[7u8; 8]), vec![Len(7), Rep(6), Len(7)]);
        // Every run length around the three repeat forms' bounds.
        for run in 1..=300 {
            rle(&vec![0u8; run]);
            rle(&vec![9u8; run]);
            let mixed: Vec<u8> = (0..run).map(|i| [0, 0, 0, 5, 5, 5, 5, 0][i % 8]).collect();
            assert!(rle(&mixed).iter().all(|s| !matches!(s, Zero(n) if *n > 10)));
        }
        // The longest header there is: no run anywhere.
        let jagged: Vec<u8> = (0..MAX_CL_SYMS).map(|i| 1 + (i % 2) as u8).collect();
        assert_eq!(rle(&jagged).len(), MAX_CL_SYMS);
    }

    /// A histogram with `weight(i)` on every `step`-th literal/length symbol
    /// below `litlen` and every distance symbol below `dist`.
    fn histogram(
        litlen: usize,
        dist: usize,
        step: usize,
        weight: impl Fn(usize) -> u32,
    ) -> Histogram {
        let mut hist = Histogram::new();
        (0..litlen)
            .step_by(step)
            .for_each(|s| hist.litlen[s] = weight(s));
        (0..dist).for_each(|s| hist.dist[s] = weight(s));
        hist
    }

    #[test]
    fn plan_matches_the_parent_on_edge_histograms() {
        // 0 / 1 / 2 used symbols: the forced-two-codes rule, in both
        // alphabets, at either end of them.
        reference::diff_plan(&Histogram::new(), "empty");
        for only in [0usize, 1, 255, 256, 285] {
            let mut hist = Histogram::new();
            hist.litlen[only] = 7;
            reference::diff_plan(&hist, "one literal/length symbol");
            hist.dist[only % 30] = 3;
            reference::diff_plan(&hist, "and one distance symbol");
            hist.litlen[256] += 1;
            hist.dist[29] += 1;
            reference::diff_plan(&hist, "two of each");
        }
        // Whole alphabets (19 and 30 symbols inside them, 286 the
        // transmittable one, 288 with the reserved pair), all weights equal,
        // at both ends of the weight range.
        for (litlen, dist) in [(19, 19), (30, 30), (286, 30), (288, 32)] {
            for weight in [1u32, 7, u32::MAX] {
                reference::diff_plan(&histogram(litlen, dist, 1, |_| weight), "all equal");
            }
            reference::diff_plan(&histogram(litlen, dist, 3, |s| 1 << (s % 31)), "octaves");
        }
        // Fibonacci weights make the deepest tree: past 15 bits in the
        // literal/length alphabet (package-merge at limit 15), and the
        // jagged lengths that leaves put the code-length alphabet past 7.
        let mut fib = vec![1u32, 1];
        while fib.len() < 45 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        for used in [20usize, 24, 30, 45] {
            for bump in 0..3u32 {
                let weight = |s: usize| fib[s % used] + (s as u32 * bump) % 3;
                let freqs = histogram(used, 0, 1, weight).litlen;
                let plain = crate::huffman::build::limited_lengths(&freqs, u8::MAX);
                assert!(
                    bump > 0 || plain.iter().any(|&l| l > MAX_CODE_LEN),
                    "no fallback"
                );
                reference::diff_plan(&histogram(used, used.min(30), 1, weight), "fibonacci");
                reference::diff_plan(&histogram(286, 30, 7, weight), "sparse fibonacci");
            }
        }
    }

    /// The model's token for this build's: `nx-accel` hands out the
    /// `Token` of the `nx-deflate` it links, a type distinct from this test
    /// build's, so it crosses by its `Debug` form (checked on the way back).
    fn own_token(t: &impl std::fmt::Debug) -> Token {
        let text = format!("{t:?}");
        let digits = text
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty());
        let n: Vec<u16> = digits.map(|s| s.parse().unwrap()).collect();
        let token = match n[..] {
            [b] => Token::Literal(b as u8),
            [len, dist] => Token::Match { len, dist },
            _ => panic!("not a token: {text}"),
        };
        assert_eq!(format!("{token:?}"), text);
        token
    }

    /// The plan over the used-symbol bitmaps against the parent stack plan
    /// (`reference::diff_stack`, and through `diff_plan` the plan before
    /// that) on the model's blocks: every `Nx::compress` request of 1 KiB to
    /// 64 KiB is one block of `nx-accel`'s tokens, here 1 000 of 1 KiB and
    /// 84 larger ones of `nxbench`'s mixed corpus.
    #[test]
    fn the_used_symbol_plan_equals_the_stack_parent_on_model_blocks() {
        let mut engine = nx_accel::matcher::MatchEngine::new(nx_accel::AccelConfig::power9());
        let sizes = [
            (1000u64, 1usize << 10),
            (64, 4 << 10),
            (16, 16 << 10),
            (4, 64 << 10),
        ];
        for (count, len) in sizes {
            for i in 0..count {
                let data = nx_corpus::mixed(i.wrapping_mul(0x9E37_79B9) | 1 << 32, len);
                let outcome = engine.tokenize(&data);
                let tokens: Vec<Token> = outcome.tokens.iter().map(own_token).collect();
                let hist = Histogram::of(&tokens);
                let what = format!("model block {i} of {len} bytes");
                reference::diff_plan(&hist, &what);
                reference::diff_stack(&hist, &tokens, &what);
            }
        }
    }

    /// The cases the bitmaps make special, new plan against the parent
    /// stack plan: one used symbol and two (the forced codes, at either end
    /// of the bitmap's first word), an empty distance alphabet, a zero run
    /// across the literal/length–distance seam (no code past 255, none at
    /// distance 0) and a repeat run across it, every used symbol in the
    /// last bitmap word (285, distance 29), all weights equal (every tie
    /// taken, in the radix sort's one and two passes), Fibonacci weights
    /// (package-merge) and a weight past 2^16 (the comparison sort).
    #[test]
    fn the_used_symbol_plan_equals_the_stack_parent_on_edge_histograms() {
        let diff = |hist: &Histogram, what: &str| {
            reference::diff_stack(hist, &reference::covering_tokens(hist), what);
        };
        // No code at all, through the lengths door: the code-length alphabet
        // then holds symbol 18 alone, and the force-two rule adds symbol 0.
        reference::diff_lengths(&[0; 288], &[0; 32], &[], "no code");
        for only in [0usize, 1, 62, 63, 64, 127, 255, 256, 284, 285] {
            let mut hist = Histogram::new();
            hist.litlen[only] = 9;
            diff(&hist, "one literal/length symbol, no distance");
            hist.litlen[256] += 1;
            diff(&hist, "and end-of-block");
            hist.dist[only % 30] = 2;
            diff(&hist, "and one distance symbol");
            hist.dist[29] += 3;
            diff(&hist, "two distance symbols");
        }
        // The zero run from the last literal to HLIT = 257 runs on into the
        // distance lengths, whose first is unused.
        let mut seam = histogram(200, 0, 9, |s| 1 + s as u32 % 5);
        seam.dist[4] = 7;
        seam.dist[9] = 2;
        diff(&seam, "a zero run across the seam");
        // Equal lengths on both sides of the seam: a repeat run across it.
        let mut repeat = histogram(286, 30, 1, |_| 1);
        repeat.litlen[..256].fill(50);
        diff(&repeat, "a repeat run across the seam");
        let mut last = Histogram::new();
        (257..286).for_each(|s| last.litlen[s] = s as u32);
        last.dist[29] = 1;
        diff(&last, "the bitmap's last word");
        for used in [31usize, 32, 33, 120, 286] {
            for weight in [1u32, 255, 256, 65_535, 65_536] {
                diff(&histogram(used, 30, 1, |_| weight), "all equal");
            }
            diff(
                &histogram(used, 30, 2, |s| 1 + (s as u32 % 3) * 300),
                "two digits, ties",
            );
        }
        let mut fib = vec![1u32, 1];
        while fib.len() < 45 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        diff(&histogram(45, 30, 1, |s| fib[s]), "fibonacci");
        diff(&histogram(286, 30, 5, |s| fib[s % 45]), "sparse fibonacci");
        let mut heavy = histogram(286, 30, 3, |s| 1 + s as u32);
        heavy.litlen[101] = 70_000;
        diff(&heavy, "a weight past 2^16");
        // Seeded random sparse histograms, weights over 20 octaves.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..2000 {
            let mut hist = Histogram::new();
            for _ in 0..next() % 140 {
                let r = next();
                hist.litlen[r as usize % 286] = ((r >> 32) as u32 & 15).max(1) << ((r >> 40) % 20);
            }
            for _ in 0..next() % 24 {
                let r = next();
                hist.dist[r as usize % 30] = ((r >> 32) as u32 & 15).max(1) << ((r >> 40) % 20);
            }
            diff(&hist, &format!("seeded random sparse {round}"));
        }
    }

    proptest::proptest! {
        #[test]
        fn plan_matches_the_parent_on_random_sparse_histograms(
            litlen in proptest::collection::vec((0usize..286, 0u32..24, 1u32..16), 0..120),
            dist in proptest::collection::vec((0usize..30, 0u32..24, 1u32..16), 0..20),
        ) {
            // Weights spread over 24 octaves so deep trees are common.
            let mut hist = Histogram::new();
            for (sym, octave, mantissa) in litlen {
                hist.litlen[sym] = mantissa << octave;
            }
            for (sym, octave, mantissa) in dist {
                hist.dist[sym] = mantissa << octave;
            }
            reference::diff_plan(&hist, "random sparse");
        }
    }

    #[test]
    fn the_block_decision_is_one_body() {
        // Stored, fixed and dynamic each win somewhere; a block that does
        // not go stored takes the cheaper entropy coding, to the bit.
        let noise: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let text = b"the block decision is one body; ".repeat(128);
        let short = b"fixed".to_vec();
        let emit = |data: &[u8]| {
            let tokens: Vec<Token> = data.iter().map(|&b| Token::Literal(b)).collect();
            let hist = Histogram::of(&tokens);
            let mut w = BitWriter::new();
            choose_and_encode_block(&mut w, data, &tokens, &hist, true, Level::Default);
            let out = w.finish();
            assert_eq!(inflate(&out).unwrap(), data);
            let plan = DynamicPlan::from_histogram(&hist);
            let cheaper = fixed_block_bits(&hist).min(plan.header_bits() + plan.body_bits(&hist));
            (out, cheaper)
        };
        let (stored, _) = emit(&noise);
        assert_eq!(stored.len(), noise.len() + 5, "noise goes stored");
        assert_eq!(stored[0] & 0b110, 0b000);
        for (data, btype) in [(&text, 0b100), (&short, 0b010)] {
            let (coded, cheaper) = emit(data);
            assert_eq!(coded[0] & 0b110, btype);
            let bits = coded.len() as u64 * 8;
            assert!(bits - cheaper < 8, "{bits} bits written, {cheaper} planned");
        }
    }

    #[test]
    fn multi_block_output_roundtrips() {
        // Enough tokens to force several blocks.
        let data: Vec<u8> = (0..(MAX_BLOCK_TOKENS * 3))
            .map(|i| (i % 251) as u8)
            .collect();
        let out = deflate(&data, level(5));
        assert_eq!(inflate(&out).unwrap(), data);
    }

    #[test]
    fn max_match_and_max_distance_tokens_roundtrip() {
        // Construct data that yields a maximum-distance match.
        let mut data = vec![0u8; crate::WINDOW_SIZE];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 7) as u8 ^ (i / 531) as u8;
        }
        data.extend_from_slice(b"SENTINEL-0123456789abcdef");
        let prefix: Vec<u8> = data[..64].to_vec();
        data.extend_from_slice(&prefix);
        for l in [1, 6, 9] {
            let out = deflate(&data, level(l));
            assert_eq!(inflate(&out).unwrap(), data, "level {l}");
        }
    }

    /// The block loop as it stood before it took its tokens in pieces,
    /// verbatim but for `self.level` becoming `level`: the oracle of every
    /// chunking the emitter is fed.
    fn parent_emit_blocks(
        level: CompressionLevel,
        w: &mut BitWriter,
        data: &[u8],
        tokens: &[Token],
        last: bool,
    ) {
        if tokens.is_empty() {
            return encode_fixed_block(w, &[], true);
        }
        let rung = Level::from_numeric(level.get());
        let mut hist = Histogram::new();
        let mut start_tok = 0usize;
        let mut start_byte = 0usize;
        let mut span = 0usize;
        for (i, &t) in tokens.iter().enumerate() {
            hist.record(t);
            span += t.input_len();
            let is_last = i + 1 == tokens.len();
            if is_last || i + 1 - start_tok >= MAX_BLOCK_TOKENS || span >= MAX_BLOCK_BYTES {
                hist.record_end_of_block();
                choose_and_encode_block(
                    w,
                    &data[start_byte..start_byte + span],
                    &tokens[start_tok..=i],
                    &hist,
                    is_last && last,
                    rung,
                );
                hist.clear();
                start_tok = i + 1;
                start_byte += span;
                span = 0;
            }
        }
    }

    /// Token indices where the parent's loop cuts a block (after the last
    /// token of each block but the stream's last).
    fn cuts(tokens: &[Token]) -> Vec<usize> {
        let (mut open, mut span, mut cuts) = (0, 0, Vec::new());
        for (i, t) in tokens.iter().enumerate() {
            (open, span) = (open + 1, span + t.input_len());
            if open >= MAX_BLOCK_TOKENS || span >= MAX_BLOCK_BYTES {
                (open, span) = (0, 0);
                cuts.push(i + 1);
            }
        }
        cuts
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn the_sink_cuts_and_writes_the_parents_blocks(
            seed in proptest::prelude::any::<u64>(),
            len in 200_000usize..420_000,
            (end_at_a_cut, last, prefix) in (
                proptest::prelude::any::<bool>(),
                proptest::prelude::any::<bool>(),
                0u32..8,
            ),
        ) {
            // Tokens pushed one at a time; a stream that ends on a cut, so
            // its last token fills the last block. The writer may stand
            // mid-byte.
            let data = nx_corpus::mixed(seed, len);
            let mut tokens = deflate_tokens(&data, level(1));
            if end_at_a_cut {
                tokens.truncate(*cuts(&tokens).last().unwrap());
            }
            let covered: usize = tokens.iter().map(Token::input_len).sum();
            let data = &data[..covered];
            let mut want = BitWriter::new();
            want.write_bits(0b1011 & ((1 << prefix) - 1), prefix);
            let mut got = want.clone();
            parent_emit_blocks(level(1), &mut want, data, &tokens, last);
            let enc = Encoder::new(level(1));
            let mut blocks = Blocks::new(Ladder::new(&enc, &mut got, data), Vec::new(), len);
            tokens.iter().for_each(|&t| blocks.push(t));
            assert!(blocks.close(last).capacity() <= MAX_BLOCK_TOKENS, "one block of tokens");
            assert!(got.finish() == want.finish());
        }
    }

    #[test]
    fn no_tokens_make_the_empty_stream() {
        // The parent's empty final fixed block if the stream ends here; if
        // more follows, nothing (the parent wrote a final block either way).
        let enc = Encoder::new(level(6));
        let (mut want, mut got) = (BitWriter::new(), BitWriter::new());
        parent_emit_blocks(level(6), &mut want, &[], &[], true);
        Blocks::new(Ladder::new(&enc, &mut got, &[]), Vec::new(), 0).close(true);
        assert_eq!(got.finish(), want.finish());
        let mut more = BitWriter::new();
        more.write_bits(0b101, 3);
        Blocks::new(Ladder::new(&enc, &mut more, &[]), Vec::new(), 0).close(false);
        assert_eq!(more.bit_len(), 3, "an empty non-final close writes nothing");
    }

    /// The batch-matcher rungs the emit-behind route serves.
    const BEHIND_RUNGS: [(u32, Engine); 4] = [
        (1, Engine::Auto),
        (2, Engine::Auto),
        (3, Engine::Auto),
        (6, Engine::Speculative),
    ];

    /// Runs `chunk` behind `history` through [`emit_behind`] on a budget of
    /// its own (so the route does not depend on the host's CPUs), into a
    /// writer holding `prefix` bits, twice on one matcher, and diffs bytes
    /// and counters against the serial call. Returns the blocks the emitter
    /// wrote, which must be the serial parse's blocks if it lived.
    fn behind_as_serial(
        (level, engine): (u32, Engine),
        history: &[u8],
        chunk: &[u8],
        (prefix, last): (u32, bool),
        emit: Emitter,
    ) -> Option<usize> {
        let enc = Encoder::with_engine(self::level(level), engine);
        let mut entry = BitWriter::new();
        entry.write_bits(0b0110_1011 & ((1 << prefix) - 1), prefix);
        let mut want = entry.clone();
        let serial = (&mut Hash4Matcher::new(), &mut Vec::new(), &mut Vec::new());
        enc.encode_chunk(&mut want, history, chunk, serial, None, last);
        let want = want.finish();
        let input = [history, chunk].concat();
        let (mut m, mut tokens) = (Hash4Matcher::new(), Vec::new());
        parse(
            &input,
            history.len(),
            level,
            Engine::Speculative,
            &mut m,
            &mut tokens,
        );
        let want_stats = m.take_stats();
        let mut handed = Vec::new();
        for _ in 0..2 {
            m.reset();
            let mut got = entry.clone();
            let route = (Workers::new(1).claim(2), emit);
            let parts = (&mut m, &mut Vec::new());
            handed.push(emit_behind(
                &enc,
                &mut got,
                &input,
                history.len(),
                parts,
                route,
                last,
            ));
            assert!(got.finish() == want, "level {level} {engine:?}");
            assert_eq!(m.take_stats(), want_stats, "level {level} {engine:?}");
        }
        assert_eq!(handed[0], handed[1]);
        if let Some(blocks) = handed[0] {
            assert_eq!(blocks, cuts(&tokens).len() + 1, "the serial parse's blocks");
        }
        handed[0]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn emitting_behind_equals_the_serial_call(
            seed in proptest::prelude::any::<u64>(),
            len in 1usize..400_000,
            history in 0usize..=crate::WINDOW_SIZE,
            pick in 0usize..BEHIND_RUNGS.len(),
            (prefix, last) in (0u32..8, proptest::prelude::any::<bool>()),
        ) {
            let data = nx_corpus::mixed(seed, history + len);
            let (history, chunk) = data.split_at(history);
            let rung = BEHIND_RUNGS[pick];
            let handed = behind_as_serial(rung, history, chunk, (prefix, last), emit_blocks);
            assert!(handed.is_some());
        }
    }

    #[test]
    fn every_rung_emits_behind_at_every_history() {
        let data = nx_corpus::mixed(21, crate::WINDOW_SIZE + (320 << 10));
        for rung in BEHIND_RUNGS {
            for history in [0, 1, 4 << 10, crate::WINDOW_SIZE] {
                let (history, chunk) = data[crate::WINDOW_SIZE - history..].split_at(history);
                let handed = behind_as_serial(rung, history, chunk, (3, true), emit_blocks);
                assert!(handed >= Some(3), "{rung:?}: {handed:?}");
            }
        }
    }

    /// An emitter that dies before it takes a block.
    fn die_at_once(_: Ladder<'_>, _: Receiver<(Block, bool)>, _: Sender<Block>) -> usize {
        panic!("emitter killed");
    }

    /// An emitter that writes three blocks, then dies.
    fn die_midway(
        mut out: Ladder<'_>,
        blocks: Receiver<(Block, bool)>,
        back: Sender<Block>,
    ) -> usize {
        for (mut block, last) in blocks.iter().take(3) {
            out.block(&mut block, last);
            back.send(block).unwrap();
        }
        assert!(out.w.bit_len() > 1 << 16, "nothing written yet");
        panic!("emitter killed");
    }

    #[test]
    fn a_dead_emitter_leaves_the_serial_bytes() {
        // Dead before or after writing blocks, from a mid-byte writer: the
        // writer is cut back, and the serial body writes the request.
        let data = nx_corpus::mixed(5, 640 << 10);
        let (history, chunk) = data.split_at(1_000);
        for emit in [die_at_once as Emitter, die_midway] {
            for rung in [(1, Engine::Auto), (6, Engine::Speculative)] {
                let got = behind_as_serial(rung, history, chunk, (5, true), emit);
                assert_eq!(got, None, "{rung:?}");
            }
        }
    }

    #[test]
    fn large_batch_matcher_encodes_emit_behind_on_the_budget() {
        // From two segments of new bytes, a batch-matcher encode on a budget
        // claims its one helper, one-shot and in a session; the sequential
        // matcher claims it to split instead. Bytes are the serial call's.
        let min = 2 * SEGMENT_MIN;
        let data = nx_corpus::mixed(13, min + 10);
        for (level, engine, len, helpers) in [
            (1, Engine::Auto, min, 1),
            (3, Engine::Speculative, min + 10, 1),
            (1, Engine::Auto, min - 1, 0),
            (0, Engine::Speculative, min, 0),
            (1, Engine::Sequential, min, 1),
        ] {
            let plain = Encoder::with_engine(self::level(level), engine);
            let budget = Workers::new(1);
            let enc = plain.clone().with_workers(budget.clone());
            assert!(enc.compress(&data[..len]) == plain.compress(&data[..len]));
            assert_eq!(budget.peak(), helpers, "level {level} {engine:?} {len}");
        }
    }
}
