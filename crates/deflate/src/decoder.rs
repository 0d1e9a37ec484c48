//! The inflate decoder: a complete RFC 1951 state machine.
//!
//! [`inflate`] decodes a whole raw-DEFLATE stream; [`Inflater`] exposes the
//! block-by-block machinery (used by the containers and by tests that probe
//! individual malformed constructs). Every producer in this workspace —
//! software levels 0–9 and both accelerator modes — is validated against
//! this decoder, and the decoder itself is validated against hand-built
//! known-answer vectors.
//!
//! # The superloop
//!
//! Decoding runs on two cooperating paths:
//!
//! * a **fast loop** (`Inflater::fast_loop`, libdeflate's shape) that runs
//!   while ≥ 16 input bytes and ≥ 274 bytes of output slack remain — the
//!   bit accumulator lives in a local, a branch-free refill to ≥ 56 bits
//!   starts every token (up to three literals, or a whole length+distance
//!   token), the next entry is looked up before a match is copied, and
//!   copies go 16 bytes at a time (8 at distances 8..=15) rounding up into
//!   the slack region. One pre-merged table lookup
//!   (see [`crate::huffman::decode`]) yields action, base value, extra-bit
//!   count and consumed bits together — the software analogue of the
//!   hardware's one-lookup-per-cycle decode pipeline;
//! * a **careful loop** that decodes one token at a time with precise
//!   bounds, limit, and EOF checks. The fast loop never commits a
//!   questionable token: on any anomaly (unassigned code, end-of-block,
//!   reserved symbol, too-far distance) it rewinds to the token start and
//!   hands over, so error semantics and boundary behavior are identical
//!   to a purely careful decode.
//!
//! Bytes produced by each path are counted process-wide; see
//! [`decode_path_counters`].
//!
//! # Set-up proportional to the request
//!
//! A 2 KiB response must not pay what a megabyte stream amortizes.
//! Dynamic-block tables are recalled, not rebuilt, when the header is
//! bit-identical to one the [`InflateScratch`] has seen repeat (its table
//! memo); the fast loop's zero-filled slack opens at what the remaining
//! input can plausibly produce and doubles back to 64 KiB; and the
//! one-shot entry points decode on the calling thread's scratch
//! (`one_shot`), so the memo hits across independent calls and a warm
//! call allocates only its result.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::bitio::BitReader;
use crate::encoder::{fixed_dist_lengths, fixed_litlen_lengths, CODELEN_ORDER};
use crate::huffman::decode::{m_consumed, m_extra, m_payload, DecodeTable, M_EOB, M_EXC, M_LIT};
use crate::{Error, Result};

/// Bytes produced by the fast inflate loop, process-wide.
static FAST_PATH_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes produced by the careful per-symbol loop, process-wide.
static CAREFUL_PATH_BYTES: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(fast, careful)` byte counters for the two inflate paths
/// over Huffman-coded blocks (stored blocks are not attributed to either).
/// Monotone; the fast-path hit rate is `fast / (fast + careful)`.
pub fn decode_path_counters() -> (u64, u64) {
    (
        FAST_PATH_BYTES.load(Ordering::Relaxed),
        CAREFUL_PATH_BYTES.load(Ordering::Relaxed),
    )
}

/// Decodes a complete raw DEFLATE stream.
///
/// # Errors
///
/// Any [`Error`] variant describing the malformation encountered.
///
/// ```
/// use nx_deflate::{deflate, inflate, CompressionLevel};
/// # fn main() -> Result<(), nx_deflate::Error> {
/// let out = deflate(b"data", CompressionLevel::new(1)?);
/// assert_eq!(inflate(&out)?, b"data");
/// # Ok(())
/// # }
/// ```
pub fn inflate(data: &[u8]) -> Result<Vec<u8>> {
    inflate_with_limit(data, usize::MAX)
}

/// Decodes a raw DEFLATE stream, failing with
/// [`Error::OutputLimitExceeded`] if the output would exceed `limit` bytes.
///
/// The limit makes the decoder safe against decompression bombs when the
/// caller knows an upper bound.
pub fn inflate_with_limit(data: &[u8], limit: usize) -> Result<Vec<u8>> {
    let body = |scratch: &mut _, out: &mut _| decode_into(data, &[], limit, scratch, out);
    one_shot(data.len(), &[], body).map(|(out, _)| out)
}

/// Decodes a raw DEFLATE stream with the fast loop disabled — the
/// reference path the differential test battery compares against.
#[doc(hidden)]
pub fn inflate_careful(data: &[u8]) -> Result<Vec<u8>> {
    let mut inf = Inflater::new(data);
    inf.disable_fast_path();
    inf.run(usize::MAX)?;
    Ok(inf.into_output())
}

/// Decodes a raw DEFLATE stream into a caller-provided output buffer,
/// reusing `scratch` for decode tables and code-length staging — the
/// zero-allocation steady-state entry point.
///
/// `out` is cleared first; on success it holds the decoded bytes. On error
/// its contents are unspecified but its capacity (and the scratch tables)
/// remain available for reuse.
///
/// # Errors
///
/// As [`inflate`].
pub fn inflate_into(data: &[u8], scratch: &mut InflateScratch, out: &mut Vec<u8>) -> Result<()> {
    decode_into(data, &[], usize::MAX, scratch, out).map(drop)
}

/// The one decode body behind every one-shot and `_into` entry point of
/// this crate: `data` decoded against `dict` (may be empty) into `out`
/// (cleared first), tables in `scratch`. Returns the input bytes consumed.
pub(crate) fn decode_into(
    data: &[u8],
    dict: &[u8],
    limit: usize,
    scratch: &mut InflateScratch,
    out: &mut Vec<u8>,
) -> Result<usize> {
    let mut inf = Inflater::with_reuse(data, std::mem::take(scratch), std::mem::take(out));
    inf.prime_window(dict);
    let res = inf.run(limit);
    let used = inf.byte_position();
    (*out, *scratch) = inf.into_parts();
    res.map(|()| used)
}

/// Runs an `_into` decode body on the calling thread's long-lived
/// [`InflateScratch`], so independent one-shot calls reuse one another's
/// decode tables (the scratch's table memo), and on a fresh output reserved
/// once for `dict`'s window plus what `input_len` bytes plausibly decode
/// to: a warm call allocates only its result. Per thread that scratch
/// holds what the traffic built: ~7 KiB of shared tables and ~6 KiB per
/// repeating header, at most [`TABLE_WAYS`] of them.
pub(crate) fn one_shot<T>(
    input_len: usize,
    dict: &[u8],
    body: impl FnOnce(&mut InflateScratch, &mut Vec<u8>) -> Result<T>,
) -> Result<(Vec<u8>, T)> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<InflateScratch> = std::cell::RefCell::default();
    }
    let window = dict.len().min(crate::WINDOW_SIZE);
    let mut out = Vec::with_capacity(window + initial_capacity(input_len));
    let extra = SCRATCH.with(|scratch| body(&mut scratch.borrow_mut(), &mut out))?;
    Ok((out, extra))
}

/// Per-block structural record collected when tracing is enabled — the
/// input to `nx-accel`'s decompressor cycle model. Counts, not tokens: the
/// loops tally matches; literals are what those leave of `output_bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTrace {
    /// Block type field (0 stored, 1 fixed, 2 dynamic).
    pub btype: u8,
    /// Bits consumed by the block header (incl. BFINAL/BTYPE and, for
    /// dynamic blocks, the whole code-length stream).
    pub header_bits: u64,
    /// Literal symbols decoded (0 for stored blocks).
    pub literals: u64,
    /// Length/distance symbols decoded (0 for stored blocks).
    pub matches: u64,
    /// Uncompressed bytes this block produced.
    pub output_bytes: u64,
    /// Total bits of the block including the header.
    pub total_bits: u64,
}

/// What a traced decode saw of one stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamTrace {
    /// One record per block, in stream order.
    pub blocks: Vec<BlockTrace>,
    /// `match_lens[len]` matches of length `len` (3..=258), all blocks.
    pub match_lens: [u64; crate::MAX_MATCH + 1],
    /// Input bytes consumed, rounded up to whole bytes.
    pub consumed: usize,
}

impl Default for StreamTrace {
    fn default() -> Self {
        Self {
            blocks: Vec::new(),
            match_lens: [0; crate::MAX_MATCH + 1],
            consumed: 0,
        }
    }
}

/// A trace in the making: the stream's record, the block's counts, the tallies.
#[derive(Debug, Default)]
struct Tracer {
    trace: StreamTrace,
    matches: u64,
    match_bytes: u64,
    reads: Vec<(usize, Vec<bool>)>,
}

impl Tracer {
    /// A match of `len` bytes passed every check and is about to be copied.
    #[inline(always)]
    fn matched(&mut self, len: usize) {
        self.trace.match_lens[len.min(crate::MAX_MATCH)] += 1;
        self.matches += 1;
        self.match_bytes += len as u64;
    }

    /// Marks in every window-read tally what a match of `len` bytes,
    /// `distance` back from output offset `at`, reads.
    fn mark_reads(&mut self, len: usize, at: usize, distance: usize) {
        for (from, marks) in &mut self.reads {
            // Where the source sits in the window before `from`, cut at it.
            let j = (at + crate::WINDOW_SIZE - distance).wrapping_sub(*from);
            if let Some(read) = marks.get_mut(j..j.saturating_add(len).min(crate::WINDOW_SIZE)) {
                read.fill(true);
            }
        }
    }
}

/// Decodes a raw DEFLATE stream produced against a preset dictionary
/// (see [`crate::encoder::deflate_with_dict`]).
///
/// # Errors
///
/// As [`inflate`].
pub fn inflate_with_dict(data: &[u8], dict: &[u8]) -> Result<Vec<u8>> {
    let body = |scratch: &mut _, out: &mut _| decode_into(data, dict, usize::MAX, scratch, out);
    one_shot(data.len(), dict, body).map(|(out, _)| out)
}

/// Decodes a dictionary-primed raw DEFLATE stream into a caller-provided
/// buffer, reusing `scratch` — the preset-dictionary twin of
/// [`inflate_into`]. `out` is cleared first.
///
/// # Errors
///
/// As [`inflate`].
pub fn inflate_with_dict_into(
    data: &[u8],
    dict: &[u8],
    scratch: &mut InflateScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    decode_into(data, dict, usize::MAX, scratch, out).map(drop)
}

/// Decodes a raw DEFLATE stream as [`inflate_into`] does, recording the
/// per-block structure as it goes — the hook the accelerator's decompressor
/// cycle model is driven from. `size_hint` is the decoded size the container
/// claims (0 = unknown, capped as in [`Inflater::reserve_output`]): with the
/// fast loop's slack on top, a true hint makes `out`'s one reservation its last.
///
/// # Errors
///
/// As [`inflate`].
pub fn inflate_traced_into(
    data: &[u8],
    size_hint: usize,
    scratch: &mut InflateScratch,
    out: &mut Vec<u8>,
) -> Result<StreamTrace> {
    let mut inf = Inflater::with_reuse(data, std::mem::take(scratch), std::mem::take(out));
    let seed = initial_capacity(data.len());
    inf.reserve_output(size_hint.max(seed) + seed.min(FAST_CHUNK));
    inf.trace = Some(Box::default());
    let res = inf.run(usize::MAX);
    let (consumed, tracer) = (inf.byte_position(), inf.trace.take().unwrap_or_default());
    (*out, *scratch) = inf.into_parts();
    res.map(|()| StreamTrace {
        consumed,
        ..tracer.trace
    })
}

/// The fixed-Huffman decode tables never change (RFC 1951 §3.2.6);
/// build them once per process instead of per block.
pub(crate) fn fixed_decode_tables() -> &'static (DecodeTable, DecodeTable) {
    static TABLES: std::sync::OnceLock<(DecodeTable, DecodeTable)> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        match (
            DecodeTable::new_litlen(&fixed_litlen_lengths()),
            DecodeTable::new_dist(&fixed_dist_lengths()),
        ) {
            (Ok(litlen), Ok(dist)) => (litlen, dist),
            // The inputs are the RFC 1951 §3.2.6 constants — a complete,
            // valid code by definition.
            _ => unreachable!("RFC 1951 fixed code lengths form a valid code"),
        }
    })
}

/// Headers an [`InflateScratch`] remembers: the five shipped profile
/// classes and a few more.
const TABLE_WAYS: usize = 8;
/// 32-bit words of the longest dynamic header: 14 + 19·3 bits, then 316
/// code lengths of at most 7 code + 7 repeat bits each.
const MAX_HEADER_WORDS: usize = (14 + 19 * 3 + 316 * 14_usize).div_ceil(32);

/// One remembered dynamic header: its exact bit string (HLIT through the
/// last code length) and, once it has been seen twice, its decode tables.
#[derive(Debug, Default)]
struct TableWay {
    /// The header, LSB-first in 32-bit words; the last holds `nbits % 32`.
    words: Vec<u32>,
    /// Header length in bits; 0 = nothing remembered.
    nbits: u32,
    /// Whether `litlen` / `dist` are this header's tables.
    kept: bool,
    litlen: DecodeTable,
    dist: DecodeTable,
}

impl TableWay {
    /// `reader` advanced past this way's header, if its next bits are
    /// exactly that header.
    fn recall<'a>(&self, reader: &BitReader<'a>) -> Option<BitReader<'a>> {
        if self.nbits == 0 || reader.bits_remaining() < u64::from(self.nbits) {
            return None;
        }
        let mut past = reader.clone();
        for (word, at) in self.words.iter().zip((0..self.nbits).step_by(32)) {
            if past.read_bits((self.nbits - at).min(32)) != Ok(*word) {
                return None;
            }
        }
        Some(past)
    }

    /// Remembers the bits from `start` to bit `end` as this way's header,
    /// its tables not kept.
    fn record(&mut self, mut start: BitReader, end: u64) {
        let nbits = (end - start.bits_consumed()) as u32;
        (self.nbits, self.kept) = (0, false);
        self.words.clear();
        self.words.reserve(MAX_HEADER_WORDS);
        for at in (0..nbits).step_by(32) {
            // The parse just read these bits; a way that cannot stays empty.
            let Ok(word) = start.read_bits((nbits - at).min(32)) else {
                return;
            };
            self.words.push(word);
        }
        self.nbits = nbits;
    }
}

/// Reusable inflate working state: merged decode tables, the code-length
/// table, and the code-length staging vector. Holding one of these across
/// requests makes dynamic-block table construction allocation-free in
/// steady state (tables rebuild in place; see
/// [`DecodeTable::rebuild_litlen`]).
///
/// # The table memo
///
/// The scratch remembers the exact bit strings of the last `TABLE_WAYS`
/// (8) dynamic headers it parsed, and `read_dynamic_tables` compares the
/// reader's next bits with every string, whole, before parsing. A header
/// seen for the first time builds the shared `litlen` / `dist` pair in
/// place, as ever, and leaves only its string behind; seen a second time
/// it *repeats*, so it is built once more into tables of its own, kept
/// beside the string; from the third time on it is a hit, which skips the
/// parse. **Hit ⇔ bit-identical header** (no hash, length or profile-id
/// shortcut): parsing is a pure function of those bits, so a hit yields
/// the same tables and consumed-bit count, and no error, only finished
/// builds being kept. New strings go round-robin into ways that keep no
/// tables, so one-off headers cannot evict a repeating one while any
/// other way is free; a build that fails remembers nothing. This pays on
/// traffic that *repeats a dynamic header* (streams written from canned
/// tables); encoders that fit a header to each block never repeat one,
/// and there the memo costs a short compare per way and a copy of the
/// header per block, the tables being built where they always were.
#[derive(Debug, Default)]
pub struct InflateScratch {
    litlen: DecodeTable,
    dist: DecodeTable,
    ways: Vec<TableWay>,
    cl: DecodeTable,
    lengths: Vec<u8>,
    table_hits: u64,
    table_builds: u64,
}

impl InflateScratch {
    /// Fresh, empty scratch (first use populates the tables).
    pub fn new() -> Self {
        Self::default()
    }

    /// `(hits, builds)` of the table memo over this scratch's life: dynamic
    /// headers answered from kept tables, and headers parsed and built.
    pub fn table_stats(&self) -> (u64, u64) {
        (self.table_hits, self.table_builds)
    }
}

/// The most slack the fast loop opens (and zero-fills) at once.
const FAST_CHUNK: usize = 64 * 1024;

/// What `input_len` bytes of DEFLATE plausibly decode to: payloads in the
/// wild expand 2–4×. Seeds output capacity and the fast loop's first slack
/// region; floored so small streams do not regrow, capped so a tiny hostile
/// input cannot force a large reservation.
fn initial_capacity(input_len: usize) -> usize {
    input_len.saturating_mul(4).clamp(4096, 1 << 20)
}

/// The block an engine stands in between two tokens, `start` being its header's bit:
/// dacha's `CompressedBlockBody` minus `pending_ref`, as no engine stops inside a token.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Open {
    start: u64,
    pub(crate) last: bool,
    pub(crate) body: Body,
}

/// A stored block's payload bytes still to come, or where a Huffman block's
/// tables are: the fixed pair, the scratch's shared pair, or a kept way's.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Body {
    Stored(u16),
    Fixed,
    Shared,
    Kept(usize),
}

impl InflateScratch {
    /// The `(litlen, dist)` pair of a Huffman block's `body`.
    pub(crate) fn tables(&self, body: Body) -> (&DecodeTable, &DecodeTable) {
        match body {
            Body::Shared => (&self.litlen, &self.dist),
            Body::Kept(at) => (&self.ways[at].litlen, &self.ways[at].dist),
            _ => (&fixed_decode_tables().0, &fixed_decode_tables().1),
        }
    }
}

/// Reads the block header at `reader` — through the table memo, a stored
/// block's through LEN/NLEN — and opens the block.
pub(crate) fn open_block(reader: &mut BitReader, scratch: &mut InflateScratch) -> Result<Open> {
    let start = reader.bits_consumed();
    let last = reader.read_bits(1)? == 1;
    let body = match reader.read_bits(2)? {
        0b00 => {
            reader.align_to_byte();
            let len_nlen = reader.read_bits(32)?;
            let len = len_nlen as u16;
            (len == !(len_nlen >> 16) as u16)
                .then_some(Body::Stored(len))
                .ok_or(Error::StoredLengthMismatch)?
        }
        0b01 => Body::Fixed,
        0b10 => read_dynamic_tables(reader, scratch)?,
        _ => return Err(Error::ReservedBlockType),
    };
    Ok(Open { start, last, body })
}

/// Moves `reader` to `block_bit`, opens the block whose header is there and
/// moves on to `bit_offset`, a token boundary in it (in a stored payload, a
/// byte): the one way into a block's middle, O(1) in the body it skips.
/// `None`, no block open, when the two are equal: a block boundary.
pub(crate) fn enter_block(
    reader: &mut BitReader,
    scratch: &mut InflateScratch,
    block_bit: u64,
    bit_offset: u64,
) -> Result<Option<Open>> {
    reader.seek(block_bit)?;
    if bit_offset == block_bit {
        return Ok(None);
    }
    let mut open = open_block(reader, scratch)?;
    let into = bit_offset.checked_sub(reader.bits_consumed());
    let into = into.ok_or(Error::UnexpectedEof)?;
    if let Body::Stored(left) = &mut open.body {
        let bytes = u16::try_from(into / 8)
            .ok()
            .filter(|&n| into % 8 == 0 && n <= *left);
        *left -= bytes.ok_or(Error::UnexpectedEof)?;
    }
    reader.seek(bit_offset).map(|()| Some(open))
}

/// How many of a stored block's `left` payload bytes to copy with `room`
/// bytes of output to go, and why fewer stop: the limit or the input.
pub(crate) fn stored_share(left: u16, room: usize, reader: &BitReader) -> (usize, Result<()>) {
    let avail = (reader.bits_remaining() / 8).min(u64::from(left)) as usize;
    let n = avail.min(room);
    match n < usize::from(left) {
        false => (n, Ok(())),
        true if n < avail => (n, Err(Error::OutputLimitExceeded)),
        true => (n, Err(Error::UnexpectedEof)),
    }
}

/// Says where the literal/length and distance tables of the dynamic-block
/// header at `reader` (HLIT/HDIST/HCLEN, the code-length code, and the
/// run-length-encoded lengths) are, consuming it: in `scratch`'s table memo
/// when it holds this very header, else parsed and built in place.
///
/// Shared by [`Inflater`] and the marker decoder `nxbench` probes
/// ([`crate::marker::MarkerInflater`]), so both accept the same headers:
/// alphabet bounds, the Kraft inequality via table construction and a
/// present end-of-block code are checked once, here.
fn read_dynamic_tables(reader: &mut BitReader, scratch: &mut InflateScratch) -> Result<Body> {
    let (cl, lengths) = (&mut scratch.cl, &mut scratch.lengths);
    let mut remembered = scratch.ways.iter().enumerate();
    let kept = match remembered.find_map(|(i, w)| Some((i, w.recall(reader)?))) {
        Some((at, past)) if scratch.ways[at].kept => {
            *reader = past;
            scratch.table_hits += 1;
            Some(at)
        }
        // The second sighting: this header repeats, so keep its tables.
        Some((at, _)) => {
            let way = &mut scratch.ways[at];
            let nbits = std::mem::take(&mut way.nbits);
            parse_dynamic_header(reader, cl, lengths, &mut way.litlen, &mut way.dist)?;
            (way.nbits, way.kept) = (nbits, true);
            scratch.table_builds += 1;
            Some(at)
        }
        None => {
            let (start, ways) = (reader.clone(), &mut scratch.ways);
            parse_dynamic_header(reader, cl, lengths, &mut scratch.litlen, &mut scratch.dist)?;
            if ways.len() < TABLE_WAYS {
                ways.push(TableWay::default());
            }
            // The string alone goes round-robin into a way that keeps no
            // tables, and only when all of them do, over one that does.
            let (n, from) = (ways.len(), scratch.table_builds as usize);
            let unkept = (0..n).map(|k| (from + k) % n).find(|&i| !ways[i].kept);
            ways[unkept.unwrap_or(from % n)].record(start, reader.bits_consumed());
            scratch.table_builds += 1;
            None
        }
    };
    Ok(kept.map_or(Body::Shared, Body::Kept))
}

/// Parses the header at `reader` and rebuilds `litlen` / `dist` in place.
fn parse_dynamic_header(
    reader: &mut BitReader,
    cl: &mut DecodeTable,
    lengths: &mut Vec<u8>,
    litlen: &mut DecodeTable,
    dist: &mut DecodeTable,
) -> Result<()> {
    let hlit = reader.read_bits(5)? as usize + 257;
    let hdist = reader.read_bits(5)? as usize + 1;
    let hclen = reader.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(Error::InvalidCodeLengths);
    }

    let mut cl_lengths = [0u8; 19];
    for &sym in CODELEN_ORDER.iter().take(hclen) {
        cl_lengths[sym] = reader.read_bits(3)? as u8;
    }
    cl.rebuild_plain(&cl_lengths)?;

    let total = hlit + hdist;
    lengths.clear();
    lengths.resize(total, 0);
    let mut i = 0usize;
    while i < total {
        let sym = cl.decode(reader)?;
        match sym {
            0..=15 => {
                lengths[i] = sym as u8;
                i += 1;
            }
            16 => {
                if i == 0 {
                    return Err(Error::RepeatWithoutPrevious);
                }
                let prev = lengths[i - 1];
                let n = 3 + reader.read_bits(2)? as usize;
                if i + n > total {
                    return Err(Error::TooManyCodeLengths);
                }
                for _ in 0..n {
                    lengths[i] = prev;
                    i += 1;
                }
            }
            17 => {
                let n = 3 + reader.read_bits(3)? as usize;
                if i + n > total {
                    return Err(Error::TooManyCodeLengths);
                }
                i += n; // already zero
            }
            18 => {
                let n = 11 + reader.read_bits(7)? as usize;
                if i + n > total {
                    return Err(Error::TooManyCodeLengths);
                }
                i += n;
            }
            _ => return Err(Error::InvalidSymbol),
        }
    }

    // The literal/length alphabet must contain the end-of-block code.
    if lengths[256] == 0 {
        return Err(Error::InvalidCodeLengths);
    }
    litlen.rebuild_litlen(&lengths[..hlit])?;
    dist.rebuild_dist(&lengths[hlit..])
}

/// Incremental inflate engine over a borrowed input slice.
#[derive(Debug)]
pub struct Inflater<'a> {
    reader: BitReader<'a>,
    out: Vec<u8>,
    /// Bytes of preset dictionary at the front of `out` (never returned).
    primed: usize,
    finished: bool,
    /// The block the engine stopped inside, if it did.
    pub(crate) open: Option<Open>,
    /// Where the careful loop's token began, for a failing one to go back to
    /// (a field: as a local, live across the token, it cost 2 KiB streams 4–6 %).
    token_bit: u64,
    trace: Option<Box<Tracer>>,
    scratch: InflateScratch,
    fast_enabled: bool,
}

impl<'a> Inflater<'a> {
    /// Creates an engine at the start of `data`. The output buffer is
    /// seeded with a ratio-based capacity guess; callers that know the
    /// decoded size (e.g. from a gzip ISIZE trailer) should refine it via
    /// [`reserve_output`](Self::reserve_output).
    pub fn new(data: &'a [u8]) -> Self {
        let out = Vec::with_capacity(initial_capacity(data.len()));
        Self::with_reuse(data, InflateScratch::default(), out)
    }

    /// Enters the block whose header begins at bit `block_bit` at
    /// `bit_offset`, a token boundary inside it: where
    /// [`block_bit`](Self::block_bit) and [`bit_position`](Self::bit_position)
    /// stood when a decode stopped there. Reads the header (through the
    /// table memo) and moves the reader, in O(1) of the body skipped; equal
    /// offsets are a block boundary and read nothing. Offsets count from the
    /// start of this engine's input, whose byte alignment stored blocks keep.
    ///
    /// # Errors
    ///
    /// The header's own; [`Error::UnexpectedEof`] if an offset lies past
    /// the input or `bit_offset` is no point of the block.
    pub fn resume_at(&mut self, block_bit: u64, bit_offset: u64) -> Result<()> {
        self.open = enter_block(&mut self.reader, &mut self.scratch, block_bit, bit_offset)?;
        Ok(())
    }

    /// Creates an engine that reuses a previous decode's scratch tables
    /// and output buffer (cleared, capacity kept) — see [`inflate_into`].
    pub fn with_reuse(data: &'a [u8], scratch: InflateScratch, mut out: Vec<u8>) -> Self {
        out.clear();
        Self {
            reader: BitReader::new(data),
            out,
            primed: 0,
            finished: false,
            open: None,
            token_bit: 0,
            trace: None,
            scratch,
            fast_enabled: true,
        }
    }

    /// Consumes the engine, returning the decoded bytes (excluding any
    /// primed dictionary) together with the reusable scratch state.
    pub fn into_parts(mut self) -> (Vec<u8>, InflateScratch) {
        self.out.drain(..self.primed);
        (self.out, self.scratch)
    }

    /// Grows the output buffer's capacity toward `hint` expected decoded
    /// bytes. A hint is advisory: wrong values cost at most a reallocation
    /// or some slack, never correctness, and hostile hints are capped.
    pub fn reserve_output(&mut self, hint: usize) {
        // Never reserve more than the theoretical DEFLATE expansion of the
        // remaining input (~1032×) or a hard 256 MiB roof.
        let input_len = self.reader.input().len();
        let cap = hint.min(input_len.saturating_mul(1032)).min(1 << 28);
        self.out.reserve(cap);
    }

    /// Disables the fast loop, forcing every token through the careful
    /// per-symbol path — the reference mode for differential testing.
    pub fn disable_fast_path(&mut self) {
        self.fast_enabled = false;
    }

    /// The window-read tallies. Push `(from, marks)` at output offset `from`
    /// and each later match sets `marks[j]` for every byte it reads
    /// `WINDOW_SIZE - j` before `from`: a window on, every window byte the
    /// output past `from` holds. The first call turns on the traced loops.
    pub fn window_reads(&mut self) -> &mut Vec<(usize, Vec<bool>)> {
        &mut self.trace.get_or_insert_with(Box::default).reads
    }

    /// Primes the window with a preset dictionary (its last 32 KB), the
    /// inflate side of zlib's `inflateSetDictionary`. Must be called
    /// before any block is decoded.
    ///
    /// # Panics
    ///
    /// Panics if output has already been produced.
    pub fn prime_window(&mut self, dict: &[u8]) {
        assert!(self.out.is_empty(), "prime_window after decoding started");
        let d = &dict[dict.len().saturating_sub(crate::WINDOW_SIZE)..];
        // Room for the window and the fast loop's first slack region at
        // once, so priming and that first `resize` reallocate at most once.
        let slack = initial_capacity(self.reader.input().len()).min(FAST_CHUNK);
        self.out.reserve(d.len() + slack);
        self.out.extend_from_slice(d);
        self.primed = d.len();
    }

    /// Runs the state machine to stream end.
    ///
    /// # Errors
    ///
    /// See [`inflate_with_limit`].
    pub fn run(&mut self, limit: usize) -> Result<()> {
        while !self.finished {
            self.decode_block(limit)?;
        }
        Ok(())
    }

    /// Decodes one block (header + body), or the rest of the one it stopped
    /// inside: a call that hits `limit` or the end of the input stops where
    /// the token that does not fit begins (the block stays open), one that
    /// cannot read a header where the block begins.
    ///
    /// # Errors
    ///
    /// See [`inflate_with_limit`].
    pub fn decode_block(&mut self, limit: usize) -> Result<()> {
        let start_bits = self.reader.bits_consumed();
        let out_start = self.out.len();
        let open = match self.open {
            Some(open) => open,
            None => open_block(&mut self.reader, &mut self.scratch)
                .or_else(|e| self.reader.seek(start_bits).and(Err(e)))?,
        };
        let header_end_bits = self.reader.bits_consumed();
        self.open = Some(open);
        match open.body {
            Body::Stored(left) => self.stored_block(left, limit)?,
            tables => {
                // The scratch is moved out for the body so the table borrows
                // don't pin `self`, and moved back unconditionally to keep
                // its capacity for reuse.
                let scratch = std::mem::take(&mut self.scratch);
                let (litlen, dist) = scratch.tables(tables);
                let res = self.huffman_block(litlen, dist, limit);
                self.scratch = scratch;
                res?;
            }
        }
        self.open = None;
        if let Some(t) = &mut self.trace {
            let output_bytes = (self.out.len() - out_start) as u64;
            // Stored bytes are no symbols; elsewhere the literals produced
            // what the matches did not.
            let (btype, huffman_bytes) = match open.body {
                Body::Stored(_) => (0, 0),
                Body::Fixed => (1, output_bytes),
                _ => (2, output_bytes),
            };
            t.trace.blocks.push(BlockTrace {
                btype,
                header_bits: header_end_bits - start_bits,
                literals: huffman_bytes.saturating_sub(t.match_bytes),
                matches: std::mem::take(&mut t.matches),
                output_bytes,
                total_bits: self.reader.bits_consumed() - start_bits,
            });
            t.match_bytes = 0;
        }
        self.finished |= open.last;
        Ok(())
    }

    /// Bit at which the block the engine stands in began: the open block's
    /// header, or [`bit_position`](Self::bit_position) between blocks.
    pub fn block_bit(&self) -> u64 {
        self.open.map_or(self.bit_position(), |open| open.start)
    }

    /// Whether the final block has been decoded.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Bits consumed from the input so far.
    pub fn bit_position(&self) -> u64 {
        self.reader.bits_consumed()
    }

    /// Bytes consumed from the input, rounded up to whole bytes.
    pub fn byte_position(&self) -> usize {
        (self.bit_position().div_ceil(8)) as usize
    }

    /// Output decoded so far (excluding any primed dictionary).
    pub fn output(&self) -> &[u8] {
        &self.out[self.primed..]
    }

    /// Consumes the engine, returning the decoded bytes (excluding any
    /// primed dictionary).
    pub fn into_output(self) -> Vec<u8> {
        self.into_parts().0
    }

    fn push(&mut self, b: u8, limit: usize) -> Result<()> {
        if self.out.len() - self.primed >= limit {
            return Err(Error::OutputLimitExceeded);
        }
        self.out.push(b);
        Ok(())
    }

    /// Copies what fits of a stored block's `left` payload bytes.
    fn stored_block(&mut self, left: u16, limit: usize) -> Result<()> {
        let room = limit.saturating_sub(self.out.len() - self.primed);
        let (n, stop) = stored_share(left, room, &self.reader);
        let start = self.out.len();
        self.out.resize(start + n, 0);
        self.reader.read_bytes(&mut self.out[start..])?;
        if let Some(Open { body, .. }) = &mut self.open {
            *body = Body::Stored(left - n as u16);
        }
        stop
    }

    fn huffman_block(
        &mut self,
        litlen: &DecodeTable,
        dist: &DecodeTable,
        limit: usize,
    ) -> Result<()> {
        let use_fast = self.fast_enabled && litlen.is_merged();
        let mut careful_bytes = 0u64;
        let res = loop {
            // One loop in the source, instantiated without its tally (the
            // loop alone), with it, and with it and window reads.
            match (use_fast, self.trace.as_ref().map(|t| t.reads.is_empty())) {
                (true, Some(true)) => self.fast_loop::<true, false>(litlen, dist, limit),
                (true, Some(false)) => self.fast_loop::<true, true>(litlen, dist, limit),
                (true, None) => self.fast_loop::<false, false>(litlen, dist, limit),
                (false, _) => {}
            }
            // A token that fails is not begun: the reader goes back to its
            // start, where the block resumes after the limit or end of input.
            self.token_bit = self.reader.bits_consumed();
            match self.careful_token(litlen, dist, limit, &mut careful_bytes) {
                Ok(true) => break Ok(()),
                Ok(false) => {}
                Err(e) => break self.reader.seek(self.token_bit).and(Err(e)),
            }
        };
        if careful_bytes > 0 {
            CAREFUL_PATH_BYTES.fetch_add(careful_bytes, Ordering::Relaxed);
        }
        res
    }

    /// Decodes one token on the careful path. Returns `Ok(true)` on
    /// end-of-block.
    fn careful_token(
        &mut self,
        litlen: &DecodeTable,
        dist: &DecodeTable,
        limit: usize,
        careful_bytes: &mut u64,
    ) -> Result<bool> {
        let e = litlen.decode_entry(&mut self.reader)?;
        if e & M_LIT != 0 {
            self.push(m_payload(e) as u8, limit)?;
            *careful_bytes += 1;
            return Ok(false);
        }
        if e & M_EOB != 0 {
            return Ok(true);
        }
        if e & M_EXC != 0 {
            // Reserved literal/length symbols 286/287.
            return Err(Error::InvalidLengthOrDistance);
        }
        let len = m_payload(e) as usize + self.reader.read_bits(m_extra(e))? as usize;
        let de = dist.decode_entry(&mut self.reader)?;
        if de & M_EXC != 0 {
            // Reserved distance symbols 30/31.
            return Err(Error::InvalidLengthOrDistance);
        }
        let distance = m_payload(de) as usize + self.reader.read_bits(m_extra(de))? as usize;
        if distance > self.out.len() {
            return Err(Error::DistanceTooFar);
        }
        if self.out.len() - self.primed + len > limit {
            return Err(Error::OutputLimitExceeded);
        }
        if let Some(tracer) = &mut self.trace {
            tracer.matched(len);
            tracer.mark_reads(len, self.out.len() - self.primed, distance);
        }
        let start = self.out.len() - distance;
        if distance >= len {
            self.out.extend_from_within(start..start + len);
        } else {
            // Overlapping copy (RLE semantics): out[start..] is periodic
            // with period `distance`, so appending any prefix of it
            // continues the pattern. The available source doubles each
            // pass.
            let mut remaining = len;
            while remaining > 0 {
                let take = remaining.min(self.out.len() - start);
                self.out.extend_from_within(start..start + take);
                remaining -= take;
            }
        }
        *careful_bytes += len as u64;
        Ok(false)
    }

    /// The fast inner loop, in libdeflate's shape. Decodes tokens while
    /// safety margins hold and hands any anomaly back to the careful loop
    /// with the reader rewound to the start of the offending token.
    /// Infallible by construction: it only commits tokens the careful path
    /// would also accept.
    ///
    /// Every token starts on a branch-free refill (≥ 56 bits), and the next
    /// literal/length entry is looked up before a match is copied, so the
    /// table load overlaps the copy. Safety margins (DESIGN.md has the
    /// full argument):
    /// * **input**: runs while `pos + 16 <= data.len()`; an iteration
    ///   refills at most twice (at its start, and before a match that
    ///   follows its literals), each moving `pos` ≤ 7 bytes, so every
    ///   8-byte load is in bounds. 56 bits hold three literals (≤ 45) or a
    ///   whole length/distance token (15 + 5 + 15 + 13 = 48), and the
    ///   ≥ 16 look-ahead bits left after either resolve the next lookup;
    /// * **output**: runs while `wpos + SLACK <= fence`, `SLACK` = two
    ///   literals + the longest match (258) rounded up to whole 16-byte
    ///   copies (272) = 274, so wide copies may overshoot into slack that
    ///   `truncate` trims afterwards;
    /// * **limit**: the slack fence never extends past `primed + limit`,
    ///   so the fast loop can never overrun the caller's output limit —
    ///   near the limit it defers to the careful loop's exact check.
    ///
    /// `TALLY` (a traced decode) counts a match where it is committed, so one
    /// handed back through `snap` is counted by the careful loop alone;
    /// `READS` marks it in the window-read tallies there too.
    fn fast_loop<const TALLY: bool, const READS: bool>(
        &mut self,
        litlen: &DecodeTable,
        dist: &DecodeTable,
        limit: usize,
    ) {
        const SLACK: usize = 2 + 272;
        let (mut tracer, primed) = (self.trace.as_deref_mut(), self.primed);
        let data = self.reader.input();
        let (mut acc, mut nbits, mut pos) = self.reader.fast_state();
        // ORs in the next 8 input bytes and absorbs the whole ones that fit:
        // `nbits` ends at 56..=63 (see `BitReader::refill`).
        let refill = |acc: &mut u64, nbits: &mut u32, pos: &mut usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&data[*pos..*pos + 8]);
            *acc |= u64::from_le_bytes(w) << *nbits;
            *pos += ((63 - *nbits) >> 3) as usize;
            *nbits |= 56;
        };
        let mut wpos = self.out.len();
        let start_wpos = wpos;
        let limit_bound = self.primed.saturating_add(limit);
        // The zero-filled slack region opens at what the remaining input
        // can plausibly produce and doubles back to `FAST_CHUNK`: a 2 KiB
        // response must not memset 64 KiB, and anything past 16 KiB of
        // input opens at the full chunk.
        let mut chunk = initial_capacity(data.len() - pos).min(FAST_CHUNK);
        'outer: while pos + 16 <= data.len() {
            // Open a slack region: resize (not reserve) so the wide copies
            // below can index freely; trimmed back to `wpos` on exit.
            let target = wpos.saturating_add(chunk).min(limit_bound);
            chunk = (2 * chunk).min(FAST_CHUNK);
            if target < wpos.saturating_add(SLACK) {
                break;
            }
            if self.out.len() < target {
                self.out.resize(target, 0);
            }
            let out = self.out.as_mut_slice();
            let fence = out.len();
            refill(&mut acc, &mut nbits, &mut pos);
            // The entry of the token at hand, looked up ahead of it.
            let mut e = litlen.lookup(acc);
            while pos + 16 <= data.len() && wpos + SLACK <= fence {
                refill(&mut acc, &mut nbits, &mut pos);
                if e & M_LIT != 0 {
                    // Up to three literals on one refill, each looking up
                    // the next entry as it is written.
                    out[wpos] = m_payload(e) as u8;
                    (acc, nbits, wpos) = (acc >> m_consumed(e), nbits - m_consumed(e), wpos + 1);
                    e = litlen.lookup(acc);
                    if e & M_LIT != 0 {
                        out[wpos] = m_payload(e) as u8;
                        (acc, nbits, wpos) =
                            (acc >> m_consumed(e), nbits - m_consumed(e), wpos + 1);
                        e = litlen.lookup(acc);
                        if e & M_LIT != 0 {
                            out[wpos] = m_payload(e) as u8;
                            (acc, nbits, wpos) =
                                (acc >> m_consumed(e), nbits - m_consumed(e), wpos + 1);
                            e = litlen.lookup(acc);
                            continue;
                        }
                    }
                    // A match after literals starts on a refill of its own.
                    refill(&mut acc, &mut nbits, &mut pos);
                }
                if e == 0 || e & M_EXC != 0 {
                    // Unassigned, end-of-block or reserved: the careful loop
                    // re-decodes it (nothing consumed for `e`).
                    break 'outer;
                }
                // Length/distance token. Snapshot so a bail re-decodes the
                // whole token carefully with identical error semantics.
                let snap = (acc, nbits, pos, wpos);
                let (c, lextra) = (m_consumed(e), m_extra(e));
                let len = m_payload(e) as usize + ((acc >> c) & ((1u64 << lextra) - 1)) as usize;
                (acc, nbits) = (acc >> (c + lextra), nbits - c - lextra);
                let de = dist.lookup(acc);
                if de == 0 || de & M_EXC != 0 {
                    (acc, nbits, pos, wpos) = snap;
                    break 'outer;
                }
                let (dc, dextra) = (m_consumed(de), m_extra(de));
                let distance =
                    m_payload(de) as usize + ((acc >> dc) & ((1u64 << dextra) - 1)) as usize;
                (acc, nbits) = (acc >> (dc + dextra), nbits - dc - dextra);
                if distance > wpos {
                    (acc, nbits, pos, wpos) = snap;
                    break 'outer;
                }
                if let (true, Some(tracer)) = (TALLY, tracer.as_deref_mut()) {
                    tracer.matched(len);
                    if READS {
                        tracer.mark_reads(len, wpos - primed, distance);
                    }
                }
                // The next token's entry, loaded while the match copies.
                e = litlen.lookup(acc);
                let src = wpos - distance;
                if distance >= 16 {
                    // Whole chunks, rounding up into the slack: a chunk
                    // read from at least its own width back (16 bytes
                    // here, 8 below) never holds a byte it writes.
                    let (mut s, mut d) = (src, wpos);
                    loop {
                        let mut t = [0u8; 16];
                        t.copy_from_slice(&out[s..s + 16]);
                        out[d..d + 16].copy_from_slice(&t);
                        (s, d) = (s + 16, d + 16);
                        if d >= wpos + len {
                            break;
                        }
                    }
                } else if distance >= 8 {
                    for at in (0..len).step_by(8) {
                        out.copy_within(src + at..src + at + 8, wpos + at);
                    }
                } else if distance == 1 {
                    let b = out[src];
                    out[wpos..wpos + len].fill(b);
                } else {
                    // Short-period overlap (2..=7): byte-by-byte keeps the
                    // pattern exact.
                    for i in wpos..wpos + len {
                        out[i] = out[i - distance];
                    }
                }
                wpos += len;
            }
        }
        self.out.truncate(wpos);
        self.reader.set_fast_state(acc, nbits, pos);
        if wpos > start_wpos {
            FAST_PATH_BYTES.fetch_add((wpos - start_wpos) as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
/// The fast loop as it stood before the libdeflate-shaped rewrite (a refill
/// below 56 bits at the top of each iteration and one inside a match, no
/// preload, 8-byte match copies), kept verbatim as the oracle the
/// `tests::fast_loop_equals_parent_and_careful_*` tests diff against. The
/// block driver (`decode_block`, `huffman_block`) is copied to call it.
mod reference {
    use super::*;

    impl Inflater<'_> {
        /// [`Inflater::run`] on the parent loop.
        pub(super) fn run_on_parent(&mut self, limit: usize) -> Result<()> {
            while !self.finished {
                self.decode_block_on_parent(limit)?;
            }
            Ok(())
        }

        fn decode_block_on_parent(&mut self, limit: usize) -> Result<()> {
            let start_bits = self.reader.bits_consumed();
            let out_start = self.out.len();
            let open = match self.open {
                Some(open) => open,
                None => open_block(&mut self.reader, &mut self.scratch)
                    .or_else(|e| self.reader.seek(start_bits).and(Err(e)))?,
            };
            let header_end_bits = self.reader.bits_consumed();
            self.open = Some(open);
            match open.body {
                Body::Stored(left) => self.stored_block(left, limit)?,
                tables => {
                    // The scratch is moved out for the body so the table borrows
                    // don't pin `self`, and moved back unconditionally to keep
                    // its capacity for reuse.
                    let scratch = std::mem::take(&mut self.scratch);
                    let (litlen, dist) = scratch.tables(tables);
                    let res = self.huffman_block_on_parent(litlen, dist, limit);
                    self.scratch = scratch;
                    res?;
                }
            }
            self.open = None;
            if let Some(t) = &mut self.trace {
                let output_bytes = (self.out.len() - out_start) as u64;
                // Stored bytes are no symbols; elsewhere the literals produced
                // what the matches did not.
                let (btype, huffman_bytes) = match open.body {
                    Body::Stored(_) => (0, 0),
                    Body::Fixed => (1, output_bytes),
                    _ => (2, output_bytes),
                };
                t.trace.blocks.push(BlockTrace {
                    btype,
                    header_bits: header_end_bits - start_bits,
                    literals: huffman_bytes.saturating_sub(t.match_bytes),
                    matches: std::mem::take(&mut t.matches),
                    output_bytes,
                    total_bits: self.reader.bits_consumed() - start_bits,
                });
                t.match_bytes = 0;
            }
            self.finished |= open.last;
            Ok(())
        }

        fn huffman_block_on_parent(
            &mut self,
            litlen: &DecodeTable,
            dist: &DecodeTable,
            limit: usize,
        ) -> Result<()> {
            let use_fast = self.fast_enabled && litlen.is_merged();
            let mut careful_bytes = 0u64;
            let res = loop {
                // One loop in the source, instantiated without its tally (the
                // loop alone), with it, and with it and window reads.
                match (use_fast, self.trace.as_ref().map(|t| t.reads.is_empty())) {
                    (true, Some(true)) => self.parent_fast_loop::<true, false>(litlen, dist, limit),
                    (true, Some(false)) => self.parent_fast_loop::<true, true>(litlen, dist, limit),
                    (true, None) => self.parent_fast_loop::<false, false>(litlen, dist, limit),
                    (false, _) => {}
                }
                // A token that fails is not begun: the reader goes back to its
                // start, where the block resumes after the limit or end of input.
                self.token_bit = self.reader.bits_consumed();
                match self.careful_token(litlen, dist, limit, &mut careful_bytes) {
                    Ok(true) => break Ok(()),
                    Ok(false) => {}
                    Err(e) => break self.reader.seek(self.token_bit).and(Err(e)),
                }
            };
            if careful_bytes > 0 {
                CAREFUL_PATH_BYTES.fetch_add(careful_bytes, Ordering::Relaxed);
            }
            res
        }

        /// The fast inner loop. Decodes tokens while safety margins hold and
        /// hands any anomaly back to the careful loop with the reader rewound
        /// to the start of the offending token. Infallible by construction:
        /// it only commits tokens the careful path would also accept.
        ///
        /// Safety margins (see DESIGN.md for the full argument):
        /// * **input**: runs while `pos + 16 <= data.len()`, so both the
        ///   iteration-start refill and the mid-token refill read 8 in-bounds
        ///   bytes and always leave ≥ 56 valid accumulator bits — enough for
        ///   two literals (≤ 30 bits) or a literal + length code + extra
        ///   (≤ 35 bits) before the mid refill, and a distance code + extra
        ///   (≤ 28 bits) after it;
        /// * **output**: runs while `wpos + 274 <= fence`, where 274 ≥ one
        ///   literal (1) + the longest match (258) rounded up to the next
        ///   8-byte copy boundary (264), so wide copies may overshoot into
        ///   slack that `truncate` trims afterwards;
        /// * **limit**: the slack fence never extends past `primed + limit`,
        ///   so the fast loop can never overrun the caller's output limit —
        ///   near the limit it defers to the careful loop's exact check.
        ///
        /// `TALLY` (a traced decode) counts a match where it is committed, so one
        /// handed back through `snap` is counted by the careful loop alone;
        /// `READS` marks it in the window-read tallies there too.
        fn parent_fast_loop<const TALLY: bool, const READS: bool>(
            &mut self,
            litlen: &DecodeTable,
            dist: &DecodeTable,
            limit: usize,
        ) {
            const SLACK: usize = 274;
            let (mut tracer, primed) = (self.trace.as_deref_mut(), self.primed);
            let data = self.reader.input();
            let (mut acc, mut nbits, mut pos) = self.reader.fast_state();
            let mut wpos = self.out.len();
            let start_wpos = wpos;
            let limit_bound = self.primed.saturating_add(limit);
            // The zero-filled slack region opens at what the remaining input
            // can plausibly produce and doubles back to `FAST_CHUNK`: a 2 KiB
            // response must not memset 64 KiB, and anything past 16 KiB of
            // input opens at the full chunk.
            let mut chunk = initial_capacity(data.len() - pos).min(FAST_CHUNK);
            'outer: while pos + 16 <= data.len() {
                // Open a slack region: resize (not reserve) so the wide copies
                // below can index freely; trimmed back to `wpos` on exit.
                let target = wpos.saturating_add(chunk).min(limit_bound);
                chunk = (2 * chunk).min(FAST_CHUNK);
                if target < wpos.saturating_add(SLACK) {
                    break;
                }
                if self.out.len() < target {
                    self.out.resize(target, 0);
                }
                let out = self.out.as_mut_slice();
                let fence = out.len();
                while pos + 16 <= data.len() && wpos + SLACK <= fence {
                    if nbits < 56 {
                        let mut w = [0u8; 8];
                        w.copy_from_slice(&data[pos..pos + 8]);
                        acc |= u64::from_le_bytes(w) << nbits;
                        let absorbed = (63 - nbits) >> 3;
                        pos += absorbed as usize;
                        nbits += absorbed * 8;
                    }
                    let mut e = litlen.lookup(acc);
                    if e == 0 {
                        break 'outer;
                    }
                    if e & M_LIT != 0 {
                        let c = m_consumed(e);
                        acc >>= c;
                        nbits -= c;
                        out[wpos] = m_payload(e) as u8;
                        wpos += 1;
                        // Second literal from the same refill: ≥ 41 bits left.
                        e = litlen.lookup(acc);
                        if e & M_LIT != 0 {
                            let c2 = m_consumed(e);
                            acc >>= c2;
                            nbits -= c2;
                            out[wpos] = m_payload(e) as u8;
                            wpos += 1;
                            // Third literal: ≥ 26 bits left still covers a
                            // 15-bit code plus the next root peek.
                            e = litlen.lookup(acc);
                            if e & M_LIT != 0 {
                                let c3 = m_consumed(e);
                                acc >>= c3;
                                nbits -= c3;
                                out[wpos] = m_payload(e) as u8;
                                wpos += 1;
                                continue;
                            }
                        }
                        if e == 0 {
                            continue;
                        }
                    }
                    if e & M_EXC != 0 {
                        // End-of-block or reserved symbol: let the careful
                        // loop re-decode it (nothing consumed for `e`).
                        break 'outer;
                    }
                    // Length/distance token. Snapshot so a bail re-decodes the
                    // whole token carefully with identical error semantics.
                    let snap = (acc, nbits, pos, wpos);
                    let c = m_consumed(e);
                    acc >>= c;
                    nbits -= c;
                    let lextra = m_extra(e);
                    let len = m_payload(e) as usize + (acc & ((1u64 << lextra) - 1)) as usize;
                    acc >>= lextra;
                    nbits -= lextra;
                    if nbits < 32 {
                        // Mid-token refill; in-bounds because `pos` has moved
                        // at most 7 bytes since the `pos + 16` guard.
                        let mut w = [0u8; 8];
                        w.copy_from_slice(&data[pos..pos + 8]);
                        acc |= u64::from_le_bytes(w) << nbits;
                        let absorbed = (63 - nbits) >> 3;
                        pos += absorbed as usize;
                        nbits += absorbed * 8;
                    }
                    let de = dist.lookup(acc);
                    if de == 0 || de & M_EXC != 0 {
                        (acc, nbits, pos, wpos) = snap;
                        break 'outer;
                    }
                    let dc = m_consumed(de);
                    acc >>= dc;
                    nbits -= dc;
                    let dextra = m_extra(de);
                    let distance = m_payload(de) as usize + (acc & ((1u64 << dextra) - 1)) as usize;
                    acc >>= dextra;
                    nbits -= dextra;
                    if distance > wpos {
                        (acc, nbits, pos, wpos) = snap;
                        break 'outer;
                    }
                    if let (true, Some(tracer)) = (TALLY, tracer.as_deref_mut()) {
                        tracer.matched(len);
                        if READS {
                            tracer.mark_reads(len, wpos - primed, distance);
                        }
                    }
                    let src = wpos - distance;
                    if distance == 1 {
                        let b = out[src];
                        out[wpos..wpos + len].fill(b);
                    } else if distance >= 8 {
                        // 8-byte wide copy rounding up into the slack; each
                        // read is ≥ 8 bytes behind the write cursor, so
                        // already-written data is never read mid-chunk.
                        let mut s = src;
                        let mut d = wpos;
                        let end = wpos + len;
                        while d < end {
                            let mut tmp = [0u8; 8];
                            tmp.copy_from_slice(&out[s..s + 8]);
                            out[d..d + 8].copy_from_slice(&tmp);
                            s += 8;
                            d += 8;
                        }
                    } else {
                        // Short-period overlap (2..=7): byte-by-byte keeps the
                        // pattern exact.
                        let mut i = wpos;
                        let end = wpos + len;
                        while i < end {
                            out[i] = out[i - distance];
                            i += 1;
                        }
                    }
                    wpos += len;
                }
            }
            self.out.truncate(wpos);
            self.reader.set_fast_state(acc, nbits, pos);
            if wpos > start_wpos {
                FAST_PATH_BYTES.fetch_add((wpos - start_wpos) as u64, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use crate::encoder::{encode_stored_block, CompressionLevel};
    use crate::lz77::Token;

    #[test]
    fn decodes_empty_stored_final_block() {
        let mut w = BitWriter::new();
        encode_stored_block(&mut w, b"", true);
        assert_eq!(inflate(&w.finish()).unwrap(), b"");
    }

    #[test]
    fn decodes_hand_built_fixed_block() {
        // Fixed-code block containing "abc": literal codes for 'a','b','c'
        // are 8-bit values 0x30 + byte - 0 for 0..=143 → 'a'(97) = 0x30+97
        // = 0x91 (canonical), then EOB (7 bits of 0).
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0b01, 2); // fixed
        for &b in b"abc" {
            let canon = 0x30u16 + u16::from(b);
            let rev = crate::huffman::reverse_bits(canon, 8);
            w.write_bits(u64::from(rev), 8);
        }
        w.write_bits(0, 7); // EOB code 256 = 0000000
        assert_eq!(inflate(&w.finish()).unwrap(), b"abc");
    }

    #[test]
    fn rejects_reserved_block_type() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b11, 2);
        assert_eq!(inflate(&w.finish()), Err(Error::ReservedBlockType));
    }

    #[test]
    fn rejects_stored_len_mismatch() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b00, 2);
        w.align_to_byte();
        w.write_bytes(&[0x02, 0x00, 0x00, 0x00]); // NLEN not complement
        w.write_bytes(&[0xAA, 0xBB]);
        assert_eq!(inflate(&w.finish()), Err(Error::StoredLengthMismatch));
    }

    #[test]
    fn rejects_distance_beyond_output() {
        // Fixed block: match len 3 dist 1 as very first token.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b01, 2);
        // Length code 257 (canonical 7-bit 0000001), no extra.
        w.write_bits(u64::from(crate::huffman::reverse_bits(0b0000001, 7)), 7);
        // Distance code 0 (5 bits, canonical 00000), no extra.
        w.write_bits(0, 5);
        w.write_bits(0, 7); // EOB
        assert_eq!(inflate(&w.finish()), Err(Error::DistanceTooFar));
    }

    #[test]
    fn rejects_truncated_stream() {
        let full = crate::deflate(
            b"some reasonable payload here",
            CompressionLevel::new(6).unwrap(),
        );
        for cut in 1..full.len().min(12) {
            let r = inflate(&full[..full.len() - cut]);
            assert!(r.is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn output_limit_enforced() {
        let data = vec![b'x'; 100_000];
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        assert_eq!(
            inflate_with_limit(&comp, 50_000),
            Err(Error::OutputLimitExceeded)
        );
        assert_eq!(inflate_with_limit(&comp, 100_000).unwrap(), data);
    }

    #[test]
    fn rejects_repeat_without_previous() {
        // Dynamic header whose first code-length symbol is 16 (repeat).
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(0, 5); // HLIT=257
        w.write_bits(0, 5); // HDIST=1
        w.write_bits(15, 4); // HCLEN=19
                             // Give symbol 16 length 1, symbol 17 length 1, everything else 0.
                             // CODELEN_ORDER starts 16,17,18,...
        w.write_bits(1, 3); // len(16)=1
        w.write_bits(1, 3); // len(17)=1
        for _ in 2..19 {
            w.write_bits(0, 3);
        }
        // First symbol: 16 → canonical code 0 (1 bit).
        w.write_bits(0, 1);
        let r = inflate(&w.finish());
        assert_eq!(r, Err(Error::RepeatWithoutPrevious));
    }

    #[test]
    fn rejects_code_length_overflow() {
        // Zero-run that overruns HLIT+HDIST.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(0, 5); // HLIT=257
        w.write_bits(0, 5); // HDIST=1 → total 258
        w.write_bits(15, 4); // HCLEN=19
        w.write_bits(0, 3); // len(16)=0
        w.write_bits(0, 3); // len(17)=0
        w.write_bits(1, 3); // len(18)=1
        w.write_bits(1, 3); // len(0)=1
        for _ in 4..19 {
            w.write_bits(0, 3);
        }
        // Canonical codes for {0, 18} at length 1: symbol 0 → 0, 18 → 1.
        // Emit 18 with max run 138, three times: 414 > 258.
        for _ in 0..3 {
            w.write_bits(1, 1); // symbol 18
            w.write_bits(127, 7); // run 138
        }
        assert_eq!(inflate(&w.finish()), Err(Error::TooManyCodeLengths));
    }

    #[test]
    fn rejects_missing_end_of_block_code() {
        // Dynamic tables where symbol 256 has length 0.
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b10, 2);
        w.write_bits(0, 5); // HLIT=257
        w.write_bits(0, 5); // HDIST=1
        w.write_bits(15, 4); // HCLEN=19
                             // len(18)=1, len(0)=... we need: lengths[0..257] mostly zero with
                             // symbol 0 and 1 getting codes, 256 zero.
                             // Order: 16,17,18,0,8,7,9,6,10,5,11,4,12,3,13,2,14,1,15
        let mut lens = [0u8; 19];
        lens[18] = 1; // zero runs
        lens[1] = 1; // code length 1
        for &s in CODELEN_ORDER.iter() {
            w.write_bits(u64::from(lens[s]), 3);
        }
        // cl code: symbols {1,18} with len1 → canonical: 1→0, 18→1.
        // lengths: sym0=1 (emit cl sym 1 = code 0), sym1=1, then 18 runs of
        // zero to fill 255 more entries (two runs 138+117), then dist 0.
        w.write_bits(0, 1); // len[0]=1
        w.write_bits(0, 1); // len[1]=1
        w.write_bits(1, 1); // 18
        w.write_bits(127, 7); // 138 zeros
        w.write_bits(1, 1); // 18
        w.write_bits(117 - 11, 7); // 117 zeros → total 257
        w.write_bits(1, 1); // 18 → dist area... wait, need exactly 1 more
        w.write_bits(0, 7); // 11 zeros would overflow
        let r = inflate(&w.finish());
        assert!(r.is_err());
    }

    #[test]
    fn multiblock_stream_decodes() {
        let mut w = BitWriter::new();
        encode_stored_block(&mut w, b"first|", false);
        encode_stored_block(&mut w, b"second", true);
        assert_eq!(inflate(&w.finish()).unwrap(), b"first|second");
    }

    /// One traced decode on a fresh scratch, fast loop on or off.
    fn traced(data: &[u8], dict: &[u8], fast: bool) -> Result<(Vec<u8>, StreamTrace)> {
        let mut inf = Inflater::new(data);
        inf.prime_window(dict);
        if !fast {
            inf.disable_fast_path();
        }
        inf.trace = Some(Box::default());
        inf.run(usize::MAX)?;
        let (consumed, tracer) = (inf.byte_position(), inf.trace.take().unwrap());
        let trace = StreamTrace {
            consumed,
            ..tracer.trace
        };
        Ok((inf.into_output(), trace))
    }

    /// Σ len · n\[len\]: the bytes the tallied matches produced.
    fn match_bytes(trace: &StreamTrace) -> u64 {
        let per_len = trace.match_lens.iter().enumerate();
        per_len.map(|(len, &n)| len as u64 * n).sum()
    }

    #[test]
    fn tracing_records_block_structure() {
        let data: Vec<u8> = b"trace me trace me trace me ".repeat(20);
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        let (out, trace) = traced(&comp, &[], true).unwrap();
        assert_eq!(out, data);
        assert!(!trace.blocks.is_empty());
        assert_eq!(trace.consumed, comp.len());
        let total_out: u64 = trace.blocks.iter().map(|b| b.output_bytes).sum();
        assert_eq!(total_out, data.len() as u64);
        for b in &trace.blocks {
            assert!(b.header_bits >= 3);
            assert!(b.total_bits >= b.header_bits);
            assert!(b.btype != 0 && b.matches > 0);
        }
        // Every output byte is a literal or part of a tallied match.
        let literals: u64 = trace.blocks.iter().map(|b| b.literals).sum();
        assert_eq!(literals + match_bytes(&trace), total_out);
        let matches: u64 = trace.blocks.iter().map(|b| b.matches).sum();
        assert_eq!(matches, trace.match_lens.iter().sum::<u64>());
        // Total bits accounted matches the stream length (±7 padding bits).
        let bits: u64 = trace.blocks.iter().map(|b| b.total_bits).sum();
        assert!(comp.len() as u64 * 8 - bits < 8);
    }

    #[test]
    fn tracing_handles_stored_blocks() {
        let mut w = BitWriter::new();
        encode_stored_block(&mut w, b"plain", true);
        let (out, trace) = traced(&w.finish(), &[], true).unwrap();
        assert_eq!(out, b"plain");
        assert_eq!(trace.blocks.len(), 1);
        let block = &trace.blocks[0];
        assert_eq!((block.btype, block.output_bytes), (0, 5));
        assert_eq!((block.literals, block.matches), (0, 0));
        assert_eq!(match_bytes(&trace), 0);
        // Header: 3 bits + pad to byte + 32 bits LEN/NLEN = 40 bits.
        assert_eq!(block.header_bits, 40);
    }

    /// What a token list says a traced decode of it must tally: per block
    /// `(literals, matches)`, per stream the length histogram.
    struct Expected {
        blocks: Vec<(u64, u64)>,
        match_lens: [u64; crate::MAX_MATCH + 1],
    }

    /// `tokens` written as dynamic blocks of `per_block` tokens each,
    /// decoded traced on both loops: the two traces must agree block for
    /// block, and with the token list block for block.
    fn assert_tally_matches_tokens(tokens: &[Token], per_block: usize, what: &str) {
        let data = crate::lz77::expand_tokens(tokens);
        let mut w = BitWriter::new();
        let mut want = Expected {
            blocks: Vec::new(),
            match_lens: [0; crate::MAX_MATCH + 1],
        };
        let chunks: Vec<&[Token]> = tokens.chunks(per_block).collect();
        for (i, chunk) in chunks.iter().enumerate() {
            crate::encoder::encode_dynamic_block(&mut w, chunk, i + 1 == chunks.len());
            let lens = chunk.iter().filter_map(|t| match t {
                Token::Match { len, .. } => Some(usize::from(*len)),
                Token::Literal(_) => None,
            });
            let matches = lens.clone().count() as u64;
            lens.for_each(|len| want.match_lens[len] += 1);
            want.blocks.push((chunk.len() as u64 - matches, matches));
        }
        if tokens.is_empty() {
            crate::encoder::encode_dynamic_block(&mut w, &[], true);
            want.blocks.push((0, 0));
        }
        let stream = w.finish();
        let (fast_out, fast) = traced(&stream, &[], true).expect(what);
        let (careful_out, careful) = traced(&stream, &[], false).expect(what);
        assert_eq!(fast_out, data, "{what}");
        assert_eq!(careful_out, data, "{what}");
        assert_eq!(fast, careful, "{what}: fast and careful tallies differ");
        assert_eq!(fast.match_lens, want.match_lens, "{what}");
        let got: Vec<(u64, u64)> = fast
            .blocks
            .iter()
            .map(|b| (b.literals, b.matches))
            .collect();
        assert_eq!(got, want.blocks, "{what}: per-block (literals, matches)");
        assert_eq!(inflate(&stream).expect(what), data, "{what}: untraced");
    }

    #[test]
    fn tally_equals_the_token_list_on_every_corpus_level_and_engine() {
        use crate::encoder::{deflate_tokens_with, Strategy};
        use crate::Engine;
        for &kind in nx_corpus::CorpusKind::all() {
            let data = kind.generate(0x7A11, 96 << 10);
            for level in [1u32, 3, 6, 9] {
                for engine in [Engine::Auto, Engine::Sequential, Engine::Speculative] {
                    let lvl = CompressionLevel::new(level).unwrap();
                    let tokens = deflate_tokens_with(&data, lvl, Strategy::Default, engine);
                    let what = format!("{} level {level} {engine:?}", kind.name());
                    assert_tally_matches_tokens(&tokens, 20_000, &what);
                    // The stream the encoder itself writes (stored and fixed
                    // blocks where it prefers them): both loops, one trace.
                    let stream = crate::Encoder::with_engine(lvl, engine).compress(&data);
                    let fast = traced(&stream, &[], true).expect(&what);
                    assert_eq!(fast, traced(&stream, &[], false).expect(&what), "{what}");
                    assert_eq!(fast.0, data, "{what}");
                }
            }
        }
    }

    #[test]
    fn tally_at_the_edges_of_the_fast_loop() {
        let lit = |i: usize| Token::Literal((i * 31 % 251) as u8);
        // Streams of 0 / 1 / 257 / 258 / 259 bytes, all literals and as one
        // literal plus the longest run the length fits.
        for n in [0usize, 1, 257, 258, 259] {
            let literals: Vec<Token> = (0..n).map(lit).collect();
            assert_tally_matches_tokens(&literals, usize::MAX, &format!("{n} literals"));
            if n >= 4 {
                let len = (n - 1).min(crate::MAX_MATCH) as u16;
                let mut run = vec![lit(0), Token::Match { len, dist: 1 }];
                run.extend((0..n - 1 - usize::from(len)).map(lit));
                assert_tally_matches_tokens(&run, usize::MAX, &format!("{n}-byte run"));
            }
        }
        // len = 258 at dist = 1, back to back, long enough for the fast loop.
        let mut runs = vec![lit(7)];
        runs.extend(std::iter::repeat_n(Token::Match { len: 258, dist: 1 }, 400));
        assert_tally_matches_tokens(&runs, usize::MAX, "len 258 dist 1");
        // Block boundaries every few tokens: each lands inside the fast
        // loop's 274-byte output margin or its 16-byte input margin, so
        // every hand-over between the loops is exercised.
        let data = nx_corpus::CorpusKind::Logs.generate(0x7A11, 64 << 10);
        let tokens = crate::deflate_tokens(&data, CompressionLevel::new(6).unwrap());
        for per_block in [1usize, 2, 3, 7, 40, 41] {
            let n = (per_block * 600).min(tokens.len());
            assert_tally_matches_tokens(&tokens[..n], per_block, &format!("{per_block}/block"));
        }
    }

    #[test]
    fn tally_on_a_preset_dictionary_stream() {
        let dict = nx_corpus::CorpusKind::Json.generate(1, 16 << 10);
        let data = nx_corpus::CorpusKind::Json.generate(2, 48 << 10);
        let level = CompressionLevel::new(6).unwrap();
        let stream = crate::encoder::deflate_with_dict(&data, level, &dict);
        let (fast_out, fast) = traced(&stream, &dict, true).unwrap();
        let (careful_out, careful) = traced(&stream, &dict, false).unwrap();
        assert_eq!(fast_out, data);
        assert_eq!(careful_out, data);
        assert_eq!(fast, careful);
        let literals: u64 = fast.blocks.iter().map(|b| b.literals).sum();
        assert_eq!(literals + match_bytes(&fast), data.len() as u64);
        assert_eq!(inflate_with_dict(&stream, &dict).unwrap(), data);
    }

    #[test]
    fn traced_and_untraced_decodes_agree_on_every_truncation_and_bit_flip() {
        let data = nx_corpus::CorpusKind::Text.generate(0x7A11, 4 << 10);
        let stream = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        let mut scratch = InflateScratch::new();
        let mut check = |mutant: &[u8], what: &str| {
            let plain = inflate(mutant);
            let mut out = Vec::new();
            let on_fast = inflate_traced_into(mutant, 0, &mut scratch, &mut out);
            assert_eq!(on_fast.as_ref().err(), plain.as_ref().err(), "{what}");
            if let (Ok(trace), Ok(plain)) = (&on_fast, &plain) {
                assert_eq!(&out, plain, "{what}");
                let careful = traced(mutant, &[], false).expect(what);
                assert_eq!((&careful.0, &careful.1), (plain, trace), "{what}");
            }
        };
        for cut in 0..=stream.len() {
            check(&stream[..cut], &format!("cut at {cut}"));
        }
        let mut mutant = stream.clone();
        for bit in 0..stream.len() * 8 {
            mutant[bit / 8] ^= 1 << (bit % 8);
            check(&mutant, &format!("bit {bit} flipped"));
            mutant[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Which loop a differential decode runs on.
    #[derive(Clone, Copy, Debug)]
    enum Route {
        Fast,
        Parent,
        Careful,
    }

    /// All a decode shows where it stops: its `Result`, bytes, reader
    /// position and, when tallying, the stream's trace, the open block's
    /// counts and the window-read tallies.
    type Stop = (
        Result<()>,
        Vec<u8>,
        u64,
        Option<(StreamTrace, u64, u64, Vec<(usize, Vec<bool>)>)>,
    );

    /// `data` decoded against `dict` on `route` up to `limit`, traced if
    /// `traced`. At each of `opens` (ascending, below `limit`) the decode
    /// stops at that limit and, stopped there, opens a window-read tally
    /// at its output offset before it resumes.
    fn stop_on(
        route: Route,
        data: &[u8],
        dict: &[u8],
        traced: bool,
        opens: &[usize],
        limit: usize,
    ) -> Stop {
        let mut inf = Inflater::new(data);
        inf.prime_window(dict);
        if traced {
            inf.trace = Some(Box::default());
        }
        if let Route::Careful = route {
            inf.disable_fast_path();
        }
        let go = |inf: &mut Inflater, limit| match route {
            Route::Parent => inf.run_on_parent(limit),
            _ => inf.run(limit),
        };
        let mut res = Ok(());
        for (i, &at) in opens.iter().chain([&limit]).enumerate() {
            if i > 0 {
                if res != Err(Error::OutputLimitExceeded) {
                    break;
                }
                let from = inf.output().len();
                inf.window_reads()
                    .push((from, vec![false; crate::WINDOW_SIZE]));
            }
            res = go(&mut inf, at);
        }
        let tally = inf
            .trace
            .as_ref()
            .map(|t| (t.trace.clone(), t.matches, t.match_bytes, t.reads.clone()));
        (res, inf.output().to_vec(), inf.bit_position(), tally)
    }

    /// The fast loop, its parent and the careful loop decode `data` to the
    /// same stop: untraced, traced, and with window-read tallies opened at
    /// `opens`. Returns the fast loop's untraced stop.
    fn assert_routes_agree(
        data: &[u8],
        dict: &[u8],
        opens: &[usize],
        limit: usize,
        what: &str,
    ) -> Stop {
        let modes: [(bool, &[usize]); 3] = [(false, &[]), (true, &[]), (false, opens)];
        let [untraced, ..] = modes.map(|(traced, opens)| {
            let fast = stop_on(Route::Fast, data, dict, traced, opens, limit);
            for route in [Route::Parent, Route::Careful] {
                let other = stop_on(route, data, dict, traced, opens, limit);
                assert!(
                    fast == other,
                    "{what}: traced {traced}, opens {opens:?}: fast loop vs {route:?}"
                );
            }
            fast
        });
        untraced
    }

    /// `tokens` as a stream: dynamic blocks of `per_block` tokens, and the
    /// bytes they expand to.
    fn stream_of(tokens: &[Token], per_block: usize) -> (Vec<u8>, Vec<u8>) {
        let mut w = BitWriter::new();
        let blocks: Vec<&[Token]> = tokens.chunks(per_block).collect();
        for (i, block) in blocks.iter().enumerate() {
            crate::encoder::encode_dynamic_block(&mut w, block, i + 1 == blocks.len());
        }
        (w.finish(), crate::lz77::expand_tokens(tokens))
    }

    /// Seeded tokens: 40 literals, then literals and matches of lengths
    /// 3..=258 at distances 1..=40.
    fn random_tokens(seed: u64, n: usize) -> Vec<Token> {
        let mut x = seed | 1;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut tokens: Vec<Token> = (0..40)
            .map(|i| Token::Literal((i * 37 % 251) as u8))
            .collect();
        while tokens.len() < n {
            tokens.push(match next(2) {
                0 => Token::Literal(next(256) as u8),
                _ => Token::Match {
                    len: 3 + next(256) as u16,
                    dist: 1 + next(40) as u16,
                },
            });
        }
        tokens
    }

    #[test]
    fn fast_loop_equals_parent_and_careful_on_random_tokens() {
        // Whole streams, and stopped at limits along the way.
        for seed in 1..=12u64 {
            let tokens = random_tokens(seed, 400);
            for per_block in [400usize, 97] {
                let (stream, data) = stream_of(&tokens, per_block);
                let what = format!("seed {seed}, {per_block} tokens a block");
                let opens = [data.len() / 5, data.len() / 2, data.len() - 300];
                let (res, out, ..) = assert_routes_agree(&stream, &[], &opens, usize::MAX, &what);
                assert_eq!((res, &out), (Ok(()), &data), "{what}");
                assert_eq!(inflate_careful(&stream).as_ref(), Ok(&data), "{what}");
                for limit in (0..data.len()).step_by(997) {
                    let (res, ..) = assert_routes_agree(&stream, &[], &opens[..1], limit, &what);
                    assert_eq!(inflate_with_limit(&stream, limit).map(drop), res, "{what}");
                }
            }
        }
    }

    #[test]
    fn fast_loop_equals_parent_and_careful_at_the_fence() {
        // 258-byte matches at distances 8, 15, 16 and 17, behind a match and
        // behind two literals: at some limit one iteration's wide copy ends
        // on the fence. A literal tail keeps 16 input bytes past them; a
        // preset dictionary moves every output offset the tallies see.
        let dict: Vec<u8> = (0..64u32).map(|i| (i * 131 % 256) as u8).collect();
        for distance in [8u16, 15, 16, 17] {
            let lit = |i: u16| Token::Literal((i * 29 % 251) as u8);
            let long = Token::Match {
                len: 258,
                dist: distance,
            };
            let mut tokens: Vec<Token> = (0..40).map(lit).collect();
            for i in 0..6 {
                tokens.extend([long, lit(i), lit(i + 1), long]);
            }
            tokens.push(Token::Match { len: 40, dist: 60 });
            tokens.extend((0..200).map(|i| lit(i * 7)));
            let (stream, data) = stream_of(&tokens, tokens.len());
            let what = format!("258 at distance {distance}");
            for limit in 0..=data.len() + 1 {
                let what = format!("{what}, limit {limit}");
                let opens = [limit / 2];
                let (res, out, ..) = assert_routes_agree(&stream, &[], &opens, limit, &what);
                assert_eq!(inflate_with_limit(&stream, limit).map(drop), res, "{what}");
                assert_eq!(out, data[..out.len()], "{what}");
                let (primed, ..) = assert_routes_agree(&stream, &dict, &opens, limit, &what);
                assert_eq!(primed, res, "{what}");
            }
        }
    }

    #[test]
    fn fast_loop_equals_parent_and_careful_on_every_truncation_and_bit_flip() {
        let (stream, data) = stream_of(&random_tokens(99, 90), 45);
        let opens = [data.len() / 3];
        for cut in 0..stream.len() {
            let what = format!("cut at {cut}");
            let (res, ..) = assert_routes_agree(&stream[..cut], &[], &opens, usize::MAX, &what);
            assert!(res.is_err(), "{what}");
        }
        let mut mutant = stream.clone();
        for bit in 0..stream.len() * 8 {
            mutant[bit / 8] ^= 1 << (bit % 8);
            let what = format!("bit {bit} flipped");
            let (res, ..) = assert_routes_agree(&mutant, &[], &opens, usize::MAX, &what);
            assert_eq!(inflate(&mutant).map(drop), res, "{what}");
            mutant[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn inflater_reports_positions() {
        let comp = crate::deflate(b"position test data", CompressionLevel::new(1).unwrap());
        let mut inf = Inflater::new(&comp);
        inf.run(usize::MAX).unwrap();
        assert!(inf.is_finished());
        assert_eq!(inf.byte_position(), comp.len());
        assert_eq!(inf.output(), b"position test data");
    }

    /// A payload that exercises literals, long matches, and short-period
    /// overlaps at every compression level.
    fn mixed_payload() -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(
                format!("entry {i} value={}|", i.wrapping_mul(2654435761)).as_bytes(),
            );
        }
        data.extend(std::iter::repeat_n(b'R', 5000)); // dist-1 runs
        data.extend((0..3000).map(|i| (i % 251) as u8)); // near-random tail
        data
    }

    #[test]
    fn fast_and_careful_paths_agree() {
        let data = mixed_payload();
        for level in [0u32, 1, 4, 6, 9] {
            let comp = crate::deflate(&data, CompressionLevel::new(level).unwrap());
            let fast = inflate(&comp).unwrap();
            let careful = inflate_careful(&comp).unwrap();
            assert_eq!(fast, careful, "level {level}");
            assert_eq!(fast, data, "level {level}");
        }
    }

    #[test]
    fn fast_path_counters_advance() {
        let (f0, _) = decode_path_counters();
        let data = mixed_payload();
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        assert_eq!(inflate(&comp).unwrap(), data);
        let (f1, _) = decode_path_counters();
        assert!(f1 > f0, "fast loop produced no bytes on a large stream");
    }

    #[test]
    fn inflate_into_reuses_buffers() {
        let data = mixed_payload();
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        let mut scratch = InflateScratch::new();
        let mut out = Vec::new();
        inflate_into(&comp, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
        let cap = out.capacity();
        // Second decode of the same stream must not grow the buffer.
        inflate_into(&comp, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn inflate_into_reports_errors_and_stays_reusable() {
        let mut scratch = InflateScratch::new();
        let mut out = Vec::new();
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.write_bits(0b11, 2); // reserved type
        assert_eq!(
            inflate_into(&w.finish(), &mut scratch, &mut out),
            Err(Error::ReservedBlockType)
        );
        let data = mixed_payload();
        let comp = crate::deflate(&data, CompressionLevel::new(6).unwrap());
        inflate_into(&comp, &mut scratch, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn output_capacity_is_seeded() {
        let inf = Inflater::new(&[0u8; 1000]);
        assert!(inf.out.capacity() >= 4000);
        let mut inf = Inflater::new(&[0u8; 8]);
        inf.reserve_output(usize::MAX); // hostile hint is capped
        assert!(inf.out.capacity() <= 8 * 1032);
    }

    #[test]
    fn fast_path_respects_dictionary_window() {
        let dict = b"0123456789abcdefghijklmnopqrstuvwxyz".repeat(40);
        let data = dict.repeat(3);
        let comp =
            crate::encoder::deflate_with_dict(&data, CompressionLevel::new(6).unwrap(), &dict);
        assert_eq!(inflate_with_dict(&comp, &dict).unwrap(), data);
    }
}
