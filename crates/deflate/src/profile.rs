//! Canned Huffman profiles and preset dictionaries — the software
//! counterpart of the NX accelerator's canned-DHT mode.
//!
//! The paper's NX unit ships profile-derived Huffman tables because real
//! services compress 1–16 KB RPC/log/JSON payloads, where per-block
//! dynamic-table construction dominates both latency and ratio. This
//! module reproduces that design point in software:
//!
//! * [`Profile::derive`] is the offline **profiler**: from a set of
//!   representative samples it extracts a preset dictionary (frequent
//!   cross-sample fragments, most useful material nearest the window so
//!   distances stay short) and a canned code-length set trained on the
//!   dictionary-primed token statistics of the class.
//! * [`ProfileRegistry`] is the versioned, serializable container the
//!   service tier loads at startup and keys by content class
//!   ([`ProfileId`] is the per-request selector).
//! * [`deflate_canned`] is the **one-pass encode path**: the ladder's
//!   encode body, dictionary-primed, which writes each token through the
//!   profile's pre-fused [`EmitTables`](crate::encoder) as the parse makes
//!   it — no per-block package-merge, no table fusion, no second walk —
//!   guarded by an exact bit-cost check on the histogram counted on the way,
//!   which hands a misfit block to the one block decision, so canned output
//!   is never worse than a fixed block and is always valid DEFLATE.
//!
//! Process-wide hit/miss/fallback counters ([`profile_counters`]) feed
//! the `nx-profiles` telemetry source in `nx-core`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::adler32::adler32;
use crate::bitio::BitWriter;
use crate::encoder::{
    CompressionLevel, DynamicPlan, EmitTables, Encoder, Level, RenderedHeader, FIXED_DIST,
    FIXED_LITLEN,
};
use crate::huffman::{build, first_codes, MAX_CODE_LEN};
use crate::lz77::hash4::{tokenize_into_with, DictImage, Hash4Matcher};
use crate::lz77::{
    with_thread_tokenizer, Engine, Histogram, Token, NUM_DIST_SYMBOLS, NUM_LITLEN_SYMBOLS,
};
use crate::{Error, Result};

/// Profiles cap their preset dictionary at 3 KiB: enough shared structure
/// for RPC-sized records, near enough the payload that references into it
/// stay in the short distance codes.
pub const DEFAULT_DICT_CAP: usize = 3 << 10;

/// Fragment granule the dictionary trainer counts (bytes).
const FRAG_LEN: usize = 16;

/// Step between counted fragments within a sample.
const FRAG_STEP: usize = 8;

// ---------------------------------------------------------------------
// Process-wide canned-path counters (the `nx-profiles` telemetry source).
// ---------------------------------------------------------------------

static CANNED_REQUESTS: AtomicU64 = AtomicU64::new(0);
static CANNED_BLOCKS: AtomicU64 = AtomicU64::new(0);
static FALLBACK_BLOCKS: AtomicU64 = AtomicU64::new(0);
static DICT_ENCODES: AtomicU64 = AtomicU64::new(0);
static PROFILE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide canned-profile counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileCounters {
    /// Requests routed through the canned one-pass encoder.
    pub canned_requests: u64,
    /// Blocks emitted against canned tables (one-pass hits).
    pub canned_blocks: u64,
    /// Blocks where the misfit guard fell back to the dynamic path.
    pub fallback_blocks: u64,
    /// Requests encoded against a preset dictionary.
    pub dict_encodes: u64,
    /// Requests that named a profile the registry did not have.
    pub profile_misses: u64,
}

/// Reads the process-wide canned-profile counters.
pub fn profile_counters() -> ProfileCounters {
    ProfileCounters {
        canned_requests: CANNED_REQUESTS.load(Ordering::Relaxed),
        canned_blocks: CANNED_BLOCKS.load(Ordering::Relaxed),
        fallback_blocks: FALLBACK_BLOCKS.load(Ordering::Relaxed),
        dict_encodes: DICT_ENCODES.load(Ordering::Relaxed),
        profile_misses: PROFILE_MISSES.load(Ordering::Relaxed),
    }
}

/// Records a request that selected a [`ProfileId`] absent from the
/// registry (the caller then proceeds on the default dynamic path).
pub fn record_profile_miss() {
    PROFILE_MISSES.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------
// ProfileId + Profile
// ---------------------------------------------------------------------

/// Per-request selector for a registry entry — a small `Copy` handle so
/// it threads through `CompressOptions` without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProfileId(u16);

impl ProfileId {
    /// Wraps a raw registry slot index.
    pub fn new(raw: u16) -> Self {
        Self(raw)
    }

    /// The raw slot index.
    pub fn get(self) -> u16 {
        self.0
    }
}

/// One content class's canned encode state: a preset dictionary and
/// validated canned code lengths, with the block header rendered as bits,
/// the fused emission tables and the dictionary's matcher image pre-built:
/// requests just tokenize and emit.
#[derive(Debug, Clone)]
pub struct Profile {
    name: String,
    level: CompressionLevel,
    dict: Vec<u8>,
    image: DictImage,
    litlen_lengths: Vec<u8>,
    dist_lengths: Vec<u8>,
    pub(crate) header: RenderedHeader,
    pub(crate) tables: EmitTables,
}

impl Profile {
    /// Builds a profile from explicit code lengths and a dictionary,
    /// validating everything the panicking
    /// [`DynamicPlan::from_lengths`] constructor assumes.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProfile`] when either length set is over-long,
    /// oversubscribed, of the wrong alphabet size, or leaves the
    /// end-of-block symbol without a code.
    pub fn new(
        name: impl Into<String>,
        level: CompressionLevel,
        litlen_lengths: Vec<u8>,
        dist_lengths: Vec<u8>,
        dict: Vec<u8>,
    ) -> Result<Self> {
        if litlen_lengths.len() != NUM_LITLEN_SYMBOLS || dist_lengths.len() != NUM_DIST_SYMBOLS {
            return Err(Error::InvalidProfile);
        }
        if litlen_lengths[usize::from(crate::lz77::END_OF_BLOCK)] == 0 {
            return Err(Error::InvalidProfile); // every block ends with EOB
        }
        if litlen_lengths
            .iter()
            .chain(&dist_lengths)
            .any(|&l| l > MAX_CODE_LEN)
        {
            return Err(Error::InvalidProfile);
        }
        // Pre-validate so DynamicPlan::from_lengths cannot panic.
        first_codes(&litlen_lengths).map_err(|_| Error::InvalidProfile)?;
        first_codes(&dist_lengths).map_err(|_| Error::InvalidProfile)?;
        let mut dict = dict;
        if dict.len() > crate::WINDOW_SIZE {
            dict.drain(..dict.len() - crate::WINDOW_SIZE);
        }
        let plan = DynamicPlan::from_lengths(&litlen_lengths, &dist_lengths);
        Ok(Self {
            name: name.into(),
            level,
            image: DictImage::build(&dict),
            dict,
            litlen_lengths,
            dist_lengths,
            header: plan.rendered_header(),
            tables: plan.emit_tables(),
        })
    }

    /// The offline profiler: derives a preset dictionary and canned code
    /// lengths from representative `samples` of one content class.
    ///
    /// The dictionary collects fragments recurring across samples, placing
    /// the most frequent material at the **end** (nearest the encoded
    /// data, so back-references to it use the shortest distances — the
    /// same convention zlib documents for `deflateSetDictionary`). The
    /// code lengths come from the dictionary-primed token statistics of
    /// all samples, floored to full alphabet coverage so any future block
    /// is encodable (missing-symbol misfits only arise for the two
    /// reserved litlen symbols and reserved distance codes, which no
    /// encoder emits).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidProfile`] if `samples` is empty.
    pub fn derive(
        name: impl Into<String>,
        samples: &[&[u8]],
        level: CompressionLevel,
        dict_cap: usize,
    ) -> Result<Self> {
        if samples.is_empty() {
            return Err(Error::InvalidProfile);
        }
        let dict = derive_dict(samples, dict_cap);

        // Token statistics of the class, encoded the way production will
        // encode it: dictionary-primed, at the profile's level. The scratch
        // (one matcher for all samples) is dropped before the profile's
        // long-lived tables are allocated, so it leaves no hole under them.
        let mut hist = Histogram::new();
        {
            let mut m = Hash4Matcher::new();
            let mut tokens: Vec<Token> = Vec::new();
            let mut buf: Vec<u8> = Vec::new();
            let (start, rung) = (dict.len(), level.get());
            for sample in samples {
                buf.clear();
                buf.extend_from_slice(&dict);
                buf.extend_from_slice(sample);
                tokens.clear();
                m.reset();
                tokenize_into_with(&buf, start, rung, Engine::Auto, &mut m, &mut tokens);
                let one = Histogram::of(&tokens);
                hist.litlen
                    .iter_mut()
                    .zip(one.litlen)
                    .for_each(|(f, n)| *f += n);
                hist.dist
                    .iter_mut()
                    .zip(one.dist)
                    .for_each(|(f, n)| *f += n);
            }
        }
        // Full-coverage floor: every expressible symbol keeps a (long)
        // code so the one-pass guard never trips on a missing symbol.
        // Symbols 286/287 and distance codes 30/31 are reserved by RFC
        // 1951 and stay zero.
        for f in hist.litlen.iter_mut().take(286) {
            *f = (*f).max(1);
        }
        for f in hist.dist.iter_mut().take(30) {
            *f = (*f).max(1);
        }
        let litlen_lengths = build::limited_lengths(&hist.litlen, MAX_CODE_LEN);
        let dist_lengths = build::limited_lengths(&hist.dist, MAX_CODE_LEN);
        Self::new(name, level, litlen_lengths, dist_lengths, dict)
    }

    /// The profile's name (content-class label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tokenization level the profile was trained at (and encodes at).
    pub fn level(&self) -> CompressionLevel {
        self.level
    }

    /// The preset dictionary (possibly empty).
    pub fn dict(&self) -> &[u8] {
        &self.dict
    }

    /// Adler-32 of the dictionary — the RFC 1950 DICTID.
    pub fn dict_id(&self) -> u32 {
        adler32(&self.dict)
    }

    /// The canned literal/length code lengths.
    pub fn litlen_lengths(&self) -> &[u8] {
        &self.litlen_lengths
    }

    /// The canned distance code lengths.
    pub fn dist_lengths(&self) -> &[u8] {
        &self.dist_lengths
    }

    /// Exact bit cost of this profile's block header.
    pub fn header_bits(&self) -> u64 {
        self.header.bits
    }

    /// Whether the canned tables fit a block, counted as a canned or a
    /// fallback block: the profile has a code for every symbol `hist` (the
    /// block's histogram, end-of-block included, at most `MAX_BLOCK_TOKENS` +
    /// 1 counts) counts, and the block costs no more bits on them than on the
    /// fixed tables. A misfit goes to the one block decision.
    pub(crate) fn fits(&self, hist: &Histogram) -> bool {
        // One pass, no branch per symbol: both costs share their extra bits,
        // so canned - fixed is the header difference plus the counts' dot
        // product with the canned - fixed lengths (|.| < 15 x 2^17: an `i32`),
        // beside the OR of the counts of symbols without a canned code.
        let (mut uncoded, mut more) = (0, self.header.bits as i32 - 3);
        let mut price = |freqs: &[u32], canned: &[u8], fixed: &[u8]| {
            for ((&f, &c), &x) in freqs.iter().zip(canned).zip(fixed) {
                uncoded |= if c == 0 { f } else { 0 };
                more += f as i32 * (i32::from(c) - i32::from(x));
            }
        };
        price(&hist.litlen, &self.litlen_lengths, &FIXED_LITLEN);
        price(&hist.dist, &self.dist_lengths, &FIXED_DIST);
        let fits = uncoded == 0 && more <= 0;
        let counter = if fits {
            &CANNED_BLOCKS
        } else {
            &FALLBACK_BLOCKS
        };
        counter.fetch_add(1, Ordering::Relaxed);
        fits
    }
}

/// Builds the preset dictionary: fragments of `FRAG_LEN` bytes counted at
/// `FRAG_STEP` strides across all samples; those recurring land in the
/// dictionary, most frequent nearest the end. Deterministic (count-major,
/// then first-seen order) so retraining on the same corpus is
/// reproducible byte-for-byte.
fn derive_dict(samples: &[&[u8]], dict_cap: usize) -> Vec<u8> {
    use std::collections::HashMap;
    let mut counts: HashMap<&[u8], (u32, usize)> = HashMap::new();
    let mut seen = 0usize;
    for sample in samples {
        let mut at = 0;
        while at + FRAG_LEN <= sample.len() {
            let frag = &sample[at..at + FRAG_LEN];
            let e = counts.entry(frag).or_insert((0, seen));
            e.0 += 1;
            seen += 1;
            at += FRAG_STEP;
        }
    }
    let mut frags: Vec<(&[u8], u32, usize)> = counts
        .into_iter()
        .filter(|&(_, (c, _))| c >= 2)
        .map(|(f, (c, first))| (f, c, first))
        .collect();
    // Most frequent first; ties broken by first appearance.
    frags.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
    let mut parts: Vec<&[u8]> = Vec::new();
    let mut used = 0usize;
    for (frag, _, _) in frags {
        if used + FRAG_LEN > dict_cap {
            break;
        }
        // Skip fragments already covered by a selected one (overlapping
        // strides produce near-duplicates).
        if parts.iter().any(|p| p.windows(FRAG_LEN).any(|w| w == frag)) {
            continue;
        }
        parts.push(frag);
        used += FRAG_LEN;
    }
    // Most frequent material goes last (shortest distances).
    let mut dict = Vec::with_capacity(used);
    for frag in parts.iter().rev() {
        dict.extend_from_slice(frag);
    }
    dict
}

// ---------------------------------------------------------------------
// One-pass canned encode
// ---------------------------------------------------------------------

/// One-pass raw-DEFLATE compression of `data` against a canned profile.
///
/// Tokenizes at the profile's level (dictionary-primed when `use_dict`
/// and the profile carries one), writing each token through the profile's
/// pre-fused tables as the parse makes it — no per-block package-merge or
/// table fusion, and no second walk over the tokens. At each block's close a
/// guard compares the exact canned cost against the fixed-table cost, from
/// the histogram counted on the way, and hands a misfit to the one block
/// decision (stored, fixed or dynamic), so output never degrades below the
/// ladder's choice for that block.
///
/// When `use_dict` is set the stream must be decoded with the same
/// dictionary ([`crate::inflate_with_dict`], or zlib FDICT framing via
/// [`crate::zlib::wrap_deflate_with_dict`]).
pub fn deflate_canned(data: &[u8], engine: Engine, profile: &Profile, use_dict: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 64);
    deflate_canned_into(data, engine, profile, use_dict, &mut out);
    out
}

/// As [`deflate_canned`], appending the raw DEFLATE stream to `out` —
/// the allocation-reusing form scratch sessions drive. It is the ladder's
/// encode body on the thread's matcher, token and staging buffers
/// (`lz77::with_thread_tokenizer`), the matcher loaded from the profile's
/// [`DictImage`] when the dictionary primes it, so once warm a request into
/// an `out` with room allocates nothing (`tests/canned_alloc.rs`).
pub fn deflate_canned_into(
    data: &[u8],
    engine: Engine,
    profile: &Profile,
    use_dict: bool,
    out: &mut Vec<u8>,
) {
    CANNED_REQUESTS.fetch_add(1, Ordering::Relaxed);
    let dict: &[u8] = if use_dict { &profile.dict } else { &[] };
    if !dict.is_empty() {
        DICT_ENCODES.fetch_add(1, Ordering::Relaxed);
    }
    // Level 0 cannot carry dictionary references.
    let enc = Encoder::with_engine(profile.level.max(Level::Fastest.into()), engine);
    with_thread_tokenizer(|tok| {
        if !dict.is_empty() {
            tok.0.load_image(&profile.image);
        }
        // The writer adopts `out`: the stream is written where it stays.
        let mut w = BitWriter::from_vec(std::mem::take(out));
        enc.encode_chunk(&mut w, dict, data, tok, Some(profile), true);
        *out = w.finish();
    });
}

// ---------------------------------------------------------------------
// ProfileRegistry + serialization
// ---------------------------------------------------------------------

/// Serialization magic: "NXPR".
const MAGIC: [u8; 4] = *b"NXPR";

/// Current wire version.
const VERSION: u16 = 1;

/// A versioned, ordered set of [`Profile`]s keyed by [`ProfileId`] (slot
/// index) and name — loadable at service startup, selectable per
/// tenant/request.
///
/// The wire format ([`to_bytes`](Self::to_bytes)) is little-endian and
/// self-describing: `"NXPR"`, `u16` version, `u16` count, then per
/// profile the name, level, both code-length arrays, and the dictionary,
/// each length-prefixed. [`from_bytes`](Self::from_bytes) re-validates
/// every profile, so a corrupted registry can never smuggle an invalid
/// code into the panicking plan constructor.
#[derive(Debug, Clone, Default)]
pub struct ProfileRegistry {
    profiles: Vec<Profile>,
}

impl ProfileRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a profile, returning its [`ProfileId`].
    ///
    /// The id space is the wire format's `u16`: once a registry holds
    /// `u16::MAX` profiles further pushes are refused and the final
    /// slot's id is returned unchanged, so an id never aliases another
    /// profile.
    pub fn push(&mut self, profile: Profile) -> ProfileId {
        if self.profiles.len() < usize::from(u16::MAX) {
            self.profiles.push(profile);
        }
        ProfileId((self.profiles.len() - 1) as u16)
    }

    /// Looks a profile up by id.
    pub fn get(&self, id: ProfileId) -> Option<&Profile> {
        self.profiles.get(usize::from(id.0))
    }

    /// Looks a profile up by content-class name.
    pub fn by_name(&self, name: &str) -> Option<(ProfileId, &Profile)> {
        self.profiles
            .iter()
            .position(|p| p.name == name)
            .map(|i| (ProfileId(i as u16), &self.profiles[i]))
    }

    /// Number of profiles.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Iterates `(id, profile)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (ProfileId, &Profile)> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (ProfileId(i as u16), p))
    }

    /// Serializes the registry to the versioned wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.profiles.len() as u16).to_le_bytes());
        for p in &self.profiles {
            let name = p.name.as_bytes();
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name);
            out.push(p.level.get() as u8);
            out.extend_from_slice(&(p.litlen_lengths.len() as u16).to_le_bytes());
            out.extend_from_slice(&p.litlen_lengths);
            out.extend_from_slice(&(p.dist_lengths.len() as u16).to_le_bytes());
            out.extend_from_slice(&p.dist_lengths);
            out.extend_from_slice(&(p.dict.len() as u32).to_le_bytes());
            out.extend_from_slice(&p.dict);
        }
        out
    }

    /// Deserializes and re-validates a registry.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] on truncation; [`Error::InvalidProfile`]
    /// on bad magic, an unknown version, a non-UTF-8 name, an invalid
    /// level, or code lengths that fail [`Profile::new`] validation.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let mut at = 0usize;
        let magic = take(data, &mut at, 4)?;
        if magic != MAGIC {
            return Err(Error::InvalidProfile);
        }
        let version = read_u16(data, &mut at)?;
        if version != VERSION {
            return Err(Error::InvalidProfile);
        }
        let count = read_u16(data, &mut at)?;
        let mut reg = Self::new();
        for _ in 0..count {
            let name_len = usize::from(read_u16(data, &mut at)?);
            let name = std::str::from_utf8(take(data, &mut at, name_len)?)
                .map_err(|_| Error::InvalidProfile)?
                .to_string();
            let level_raw = u32::from(take(data, &mut at, 1)?[0]);
            let level = CompressionLevel::new(level_raw).map_err(|_| Error::InvalidProfile)?;
            let ll_len = usize::from(read_u16(data, &mut at)?);
            let litlen = take(data, &mut at, ll_len)?.to_vec();
            let d_len = usize::from(read_u16(data, &mut at)?);
            let dist = take(data, &mut at, d_len)?.to_vec();
            let dict_len = read_u32(data, &mut at)? as usize;
            let dict = take(data, &mut at, dict_len)?.to_vec();
            reg.push(Profile::new(name, level, litlen, dist, dict)?);
        }
        if at != data.len() {
            return Err(Error::InvalidProfile);
        }
        Ok(reg)
    }
}

fn take<'a>(data: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8]> {
    let s = data.get(*at..*at + n).ok_or(Error::UnexpectedEof)?;
    *at += n;
    Ok(s)
}

fn read_u16(data: &[u8], at: &mut usize) -> Result<u16> {
    let s = take(data, at, 2)?;
    Ok(u16::from_le_bytes([s[0], s[1]]))
}

fn read_u32(data: &[u8], at: &mut usize) -> Result<u32> {
    let s = take(data, at, 4)?;
    Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
}

#[cfg(test)]
/// The canned path as it stood before it ran the ladder's encode body and
/// block loop: its own tokenize-and-stage body and its own block loop
/// (cuts by token count only, a one-pass guard over the tokens, misfits
/// never stored), verbatim but for the staging buffer the thread's
/// tokenizer now lends too, which this copy leaves unused, and the block
/// counts `emit_canned_blocks` also returns; and the one block loop of the
/// next change, which priced each collected block from its histogram
/// ([`one_loop`](reference::one_loop)). The oracles the single pass is
/// diffed against.
mod reference {
    use super::*;
    use crate::encoder::reference::choose_and_encode_block;
    use crate::encoder::{encode_fixed_block, fixed_emit_tables, MAX_BLOCK_TOKENS};

    /// The parent's `deflate_canned_into`; returns the canned and fallback
    /// blocks it wrote.
    pub(super) fn deflate_canned_into(
        data: &[u8],
        engine: Engine,
        profile: &Profile,
        use_dict: bool,
        out: &mut Vec<u8>,
    ) -> (usize, usize) {
        thread_local! {
            /// dict + data staging buffer.
            static STAGING: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        CANNED_REQUESTS.fetch_add(1, Ordering::Relaxed);
        let dict: &[u8] = if use_dict { &profile.dict } else { &[] };
        if !dict.is_empty() {
            DICT_ENCODES.fetch_add(1, Ordering::Relaxed);
        }
        let level = profile.level.get().max(1); // level 0 cannot carry dict refs
        with_thread_tokenizer(|(matcher, tokens, _)| {
            if dict.is_empty() {
                tokenize_into_with(data, 0, level, engine, matcher, tokens);
            } else {
                matcher.load_image(&profile.image);
                STAGING.with(|staging| {
                    let buf = &mut *staging.borrow_mut();
                    buf.clear();
                    buf.extend_from_slice(dict);
                    buf.extend_from_slice(data);
                    tokenize_into_with(buf, dict.len(), level, engine, matcher, tokens);
                });
            }
            // The writer adopts `out`: the stream is written where it stays.
            let mut w = BitWriter::from_vec(std::mem::take(out));
            let counts = emit_canned_blocks(profile, tokens, &mut w);
            *out = w.finish();
            counts
        })
    }

    /// The canned path one change later, before the block sink: the whole
    /// parse collected (on a fresh matcher: the image primes the same
    /// tokens), then the one block loop of that time (`BlockEmitter::close`
    /// in one piece, so without its carry, with its fields as locals) pricing
    /// each block by `Profile::write_block`, both verbatim. Returns the
    /// stream and the canned and fallback blocks it wrote.
    pub(super) fn one_loop(
        data: &[u8],
        engine: Engine,
        p: &Profile,
        use_dict: bool,
    ) -> (Vec<u8>, (usize, usize)) {
        use crate::encoder::{MAX_BLOCK_BYTES, MAX_BLOCK_TOKENS};
        let dict: &[u8] = if use_dict { &p.dict } else { &[] };
        let level = p.level.max(Level::Fastest.into()).get();
        let (buf, mut tokens, mut m) = ([dict, data].concat(), Vec::new(), Hash4Matcher::new());
        tokenize_into_with(&buf, dict.len(), level, engine, &mut m, &mut tokens);
        let (mut w, rung, mut counts) = (BitWriter::new(), Level::from_numeric(level), (0, 0));
        // `BlockEmitter::write`.
        let mut write = |w: &mut BitWriter, block: &[Token], hist: &mut Histogram, at, last| {
            let (start, span): (usize, usize) = at;
            hist.record_end_of_block();
            let canned = write_block(p, w, block, hist, last);
            if !canned {
                let bytes = &data[start..start + span];
                crate::encoder::choose_and_encode_block(w, bytes, block, hist, last, rung);
            }
            counts = (
                counts.0 + usize::from(canned),
                counts.1 + usize::from(!canned),
            );
        };
        // `BlockEmitter::close` and `cut`.
        let (mut hist, mut start, mut from, mut open, mut span) = (Histogram::new(), 0, 0, 0, 0);
        for (i, &t) in tokens.iter().enumerate() {
            if open >= MAX_BLOCK_TOKENS || span >= MAX_BLOCK_BYTES {
                write(&mut w, &tokens[from..i], &mut hist, (start, span), false);
                hist.clear();
                (start, from, open, span) = (start + span, i, 0, 0);
            }
            hist.record(t);
            open += 1;
            span += t.input_len();
        }
        if open == 0 {
            encode_fixed_block(&mut w, &[], true);
        } else {
            write(&mut w, &tokens[from..], &mut hist, (start, span), true);
        }
        (w.finish(), counts)
    }

    /// `Profile::write_block`, verbatim but for its counters and the header's
    /// BFINAL, which the rendered header now leaves to its caller.
    fn write_block(
        p: &Profile,
        w: &mut BitWriter,
        block: &[Token],
        hist: &Histogram,
        last: bool,
    ) -> bool {
        let (mut uncoded, mut more) = (0, p.header.bits as i32 - 3);
        let mut price = |freqs: &[u32], canned: &[u8], fixed: &[u8]| {
            for ((&f, &c), &x) in freqs.iter().zip(canned).zip(fixed) {
                uncoded |= if c == 0 { f } else { 0 };
                more += f as i32 * (i32::from(c) - i32::from(x));
            }
        };
        price(&hist.litlen, &p.litlen_lengths, &FIXED_LITLEN);
        price(&hist.dist, &p.dist_lengths, &FIXED_DIST);
        let fits = uncoded == 0 && more <= 0;
        if !fits {
            return false;
        }
        let at = w.bit_len();
        p.header.write(w);
        if last {
            w.set_bit(at);
        }
        p.tables.write_body(w, block);
        true
    }

    /// Emits `tokens` into `w` as canned (or guard-fallback) blocks.
    fn emit_canned_blocks(p: &Profile, tokens: &[Token], w: &mut BitWriter) -> (usize, usize) {
        let mut counts = (0, 0);
        if tokens.is_empty() {
            encode_fixed_block(w, &[], true);
            return counts;
        }
        let fixed = fixed_emit_tables();
        let last = (tokens.len() - 1) / MAX_BLOCK_TOKENS;
        for (i, block) in tokens.chunks(MAX_BLOCK_TOKENS).enumerate() {
            // The guard, in one pass over the tokens: the block's exact cost on
            // the canned tables and on the fixed ones, and whether the profile
            // has a code for every symbol it uses.
            let mut canned_bits = p.header.bits + u64::from(p.tables.eob.len);
            let mut fixed_bits = 3 + u64::from(fixed.eob.len);
            let mut covered = true;
            for &t in block {
                let (bits, has_codes) = p.tables.token_bits(t);
                canned_bits += u64::from(bits);
                covered &= has_codes;
                fixed_bits += u64::from(fixed.token_bits(t).0);
            }
            if covered && canned_bits <= fixed_bits {
                CANNED_BLOCKS.fetch_add(1, Ordering::Relaxed);
                counts.0 += 1;
                let at = w.bit_len();
                p.header.write(w);
                if i == last {
                    w.set_bit(at);
                }
                p.tables.write_body(w, block);
            } else {
                // Misfit: the block strays from the trained class. Exact tables
                // for it, by the one block decision (entropy only: no span).
                FALLBACK_BLOCKS.fetch_add(1, Ordering::Relaxed);
                counts.1 += 1;
                let rung = Level::from_numeric(p.level.get());
                choose_and_encode_block(w, None, block, &Histogram::of(block), i == last, rung);
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{inflate, inflate_with_dict, Inflater};
    use nx_corpus::CorpusKind;

    /// The classes the service's default registry ships, at its levels.
    const SHIPPED: [(CorpusKind, u32); 5] = [
        (CorpusKind::Json, 3),
        (CorpusKind::Logs, 3),
        (CorpusKind::Text, 2),
        (CorpusKind::Xmlish, 3),
        (CorpusKind::Code, 3),
    ];

    fn trained(kind: CorpusKind, level: u32) -> Profile {
        let samples: Vec<Vec<u8>> = (0..16).map(|i| kind.generate(7_700 + i, 4096)).collect();
        let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
        Profile::derive(kind.name(), &refs, lvl(level), DEFAULT_DICT_CAP).unwrap()
    }

    /// The canned and fallback blocks of `stream`, decoded behind `dict`,
    /// and each block's type: a block is canned when it opens with the
    /// profile's header, its BFINAL bit aside. (A fallback block never
    /// does: either the profile lacks a code its own plan has, or the
    /// profile's tables cost more than the fixed ones, and then so would a
    /// dynamic block on the same tables.)
    fn blocks_of(stream: &[u8], p: &Profile, dict: &[u8]) -> ((usize, usize), Vec<u8>) {
        let mut header = BitWriter::new();
        p.header.write(&mut header);
        let header = header.finish();
        let bit = |bytes: &[u8], i: u64| bytes.get((i / 8) as usize).map(|b| b >> (i % 8) & 1);
        let mut inf = Inflater::new(stream);
        inf.prime_window(dict);
        let (mut counts, mut types) = ((0, 0), Vec::new());
        while !inf.is_finished() {
            let at = inf.bit_position();
            types.push(bit(stream, at + 1).unwrap() | bit(stream, at + 2).unwrap() << 1);
            if (1..p.header.bits).all(|i| bit(stream, at + i) == bit(&header, i)) {
                counts.0 += 1;
            } else {
                counts.1 += 1;
            }
            inf.decode_block(usize::MAX).unwrap();
        }
        assert_eq!(inf.output(), &inflate_with_dict(stream, dict).unwrap()[..]);
        (counts, types)
    }

    #[test]
    fn canned_requests_equal_the_parent_for_every_shipped_class() {
        // Below a 128 KiB span the one block loop cuts where the parent's
        // did, and prices each block to the parent's decision: same bytes,
        // same canned and fallback blocks, with the dictionary and without,
        // on every engine.
        let sizes = [
            0,
            1,
            17,
            1 << 10,
            3_000,
            4 << 10,
            16 << 10,
            50_000,
            64 << 10,
        ];
        let mut seen = (0, 0);
        for (kind, level) in SHIPPED {
            let p = trained(kind, level);
            for (seed, len) in sizes.into_iter().enumerate() {
                let data = kind.generate(900 + seed as u64, len);
                for (use_dict, engine) in [
                    (true, Engine::Auto),
                    (false, Engine::Auto),
                    (true, Engine::Sequential),
                    (true, Engine::Speculative),
                ] {
                    let what = format!("{} {len} dict {use_dict} {engine:?}", kind.name());
                    let (mut want, mut got) = (Vec::new(), Vec::new());
                    let counts =
                        reference::deflate_canned_into(&data, engine, &p, use_dict, &mut want);
                    deflate_canned_into(&data, engine, &p, use_dict, &mut got);
                    assert!(got == want, "{what}");
                    let dict = if use_dict { p.dict() } else { &[] };
                    let (blocks, _) = blocks_of(&got, &p, dict);
                    if len > 0 {
                        assert_eq!(blocks, counts, "{what}");
                    }
                    (seen.0, seen.1) = (seen.0 + counts.0, seen.1 + counts.1);
                }
            }
        }
        assert!(
            seen.0 > 0 && seen.1 > 0,
            "canned and fallback blocks: {seen:?}"
        );
    }

    #[test]
    fn the_single_pass_equals_the_parent_past_a_small_request() {
        // What a 2 KiB request never reaches, against the loop before the
        // block sink, for every shipped class, engine and dictionary: a
        // request cut by both rules (random bytes cut at 50 000 tokens, the
        // class's own at 128 KiB), so BFINAL is set on a later block; a
        // misfit block mid-request; and a profile that lost one code length
        // (the NUL literal's) on its way through the registry's bytes, on a
        // payload with one NUL in its second block. Each request matches the
        // parent's bytes and block counts; each input shows both kinds.
        for (kind, level) in SHIPPED {
            let p = trained(kind, level);
            let (class, noise) = (
                |s, n| kind.generate(s, n),
                |s, n| CorpusKind::Random.generate(s, n),
            );
            let both = [class(1, 160 << 10), noise(2, 56 << 10), class(3, 140 << 10)].concat();
            let misfit = [class(4, 128 << 10), noise(5, 48 << 10), class(6, 64 << 10)].concat();
            let mut nul = class(7, 160 << 10);
            nul[150 << 10] = 0;
            let mut reg = ProfileRegistry::new();
            reg.push(p.clone());
            let mut bytes = reg.to_bytes();
            bytes[8 + 2 + kind.name().len() + 1 + 2] = 0; // litlen length of 0
            let holed = ProfileRegistry::from_bytes(&bytes)
                .unwrap()
                .profiles
                .remove(0);
            assert_eq!(holed.litlen_lengths()[0], 0);
            for (what, p, data) in [
                ("both", &p, &both),
                ("misfit", &p, &misfit),
                ("holed", &holed, &nul),
            ] {
                let mut seen = (0, 0);
                for engine in [Engine::Auto, Engine::Sequential, Engine::Speculative] {
                    for use_dict in [true, false] {
                        let what = format!("{} {what} dict {use_dict} {engine:?}", kind.name());
                        let (want, counts) = reference::one_loop(data, engine, p, use_dict);
                        let got = deflate_canned(data, engine, p, use_dict);
                        assert!(got == want, "{what}");
                        let dict = if use_dict { p.dict() } else { &[] };
                        assert_eq!(blocks_of(&got, p, dict).0, counts, "{what}");
                        (seen.0, seen.1) = (seen.0 + counts.0, seen.1 + counts.1);
                    }
                }
                assert!(seen.0 > 0 && seen.1 > 0, "{} {what}: {seen:?}", kind.name());
            }
        }
    }

    #[test]
    fn a_misfit_block_is_stored_when_that_is_cheapest() {
        // Random bytes fit no profile. Their misfit block goes to the one
        // block decision, which stores it: no larger than the ladder's own
        // choice, and smaller than the parent's entropy-only fallback.
        let p = trained(CorpusKind::Json, 3);
        for (seed, len, n) in [(1, 2 << 10, 1), (2, 16 << 10, 1), (3, 64 << 10, 2)] {
            let data = CorpusKind::Random.generate(seed, len);
            for use_dict in [false, true] {
                let c = deflate_canned(&data, Engine::Auto, &p, use_dict);
                let dict = if use_dict { p.dict() } else { &[] };
                let (blocks, types) = blocks_of(&c, &p, dict);
                assert_eq!((blocks, types), ((0, n), vec![0; n]), "{len} {use_dict}");
                let ladder = Encoder::new(p.level()).compress(&data);
                assert!(
                    c.len() <= ladder.len(),
                    "{len}: {} > {}",
                    c.len(),
                    ladder.len()
                );
                let mut parent = Vec::new();
                reference::deflate_canned_into(&data, Engine::Auto, &p, use_dict, &mut parent);
                assert!(
                    c.len() < parent.len(),
                    "{len}: {} vs {}",
                    c.len(),
                    parent.len()
                );
            }
        }
    }

    fn lvl(l: u32) -> CompressionLevel {
        CompressionLevel::new(l).unwrap()
    }

    fn json_samples() -> Vec<Vec<u8>> {
        (0..24)
            .map(|i| {
                format!(
                    "{{\"user\": \"user{:04}\", \"region\": \"r{}\", \"status\": \"active\", \
                     \"score\": {}, \"tags\": [\"alpha\", \"beta\"]}}",
                    i,
                    i % 7,
                    i * 37
                )
                .into_bytes()
            })
            .collect()
    }

    fn derive_json(level: u32) -> Profile {
        let samples = json_samples();
        let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
        Profile::derive("json", &refs, lvl(level), DEFAULT_DICT_CAP).unwrap()
    }

    #[test]
    fn image_primed_tokens_equal_live_primed_for_every_shipped_class() {
        use nx_corpus::CorpusKind::{Code, Json, Logs, Text, Xmlish};
        let mut reused = Hash4Matcher::new();
        for (kind, level) in [(Json, 3), (Logs, 3), (Text, 6), (Xmlish, 1), (Code, 9)] {
            let samples: Vec<Vec<u8>> = (0..16).map(|i| kind.generate(7_700 + i, 4096)).collect();
            let refs: Vec<&[u8]> = samples.iter().map(|s| s.as_slice()).collect();
            let p = Profile::derive(kind.name(), &refs, lvl(level), DEFAULT_DICT_CAP).unwrap();
            assert!(p.dict().len() > 64, "{} trained no dictionary", kind.name());
            for (seed, len) in [(1, 0), (2, 3), (3, 300), (4, 2048), (5, 16 << 10)] {
                let mut buf = p.dict().to_vec();
                buf.extend_from_slice(&kind.generate(seed, len));
                for engine in [Engine::Auto, Engine::Sequential, Engine::Speculative] {
                    let tokenize = |m: &mut Hash4Matcher| {
                        let mut tokens = Vec::new();
                        tokenize_into_with(&buf, p.dict().len(), level, engine, m, &mut tokens);
                        tokens
                    };
                    reused.reset();
                    reused.load_image(&p.image);
                    let primed = tokenize(&mut reused);
                    let live = tokenize(&mut Hash4Matcher::new());
                    assert_eq!(primed, live, "{} len {len} {engine:?}", kind.name());
                }
            }
        }
    }

    #[test]
    fn derived_profile_roundtrips_with_dict() {
        let p = derive_json(6);
        assert!(!p.dict().is_empty(), "shared structure must yield a dict");
        let record = b"{\"user\": \"user9999\", \"region\": \"r3\", \"status\": \"active\", \
                       \"score\": 1234, \"tags\": [\"alpha\", \"beta\"]}";
        let c = deflate_canned(record, Engine::Auto, &p, true);
        assert_eq!(inflate_with_dict(&c, p.dict()).unwrap(), record);
    }

    #[test]
    fn derived_profile_roundtrips_without_dict() {
        let p = derive_json(6);
        let record = b"{\"user\": \"someone else entirely\", \"score\": 42}";
        let c = deflate_canned(record, Engine::Auto, &p, false);
        assert_eq!(inflate(&c).unwrap(), record);
    }

    #[test]
    fn canned_with_dict_beats_plain_deflate_on_class_traffic() {
        let p = derive_json(6);
        let record = b"{\"user\": \"user0500\", \"region\": \"r2\", \"status\": \"active\", \
                       \"score\": 500, \"tags\": [\"alpha\", \"beta\"]}";
        let canned = deflate_canned(record, Engine::Auto, &p, true);
        let plain = crate::deflate(record, lvl(6));
        assert!(
            canned.len() < plain.len(),
            "canned+dict {} vs plain {}",
            canned.len(),
            plain.len()
        );
    }

    #[test]
    fn the_guard_prices_a_block_to_the_bit() {
        // A block is written canned exactly when its canned bits, header
        // and end-of-block included, are no more than its fixed bits, as
        // both writers count them. Literals whose canned code is a bit or
        // two longer or shorter than their fixed one walk the difference
        // through every value around the tie.
        let p = derive_json(6);
        let fixed = crate::encoder::fixed_litlen_lengths();
        let step = |d: i64| {
            (0..=255u8).find(|&b| {
                p.litlen_lengths[usize::from(b)] as i64 - fixed[usize::from(b)] as i64 == d
            })
        };
        let (longer, shorter) = (step(1).unwrap(), step(-2).unwrap());
        let (mut block, mut seen) = (Vec::new(), std::collections::BTreeSet::new());
        let (eob, mut rising) = (i64::from(p.tables.eob.len), false);
        for _ in 0..600 {
            let bits = |write: &dyn Fn(&mut BitWriter)| {
                let mut w = BitWriter::new();
                write(&mut w);
                w.bit_len() as i64
            };
            let canned = bits(&|w| {
                p.header.write(w);
                p.tables.write_body(w, &block);
            });
            let fixed = bits(&|w| crate::encoder::encode_fixed_block(w, &block, false));
            let took = p.fits(&Histogram::of(&block));
            assert_eq!(
                took,
                canned <= fixed,
                "{} tokens, {canned} vs {fixed}",
                block.len()
            );
            seen.insert(canned - fixed);
            // Down two bits a literal to below the tie, then up one at a
            // time to past an end-of-block code.
            rising = (rising || canned < fixed) && canned - fixed <= eob;
            block.push(Token::Literal(if rising { longer } else { shorter }));
        }
        assert!((-1..=eob + 1).all(|d| seen.contains(&d)), "{seen:?}");
    }

    #[test]
    fn a_symbol_the_profile_cannot_code_is_a_misfit() {
        // A profile without a code for the NUL literal or for distance 1:
        // a block that uses either goes to the one block decision, and one
        // that uses neither is written canned (this payload uses neither
        // behind the dictionary).
        let p = trained(CorpusKind::Json, 3);
        let without = |lengths: &[u8]| {
            let weights: Vec<u32> = (lengths.iter().enumerate())
                .map(|(s, &l)| if s == 0 || l == 0 { 0 } else { 1 << (15 - l) })
                .collect();
            build::limited_lengths(&weights, MAX_CODE_LEN)
        };
        let holes = Profile::new(
            "holes",
            lvl(3),
            without(p.litlen_lengths()),
            without(p.dist_lengths()),
            p.dict().to_vec(),
        )
        .unwrap();
        let records = CorpusKind::Json.generate(0, 4096);
        let mut nul = records.clone();
        nul[100] = 0;
        let run = [&records[..200], b"zzzzzzzzzzzz", &records[200..]].concat();
        for (data, blocks) in [(&records, (1, 0)), (&nul, (0, 1)), (&run, (0, 1))] {
            let c = deflate_canned(data, Engine::Auto, &holes, true);
            assert_eq!(blocks_of(&c, &holes, holes.dict()).0, blocks);
            assert_eq!(&inflate_with_dict(&c, holes.dict()).unwrap(), data);
        }
    }

    #[test]
    fn misfit_falls_back_and_stays_valid() {
        let p = derive_json(6);
        // Binary-ish data far from the trained class.
        let data: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let before = profile_counters().fallback_blocks;
        let c = deflate_canned(&data, Engine::Auto, &p, false);
        assert_eq!(inflate(&c).unwrap(), data);
        assert!(
            profile_counters().fallback_blocks > before,
            "guard must fall back on misfit"
        );
    }

    #[test]
    fn empty_input_roundtrips() {
        let p = derive_json(6);
        for use_dict in [false, true] {
            let c = deflate_canned(b"", Engine::Auto, &p, use_dict);
            if use_dict {
                assert_eq!(inflate_with_dict(&c, p.dict()).unwrap(), b"");
            } else {
                assert_eq!(inflate(&c).unwrap(), b"");
            }
        }
    }

    #[test]
    fn counters_move() {
        let p = derive_json(6);
        let before = profile_counters();
        let record = b"{\"user\": \"user0001\", \"region\": \"r1\", \"status\": \"active\", \
                       \"score\": 37, \"tags\": [\"alpha\", \"beta\"]}";
        let _ = deflate_canned(record, Engine::Auto, &p, true);
        let after = profile_counters();
        assert!(after.canned_requests > before.canned_requests);
        assert!(after.dict_encodes > before.dict_encodes);
        record_profile_miss();
        assert!(profile_counters().profile_misses > before.profile_misses);
    }

    #[test]
    fn registry_roundtrips_through_bytes() {
        let mut reg = ProfileRegistry::new();
        let id = reg.push(derive_json(6));
        let p2 = Profile::new(
            "fixed-ish",
            lvl(1),
            crate::encoder::fixed_litlen_lengths().to_vec(),
            crate::encoder::fixed_dist_lengths().to_vec(),
            b"tiny dict".to_vec(),
        )
        .unwrap();
        reg.push(p2);
        let bytes = reg.to_bytes();
        let back = ProfileRegistry::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        let p = back.get(id).unwrap();
        assert_eq!(p.name(), "json");
        assert_eq!(p.dict(), reg.get(id).unwrap().dict());
        assert_eq!(p.litlen_lengths(), reg.get(id).unwrap().litlen_lengths());
        assert_eq!(back.by_name("fixed-ish").unwrap().0, ProfileId::new(1));
        // Re-serialization is byte-identical (golden stability).
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn registry_golden_header() {
        let reg = ProfileRegistry::new();
        // Empty registry: magic, version 1, count 0 — the golden prefix
        // every serialized registry starts with.
        assert_eq!(reg.to_bytes(), b"NXPR\x01\x00\x00\x00");
    }

    #[test]
    fn registry_rejects_corruption() {
        let mut reg = ProfileRegistry::new();
        reg.push(derive_json(6));
        let bytes = reg.to_bytes();
        assert_eq!(
            ProfileRegistry::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err(),
            Error::UnexpectedEof,
            "truncation"
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            ProfileRegistry::from_bytes(&bad_magic).unwrap_err(),
            Error::InvalidProfile
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(
            ProfileRegistry::from_bytes(&bad_version).unwrap_err(),
            Error::InvalidProfile
        );
        let mut trailing = bytes;
        trailing.push(0);
        assert_eq!(
            ProfileRegistry::from_bytes(&trailing).unwrap_err(),
            Error::InvalidProfile
        );
    }

    #[test]
    fn profile_new_validates() {
        // EOB without a code.
        let mut ll = vec![8u8; NUM_LITLEN_SYMBOLS];
        ll[256] = 0;
        assert_eq!(
            Profile::new("bad", lvl(6), ll, vec![5u8; NUM_DIST_SYMBOLS], Vec::new()).unwrap_err(),
            Error::InvalidProfile
        );
        // Oversubscribed litlen code.
        let ll = vec![1u8; NUM_LITLEN_SYMBOLS];
        assert_eq!(
            Profile::new("bad", lvl(6), ll, vec![5u8; NUM_DIST_SYMBOLS], Vec::new()).unwrap_err(),
            Error::InvalidProfile
        );
        // Wrong alphabet size.
        assert_eq!(
            Profile::new(
                "bad",
                lvl(6),
                vec![8u8; 100],
                vec![5u8; NUM_DIST_SYMBOLS],
                Vec::new()
            )
            .unwrap_err(),
            Error::InvalidProfile
        );
    }

    #[test]
    fn oversized_dict_is_trimmed_to_window() {
        let dict = vec![7u8; crate::WINDOW_SIZE + 500];
        let p = Profile::new(
            "big",
            lvl(6),
            crate::encoder::fixed_litlen_lengths().to_vec(),
            crate::encoder::fixed_dist_lengths().to_vec(),
            dict,
        )
        .unwrap();
        assert_eq!(p.dict().len(), crate::WINDOW_SIZE);
    }

    #[test]
    fn differential_battery_canned_always_valid() {
        // Across levels, dict on/off, and content both in- and
        // out-of-class, every canned stream must inflate byte-exact.
        let p1 = derive_json(1);
        let p6 = derive_json(6);
        let inputs: Vec<Vec<u8>> = vec![
            b"{}".to_vec(),
            b"{\"user\": \"user0001\", \"region\": \"r1\", \"status\": \"active\", \"score\": 1, \"tags\": [\"alpha\", \"beta\"]}".to_vec(),
            (0..2000u32).map(|i| (i % 251) as u8).collect(),
            vec![0u8; 8192],
            b"a".repeat(300),
            (0..12000u32).map(|i| (i.wrapping_mul(2654435761) >> 11) as u8).collect(),
        ];
        for p in [&p1, &p6] {
            for input in &inputs {
                for use_dict in [false, true] {
                    let c = deflate_canned(input, Engine::Auto, p, use_dict);
                    let back = if use_dict && !p.dict().is_empty() {
                        inflate_with_dict(&c, p.dict()).unwrap()
                    } else {
                        inflate(&c).unwrap()
                    };
                    assert_eq!(&back, input, "profile {} dict {use_dict}", p.name());
                }
            }
        }
    }
}
