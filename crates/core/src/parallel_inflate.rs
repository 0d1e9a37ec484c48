//! Parallel and seekable decompression — the decode-side companion to
//! [`crate::parallel`].
//!
//! A DEFLATE stream is serial by construction: every Huffman block may
//! reference the previous 32 KB of *output*, and block boundaries are not
//! byte-aligned, so a reader cannot simply split the input. The NX unit
//! decodes one stream through one serial pipeline and gets its parallelism
//! across requests; *rapidgzip* (arXiv 2308.08955) and *Massively-Parallel
//! Lossless Data Decompression* (arXiv 1606.00519) parallelise inside a
//! stream cheaply only where the split points are known in advance. So a
//! decode takes one of two routes:
//!
//! 1. **Member fan-out** — a multi-member gzip stream's trailers say where
//!    every member's output goes, so with more than one worker the result
//!    is allocated once and workers decode members straight into their
//!    slices (`plan_members`). A member that does not validate drops the
//!    plan and the request falls back to the serial walk, so output (and
//!    errors) are always byte-identical to a serial inflate.
//! 2. **Serial** — everything else (a single member, zlib, raw DEFLATE, one
//!    worker) is [`ParallelInflater::decompress_serial`]. Without an index
//!    a single stream's split points would have to be guessed, and a guess
//!    checked, which never beat the serial walk it falls back to.
//!
//! The module also builds a serializable [`SeekIndex`] — a list of (bit
//! offset, output offset, referenced window bytes) checkpoints, inside
//! blocks as well as between them — so [`ParallelInflater::decompress_at`]
//! can random-access any slice of the decompressed stream, decoding little
//! more than it returns.

use crate::fault::FaultInjector;
use crate::framing::{self, Format};
use crate::{software, Error, Result};
use nx_deflate::workers::{cpus, Workers};
use nx_deflate::{gzip, Error as DeflateError, InflateScratch, Inflater, MAX_MATCH, WINDOW_SIZE};
use nx_telemetry::{MetricSource, MetricValue, Stage, TelemetrySink, TraceContext};
use std::mem::take;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Modeled decode streaming rate for shard spans: 8 compressed bytes per
/// cycle, matching the encode-side shard model. Decode span timelines are
/// deterministic functions of unit index and size, never wall clock.
const DECODE_BYTES_PER_CYCLE: u64 = 8;

/// Compressed bytes per modeled wave on the span timeline: unit `i` starts
/// `i / workers` waves in, each of this many bytes' decode cycles.
const SPAN_WAVE_BYTES: u64 = 256 * 1024;

/// Output bytes between seek-index checkpoints: a ranged read decodes half
/// of this, on average, before its range.
const DEFAULT_CHECKPOINT_EVERY: usize = 64 * 1024;

/// Longest gzip member header the member planner looks at: a full FEXTRA
/// plus generous FNAME / FCOMMENT. A longer one is simply not planned.
const MAX_MEMBER_HEADER: usize = 128 * 1024;

/// Magic bytes that open a serialized [`SeekIndex`].
pub const SEEK_INDEX_MAGIC: [u8; 4] = *b"NXSI";

/// Serialization format version written; versions 1 and 2 load.
const SEEK_INDEX_VERSION: u8 = 3;

/// Tuning knobs for [`ParallelInflater`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelInflateOptions {
    /// Most threads a member fan-out (decode and index build) runs, the
    /// caller included: a cap on the helpers it claims from the inflater's
    /// budget. Defaults to the host's CPUs; `0` or `1` decodes every stream
    /// serially.
    pub workers: usize,
    /// Decompressed bytes between seek-index checkpoints (at least one
    /// window): each sits where the token that would cross the mark begins.
    pub checkpoint_every: usize,
}

impl Default for ParallelInflateOptions {
    fn default() -> Self {
        Self {
            workers: cpus(),
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
        }
    }
}

/// Counters for the parallel-decode path, exported through the telemetry
/// registry as source `nx-decode-parallel`.
#[derive(Debug, Default)]
pub struct InflateParStats {
    requests: AtomicU64,
    members_parallel: AtomicU64,
    serial_fallbacks: AtomicU64,
    seek_index_hits: AtomicU64,
    seek_decoded_bytes: AtomicU64,
    bytes_out: AtomicU64,
}

macro_rules! counter_getters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        $( $(#[$doc])* pub fn $name(&self) -> u64 { self.$name.load(Ordering::Relaxed) } )+
    };
}

impl InflateParStats {
    counter_getters! {
        /// Decompression requests routed through the parallel path.
        requests,
        /// gzip members decoded member-per-worker.
        members_parallel,
        /// Requests that degraded to the serial decoder after a parallel
        /// attempt.
        serial_fallbacks,
        /// `decompress_at` calls served from a seek index.
        seek_index_hits,
        /// Bytes those calls decoded, returned or not (read amplification).
        seek_decoded_bytes,
        /// Total decompressed bytes produced.
        bytes_out,
    }

    /// Always 0 (no speculative chunks exist); `nxbench` still reads it.
    pub fn chunks_decoded(&self) -> u64 {
        0
    }

    /// Always 0 (nothing speculates, so nothing misses); `nxbench` still reads it.
    pub fn speculation_misses(&self) -> u64 {
        0
    }

    /// Always 0 (no marker patch pass exists); `nxbench` still reads it.
    pub fn marker_patch_bytes(&self) -> u64 {
        0
    }
}

impl MetricSource for InflateParStats {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        let counters: [(&str, u64); 6] = [
            ("nx_decode_parallel_requests_total", self.requests()),
            ("nx_decode_parallel_members_total", self.members_parallel()),
            (
                "nx_decode_parallel_serial_fallbacks_total",
                self.serial_fallbacks(),
            ),
            (
                "nx_decode_parallel_seek_index_hits_total",
                self.seek_index_hits(),
            ),
            (
                "nx_decode_parallel_seek_decoded_bytes_total",
                self.seek_decoded_bytes(),
            ),
            ("nx_decode_parallel_bytes_out_total", self.bytes_out()),
        ];
        for (name, v) in counters {
            out.push((name.into(), MetricValue::Counter(v)));
        }
    }
}

/// One random-access entry point into a compressed stream: resume decoding
/// at `bit_offset` in the block begun at `block_bit`, `out_offset` bytes in,
/// with `runs` of `window` as the history the data behind it reaches into.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeekCheckpoint {
    /// Absolute bit offset (from the start of the *container*) of the token
    /// (in a stored block, the byte) the read resumes at.
    pub bit_offset: u64,
    /// Absolute bit offset of the header of the block `bit_offset` is in;
    /// equal to it at a block boundary.
    pub block_bit: u64,
    /// Decompressed bytes preceding this checkpoint.
    pub out_offset: u64,
    /// The ascending, disjoint `(offset, len)` runs later data references
    /// of the 32 KB window ending here (offset 0 is 32 768 bytes back): one
    /// for a whole window, none at a member start, where history resets.
    pub runs: Vec<(u16, u16)>,
    /// The bytes of `runs`, back to back.
    pub window: Vec<u8>,
}

impl SeekCheckpoint {
    /// Rebuilds in `dict` the window from its first referenced byte on.
    fn window_into(&self, dict: &mut Vec<u8>) {
        dict.clear();
        let first = self.runs.first().map_or(WINDOW_SIZE, |r| usize::from(r.0));
        dict.resize(WINDOW_SIZE - first, 0);
        let mut bytes = self.window.as_slice();
        for &(offset, len) in &self.runs {
            let (run, rest) = bytes.split_at(usize::from(len));
            dict[usize::from(offset) - first..][..run.len()].copy_from_slice(run);
            bytes = rest;
        }
    }
}

/// A serializable random-access index over a compressed stream.
///
/// Built by [`ParallelInflater::build_index`]; consumed by
/// [`ParallelInflater::decompress_at`]. The wire format is
/// `"NXSI" u8:version u8:format u64:total_out u32:count` followed by
/// `count` records of `u64:bit_offset u64:out_offset u64:block_bit u32:wlen
/// u16:runs`, `runs` pairs of `u16:offset u16:len` and the `wlen` window
/// bytes, all little-endian; a version 2 record has no `block_bit`, a
/// version 1 record no runs either (its bytes are the trailing window
/// whole). The index has no checksum of its own: a damaged one yields a
/// typed error or wrong bytes, never an unbounded read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeekIndex {
    format: Format,
    total_out: u64,
    checkpoints: Vec<SeekCheckpoint>,
}

impl SeekIndex {
    fn new(format: Format) -> Self {
        Self {
            format,
            total_out: 0,
            checkpoints: Vec::new(),
        }
    }

    /// Container format the index was built for.
    pub fn format(&self) -> Format {
        self.format
    }

    /// Total decompressed size of the indexed stream.
    pub fn total_out(&self) -> u64 {
        self.total_out
    }

    /// The checkpoints, ordered by `out_offset`.
    pub fn checkpoints(&self) -> &[SeekCheckpoint] {
        &self.checkpoints
    }

    /// Serializes the index (see the type docs for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = SEEK_INDEX_MAGIC.to_vec();
        out.push(SEEK_INDEX_VERSION);
        out.push(self.format as u8);
        out.extend_from_slice(&self.total_out.to_le_bytes());
        out.extend_from_slice(&(self.checkpoints.len() as u32).to_le_bytes());
        for c in &self.checkpoints {
            out.extend_from_slice(&c.bit_offset.to_le_bytes());
            out.extend_from_slice(&c.out_offset.to_le_bytes());
            out.extend_from_slice(&c.block_bit.to_le_bytes());
            out.extend_from_slice(&(c.window.len() as u32).to_le_bytes());
            out.extend_from_slice(&(c.runs.len() as u16).to_le_bytes());
            for (offset, len) in &c.runs {
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            out.extend_from_slice(&c.window);
        }
        out
    }

    /// Deserializes what [`SeekIndex::to_bytes`] wrote, now or at version 1 or 2.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidSeekIndex`] on bad magic, version, truncation,
    /// offsets that do not ascend (block bits may repeat, never pass their
    /// bit offset), or runs that are unsorted, overlap, leave the window or
    /// do not add up to the window bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Self> {
        let mut rest = data;
        let mut read = |n: usize| {
            let (head, tail) = rest.split_at_checked(n).ok_or(Error::InvalidSeekIndex)?;
            rest = tail;
            Ok::<_, Error>(head)
        };
        let le = |s: &[u8]| s.iter().rev().fold(0u64, |v, &b| v << 8 | u64::from(b));
        let valid = |ok: bool| ok.then_some(()).ok_or(Error::InvalidSeekIndex);
        valid(read(4)? == SEEK_INDEX_MAGIC)?;
        let version = read(1)?[0];
        valid((1..=SEEK_INDEX_VERSION).contains(&version))?;
        // The wire code `to_bytes` writes is the format's discriminant.
        let formats = [Format::RawDeflate, Format::Gzip, Format::Zlib];
        let format = formats.get(usize::from(read(1)?[0]));
        let mut index = Self::new(*format.ok_or(Error::InvalidSeekIndex)?);
        index.total_out = le(read(8)?);
        for _ in 0..le(read(4)?) {
            let (bit_offset, out_offset) = (le(read(8)?), le(read(8)?));
            let block_bit = (version > 2).then(|| read(8).map(le));
            let block_bit = block_bit.transpose()?.unwrap_or(bit_offset);
            let wlen = le(read(4)?) as usize;
            let mut runs = Vec::new();
            if version == 1 && wlen > 0 {
                runs.push((WINDOW_SIZE.saturating_sub(wlen) as u16, wlen as u16));
            } else if version > 1 {
                for _ in 0..le(read(2)?) {
                    runs.push((le(read(2)?) as u16, le(read(2)?) as u16));
                }
            }
            // Each run starts at or past the end of the one before.
            let (mut end, mut sum) = (0usize, 0usize);
            for &(offset, len) in &runs {
                valid(usize::from(offset) >= end && len > 0)?;
                end = usize::from(offset) + usize::from(len);
                sum += usize::from(len);
            }
            valid(end <= WINDOW_SIZE && sum == wlen && out_offset <= index.total_out)?;
            valid(block_bit <= bit_offset)?;
            if let Some(prev) = index.checkpoints.last() {
                valid(prev.bit_offset < bit_offset && prev.out_offset <= out_offset)?;
                valid(prev.block_bit <= block_bit)?;
            }
            index.checkpoints.push(SeekCheckpoint {
                bit_offset,
                block_bit,
                out_offset,
                runs,
                window: read(wlen)?.to_vec(),
            });
        }
        valid(rest.is_empty())?;
        Ok(index)
    }
}

/// The parallel + seekable decoder. Cheap to construct: workers are
/// [`Workers::fan_out`]'s scoped threads, claimed from its budget per
/// request, borrowing the input slice.
#[derive(Debug)]
pub struct ParallelInflater {
    opts: ParallelInflateOptions,
    stats: Arc<InflateParStats>,
    faults: Option<Arc<FaultInjector>>,
    /// Span sink for traced decodes (disabled by default — the untraced
    /// paths never touch it).
    telemetry: TelemetrySink,
    /// Idle ranged-read states: a read pops one (or starts one) and pushes
    /// it back, so a warm read allocates its result only.
    seek_idle: parking_lot::Mutex<Vec<Walker>>,
    /// The helper budget a member fan-out claims from.
    workers: Workers,
}

/// A worker's reused buffers: a decode's tables and output (one stream whole,
/// for its checksum), the window a ranged read rebuilds, and the cleared
/// window-read maps an index build's tallies take.
#[derive(Debug, Default)]
struct Walker {
    scratch: InflateScratch,
    out: Vec<u8>,
    dict: Vec<u8>,
    spare: Vec<Vec<bool>>,
}

impl ParallelInflater {
    /// Creates a decoder with fresh stats, on a worker budget of its own
    /// sized to the host.
    pub fn new(opts: ParallelInflateOptions) -> Self {
        Self::with_workers(opts, Workers::host())
    }

    /// As [`new`](Self::new), claiming its helpers from `workers`.
    pub fn with_workers(opts: ParallelInflateOptions, workers: Workers) -> Self {
        let sink = TelemetrySink::disabled();
        Self::with_parts(opts, Arc::default(), None, sink, workers)
    }

    /// Creates a decoder sharing stats / faults / sink / budget with a
    /// facade.
    pub(crate) fn with_parts(
        opts: ParallelInflateOptions,
        stats: Arc<InflateParStats>,
        faults: Option<Arc<FaultInjector>>,
        telemetry: TelemetrySink,
        workers: Workers,
    ) -> Self {
        Self {
            opts,
            stats,
            faults,
            telemetry,
            seek_idle: Default::default(),
            workers,
        }
    }

    /// The decode counters (shared with the owning facade, if any).
    pub fn stats(&self) -> &Arc<InflateParStats> {
        &self.stats
    }

    /// Decompresses `data`: member-parallel for a multi-member gzip when
    /// there is more than one worker, serially otherwise.
    ///
    /// Output is byte-identical to [`ParallelInflater::decompress_serial`]
    /// on every input — a member plan that does not validate falls back to
    /// the serial path, including for malformed streams, so errors match too.
    ///
    /// # Errors
    ///
    /// Exactly those of the serial reference decode.
    pub fn decompress(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        self.decompress_inner(data, format, None)
    }

    /// As [`decompress`](Self::decompress), inside the caller's trace:
    /// each fanned-out gzip member (or the one serially decoded stream)
    /// lands as a `shard` span on the request's modeled timeline under
    /// `ctx.parent_span`, and any degradation to the serial reference is
    /// recorded as a `fallback` span. Identical bytes either way.
    ///
    /// # Errors
    ///
    /// As [`decompress`](Self::decompress).
    pub fn decompress_in_trace(
        &self,
        data: &[u8],
        format: Format,
        ctx: &TraceContext,
    ) -> Result<Vec<u8>> {
        self.decompress_inner(data, format, Some(ctx))
    }

    /// Emits one span per decode unit on the modeled round-robin wave
    /// timeline (the encode side models shards the same way, in
    /// [`crate::parallel`]): `shard` spans for the `sizes` compressed bytes
    /// each member (or the serial stream) took, or one `fallback` span over
    /// a serial re-decode, whose `detail` says why — 1 = a planned member
    /// did not validate, 3 = member plan rejected (candidates / trailers
    /// inconsistent); 2 is retired. The worker is the modeled one: the real
    /// hand-out is dynamic, and naming it would make traces differ from run
    /// to run.
    fn emit_spans(&self, ctx: Option<&TraceContext>, stage: Stage, sizes: &[usize], detail: u64) {
        let Some(ctx) = ctx else { return };
        if !ctx.sampled || !self.telemetry.is_enabled() {
            return;
        }
        let workers = self.opts.workers.max(1) as u64;
        let wave = SPAN_WAVE_BYTES / DECODE_BYTES_PER_CYCLE;
        for (i, &sz) in sizes.iter().enumerate() {
            let start = ctx.at_cycles + (i as u64 / workers) * wave;
            let dur = (sz as u64 / DECODE_BYTES_PER_CYCLE).max(1);
            self.telemetry.emit(
                ctx.trace_id,
                ctx.child_seq + i as u32,
                ctx.parent_span,
                stage,
                (i as u64 % workers) as u32,
                start,
                dur,
                sz as u64,
                detail,
            );
        }
    }

    fn decompress_inner(
        &self,
        data: &[u8],
        format: Format,
        ctx: Option<&TraceContext>,
    ) -> Result<Vec<u8>> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let out = self.route(data, format, ctx)?;
        self.stats
            .bytes_out
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    /// Picks the decode route: member fan-out for a multi-member gzip with
    /// workers to fan out to, the serial walk for everything else.
    fn route(&self, data: &[u8], format: Format, ctx: Option<&TraceContext>) -> Result<Vec<u8>> {
        // One request number per decode whatever the route, so the fault
        // draws of later requests do not depend on it.
        let request = self.faults.as_ref().map_or(0, |f| f.begin_request());
        // The member scan reads the whole input: only pay for it when
        // there are workers to fan out to.
        if format == Format::Gzip && self.opts.workers > 1 {
            let plan = plan_members(data);
            if plan.as_ref().is_none_or(|p| p.len() > 1) {
                let detail = match plan {
                    Some(plan) => match self.members_parallel(data, &plan, request) {
                        Some(out) => {
                            let sizes: Vec<usize> = plan.iter().map(|m| m.end - m.start).collect();
                            self.emit_spans(ctx, Stage::Shard, &sizes, 0);
                            return Ok(out);
                        }
                        None => 1,
                    },
                    None => 3,
                };
                self.emit_spans(ctx, Stage::Fallback, &[data.len()], detail);
                return self.serial_fallback(data, format);
            }
        }
        // One stream whose split points no index names: one serial shard.
        self.emit_spans(ctx, Stage::Shard, &[data.len()], 0);
        self.decompress_serial(data, format)
    }

    /// The serial reference decode: a member walk for gzip (multi-member
    /// streams are legal — `gzip(1)` concatenates freely), the plain
    /// unwrap-inflate-verify path otherwise.
    ///
    /// # Errors
    ///
    /// Any container or DEFLATE error in the stream.
    pub fn decompress_serial(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        match format {
            Format::Gzip => {
                let mut out = Vec::new();
                let mut any = false;
                for member in gzip::members(data) {
                    let (payload, _header) = member?;
                    if out.is_empty() {
                        out = payload;
                    } else {
                        out.extend_from_slice(&payload);
                    }
                    any = true;
                }
                if !any {
                    return Err(DeflateError::UnexpectedEof.into());
                }
                Ok(out)
            }
            Format::Zlib | Format::RawDeflate => software::decompress(data, format),
        }
    }

    /// Counts a degradation to serial and runs the reference decode.
    fn serial_fallback(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        self.stats.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
        if let Some(inj) = &self.faults {
            let s = inj.stats();
            s.bump(&s.serial_fallbacks);
        }
        self.decompress_serial(data, format)
    }

    // ---- multi-member fast path -------------------------------------

    /// Decodes a member plan in place: the output is allocated once and
    /// split into the members' disjoint slices, which [`Workers::fan_out`]
    /// workers fill, each reusing one [`Walker`] to stage a member in.
    /// `None` — the caller falls back to serial — unless every
    /// [`Walker::member`] holds.
    fn members_parallel(&self, data: &[u8], plan: &[Member], request: u64) -> Option<Vec<u8>> {
        // Every member's fault draw happens here, in index order, so the
        // fault counters do not depend on which worker ran what.
        let inj = self.faults.as_deref();
        let dead = |i: &u64| inj.is_some_and(|j| j.worker_fault(request, *i));
        if (0..plan.len() as u64).filter(dead).count() > 0 {
            return None;
        }
        let total = plan
            .iter()
            .try_fold(0usize, |sum, m| sum.checked_add(m.out_len))?;
        // A planned size the host cannot even reserve is not worth an
        // abort: let the serial walk discover what the stream really is.
        Vec::<u8>::new().try_reserve_exact(total).ok()?;
        // Zeroed pages are first touched by the workers, in parallel.
        let mut out = vec![0u8; total];
        let mut rest = out.as_mut_slice();
        let slots: Vec<Mutex<&mut [u8]>> = plan
            .iter()
            .map(|m| rest.split_off_mut(..m.out_len).map(Mutex::new))
            .collect::<Option<_>>()?;
        let stage = |state: &mut Walker, i: usize| {
            let mut dst = slots[i].lock().ok()?;
            state.member(data, &plan[i], usize::MAX)?;
            (state.out.len() == dst.len()).then(|| dst.copy_from_slice(&state.out))
        };
        let (n, workers, fresh) = (plan.len(), self.opts.workers, |_| Walker::default());
        let landed = self.workers.fan_out(n, workers, fresh, stage);
        drop(slots);
        if !landed.iter().all(Option::is_some) {
            return None;
        }
        self.stats
            .members_parallel
            .fetch_add(plan.len() as u64, Ordering::Relaxed);
        Some(out)
    }

    // ---- seek index -------------------------------------------------

    /// Builds a [`SeekIndex`] for `data`: one decode (members of a
    /// multi-member gzip in parallel) that checks the container's checksums,
    /// keeps none of the output and records a checkpoint on every member
    /// start and where the token crossing each `checkpoint_every` output
    /// bytes begins, inside a block or between two.
    ///
    /// # Errors
    ///
    /// Any container or DEFLATE error in the stream.
    pub fn build_index(&self, data: &[u8], format: Format) -> Result<SeekIndex> {
        let (every, all) = (self.opts.checkpoint_every.max(WINDOW_SIZE), usize::MAX);
        let (mut index, mut state) = (SeekIndex::new(format), Walker::default());
        match format {
            Format::Gzip => {
                if let Some(index) = self.index_members(data, every) {
                    return Ok(index);
                }
                let mut pos = 0usize;
                loop {
                    let member = data.get(pos..).ok_or(DeflateError::UnexpectedEof)?;
                    let payload = pos + gzip::parse_header(member)?.1;
                    let used = state.walk(&data[payload..], payload, every, all, &mut index)?;
                    pos = gzip::verify_trailer(data, payload + used, &state.out)?;
                    if pos >= data.len() {
                        return Ok(index);
                    }
                }
            }
            Format::Zlib => {
                let un = framing::unwrap(data, format)?;
                let used = state.walk(un.stream, 2, every, all, &mut index)?;
                un.verify(used, &state.out)?;
            }
            Format::RawDeflate => state.walk(data, 0, every, all, &mut index).map(drop)?,
        }
        Ok(index)
    }

    /// The member-parallel build: a checkpoint depends on nothing before its
    /// member's start, so [`Workers::fan_out`] workers build the serial
    /// walk's index.
    /// `None` (that walk decides) unless every [`Walker::member`] holds.
    fn index_members(&self, data: &[u8], every: usize) -> Option<SeekIndex> {
        let plan = plan_members(data).filter(|p| p.len() > 1 && self.opts.workers > 1)?;
        let walk = |state: &mut Walker, i: usize| state.member(data, &plan[i], every);
        let mut index = SeekIndex::new(Format::Gzip);
        let (n, workers, fresh) = (plan.len(), self.opts.workers, |_| Walker::default());
        for part in self.workers.fan_out(n, workers, fresh, walk) {
            let part = part?;
            for mut checkpoint in part.checkpoints {
                checkpoint.out_offset += index.total_out;
                index.checkpoints.push(checkpoint);
            }
            index.total_out += part.total_out;
        }
        Some(index)
    }

    /// Random-accesses `[offset, offset + len)` of the decompressed stream
    /// using `index`: decoding starts at the nearest preceding checkpoint
    /// and stops within one match of the range's end. `len` is clamped at
    /// end of stream.
    ///
    /// # Errors
    ///
    /// [`Error::SeekOutOfRange`] if `offset` lies past the end,
    /// [`Error::InvalidSeekIndex`] if the index is inconsistent with `data`,
    /// plus any DEFLATE error in the spanned blocks (`OutputLimitExceeded`:
    /// the index points at data that outgrows the read's bound).
    pub fn decompress_at(
        &self,
        data: &[u8],
        index: &SeekIndex,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        if index.checkpoints.first().is_none_or(|c| c.out_offset != 0) {
            return Err(Error::InvalidSeekIndex);
        }
        if offset > index.total_out {
            return Err(Error::SeekOutOfRange);
        }
        let want = (len as u64).min(index.total_out - offset) as usize;
        // `total_out` is the index's word; the input bounds what can exist.
        let mut result = Vec::with_capacity(want.min(data.len().saturating_mul(1032)));
        self.stats.seek_index_hits.fetch_add(1, Ordering::Relaxed);
        let (mut state, mut decoded) = (self.seek_idle.lock().pop().unwrap_or_default(), 0);
        let sized = |v: u64| usize::try_from(v).map_err(|_| Error::InvalidSeekIndex);
        let at_or_before = |c: &SeekCheckpoint| c.out_offset <= offset;
        let mut ci = index.checkpoints.partition_point(at_or_before) - 1;
        // One closure, so that every way out of it hands the pooled state back.
        let read = (|| {
            while result.len() < want {
                let (cp, cursor) = (&index.checkpoints[ci], offset + result.len() as u64);
                let base = cp.block_bit / 8 * 8;
                let input = data.get(sized(base / 8)?..);
                let input = input.ok_or(Error::InvalidSeekIndex)?;
                let lo = sized(cursor - cp.out_offset)?;
                let need = lo.saturating_add(want - result.len());
                cp.window_into(&mut state.dict);
                let (tables, out) = (take(&mut state.scratch), take(&mut state.out));
                let mut inf = Inflater::with_reuse(input, tables, out);
                inf.prime_window(&state.dict);
                // A point the data does not have is the index's fault.
                let entered = inf.resume_at(cp.block_bit - base, cp.bit_offset - base);
                let status = entered.map_err(|_| Error::InvalidSeekIndex);
                let status = status.and_then(|()| decode_to(&mut inf, need));
                let produced = inf.output();
                let covered = produced.get(lo..need.min(produced.len()));
                result.extend_from_slice(covered.unwrap_or_default());
                decoded += produced.len() as u64;
                (state.out, state.scratch) = inf.into_parts();
                status?;
                if result.len() < want {
                    // The stream ended inside the range: the next member
                    // resumes at the cursor, from a checkpoint of its own.
                    let cursor = offset + result.len() as u64;
                    let mut later = index.checkpoints[ci + 1..].iter();
                    let hop = later.position(|c| c.out_offset == cursor);
                    ci += 1 + hop.ok_or(Error::InvalidSeekIndex)?;
                }
            }
            Ok(())
        })();
        self.seek_idle.lock().push(state);
        let amplified = &self.stats.seek_decoded_bytes;
        amplified.fetch_add(decoded, Ordering::Relaxed);
        read.map(|()| result)
    }
}

/// Decodes blocks until `need` bytes are out or the stream ends, under a
/// limit of `need` plus the most one token adds: a limit hit with the range
/// covered is the way out.
fn decode_to(inf: &mut Inflater, need: usize) -> Result<()> {
    while !inf.is_finished() && inf.output().len() < need {
        match inf.decode_block(need.saturating_add(MAX_MATCH)) {
            Err(DeflateError::OutputLimitExceeded) if inf.output().len() >= need => break,
            block => block?,
        }
    }
    Ok(())
}

impl Walker {
    /// Walks one planned member: `None` unless its DEFLATE stream ends
    /// exactly at the trailer, within the bytes its ISIZE claims, and
    /// matches the trailer. Returns its checkpoints, `every` bytes apart.
    fn member(&mut self, data: &[u8], m: &Member, every: usize) -> Option<SeekIndex> {
        let (body, mut part) = (&data[m.payload..m.end - 8], SeekIndex::new(Format::Gzip));
        self.out.reserve(m.out_len.saturating_sub(self.out.len()));
        let used = self
            .walk(body, m.payload, every, m.out_len, &mut part)
            .ok()?;
        let checked = gzip::verify_trailer(data, m.end - 8, &self.out).is_ok();
        (used == body.len() && checked).then_some(part)
    }

    /// Walks the DEFLATE stream `payload`, `at` bytes into its container, into
    /// `self.out` (at most `limit` bytes): `index` gains a checkpoint at its start
    /// and where the token crossing each `every` bytes of output begins (in a
    /// stored block, the byte), and its length. Returns the compressed bytes used.
    /// Each checkpoint's window bytes are tallied from the same decode
    /// ([`Inflater::window_reads`], [`close_tallies`]).
    fn walk(
        &mut self,
        payload: &[u8],
        at: usize,
        every: usize,
        limit: usize,
        index: &mut SeekIndex,
    ) -> Result<usize> {
        let (base, before) = (at as u64 * 8, index.total_out);
        let checkpoint = |(block, bit): (u64, u64), out: usize| SeekCheckpoint {
            bit_offset: base + bit,
            block_bit: base + block,
            out_offset: before + out as u64,
            ..SeekCheckpoint::default()
        };
        index.checkpoints.push(checkpoint((0, 0), 0));
        let mut inf = Inflater::with_reuse(payload, take(&mut self.scratch), take(&mut self.out));
        let mut next_cp = every;
        while !inf.is_finished() {
            // A decode that stops at the mark stands where the checkpoint
            // goes, inside its block, and goes on from there.
            match inf.decode_block(next_cp.min(limit)) {
                Err(DeflateError::OutputLimitExceeded) if next_cp < limit => {
                    let (now, at) = (inf.output().len(), (inf.block_bit(), inf.bit_position()));
                    close_tallies(&mut inf, &mut self.spare, now, index);
                    let marks = self.spare.pop().unwrap_or_else(|| vec![false; WINDOW_SIZE]);
                    inf.window_reads().push((now, marks));
                    index.checkpoints.push(checkpoint(at, now));
                    next_cp = now.saturating_add(every);
                }
                block => block?,
            }
        }
        if next_cp != every {
            // Checkpoints were placed, so tallies are open.
            close_tallies(&mut inf, &mut self.spare, usize::MAX, index);
        }
        let used = inf.byte_position();
        (self.out, self.scratch) = inf.into_parts();
        index.total_out += self.out.len() as u64;
        Ok(used)
    }
}

/// Closes `inf`'s window-read tallies that output offset `now` lies a window
/// past (all of them at `usize::MAX`, the stream's end): no token from there
/// on reads behind their checkpoints, the last ones in `index`, which take
/// the runs of the window bytes marked, with the bytes. The cleared maps go
/// to `spare`.
fn close_tallies(
    inf: &mut Inflater,
    spare: &mut Vec<Vec<bool>>,
    now: usize,
    index: &mut SeekIndex,
) {
    let mut open = take(inf.window_reads());
    let first = index.checkpoints.len() - open.len();
    let done = open.partition_point(|(from, _)| now - from >= WINDOW_SIZE);
    for ((from, mut marks), cp) in open.drain(..done).zip(&mut index.checkpoints[first..]) {
        let window = &inf.output()[from.saturating_sub(WINDOW_SIZE)..from];
        let base = WINDOW_SIZE - window.len();
        for at in (base..WINDOW_SIZE).filter(|&at| marks[at]) {
            match cp.runs.last_mut() {
                // A gap shorter than a run header is cheaper kept than split.
                Some((start, len)) if at < usize::from(*start + *len) + 4 => {
                    *len = at as u16 + 1 - *start;
                }
                _ => cp.runs.push((at as u16, 1)),
            }
        }
        for &(start, len) in &cp.runs {
            let run = &window[usize::from(start) - base..][..usize::from(len)];
            cp.window.extend_from_slice(run);
        }
        marks.fill(false);
        spare.push(marks);
    }
    *inf.window_reads() = open;
}

/// One gzip member of a decode plan.
struct Member {
    /// Offset of the member's magic bytes.
    start: usize,
    /// Offset of its DEFLATE payload (just past the header).
    payload: usize,
    /// Offset just past its trailer: the next start, or end of input.
    end: usize,
    /// Decoded bytes its ISIZE trailer claims.
    out_len: usize,
}

impl Member {
    /// Ends the member at `end`, reading its ISIZE from the four bytes
    /// before. ISIZE is attacker-controlled and sizes the output: a claim
    /// beyond DEFLATE's 1032x expansion of the member's own compressed
    /// span is refused, as is a span too short for a trailer.
    fn close(&mut self, data: &[u8], end: usize) -> Option<()> {
        let isize_at = end.checked_sub(4).filter(|&at| at >= self.payload + 4)?;
        let claim = <[u8; 4]>::try_from(data.get(isize_at..end)?).ok()?;
        self.out_len = usize::try_from(u32::from_le_bytes(claim)).ok()?;
        self.end = end;
        (self.out_len <= (end - self.start).saturating_mul(1032)).then_some(())
    }
}

/// Offset of the next `1f 8b 08` at or after `from`. Blocks of 64 bytes
/// are tested for a `1f 8b` pair without an early exit, so the test
/// vectorizes and (a pair being a 1-in-65536 event) almost never branches;
/// only a block that has one is walked byte by byte.
fn next_magic(data: &[u8], from: usize) -> Option<usize> {
    let mut at = from;
    while at + 3 <= data.len() {
        let end = (at + 64).min(data.len() - 2);
        let pairs = data[at..end].iter().zip(&data[at + 1..=end]);
        if pairs.fold(false, |hit, (&a, &b)| hit | ((a == 0x1F) & (b == 0x8B))) {
            if let Some(i) = (at..end).find(|&i| data[i..].starts_with(&[0x1F, 0x8B, 8])) {
                return Some(i);
            }
        }
        at = end;
    }
    None
}

/// The candidate filter, cheapest test first (rapidgzip's order): a gzip
/// member plausibly starts at `start` if [`gzip::parse_header`] accepts a
/// header within [`MAX_MEMBER_HEADER`] bytes and the first DEFLATE block
/// header behind it is well-formed — not the reserved type, a stored
/// block's `LEN == !NLEN`, a dynamic block's tables build — and its first
/// token no match (a member has no history to copy from). The trial runs
/// on `scratch`, one for the whole scan. Returns the payload's offset.
fn member_payload(data: &[u8], start: usize, scratch: &mut InflateScratch) -> Option<usize> {
    let window = &data[start..data.len().min(start + MAX_MEMBER_HEADER)];
    let payload = start + gzip::parse_header(window).ok()?.1;
    let mut trial = Inflater::with_reuse(data.get(payload..)?, take(scratch), Vec::new());
    // A zero-byte limit stops the trial at the first token that makes
    // output: running into it means the header was accepted.
    let first_block = trial.decode_block(0);
    *scratch = trial.into_parts().1;
    matches!(first_block, Ok(()) | Err(DeflateError::OutputLimitExceeded)).then_some(payload)
}

/// Plans a member-parallel decode of `data` from its trailers alone: every
/// start that passes [`member_payload`] [`Member::close`]s its predecessor.
/// The scan resumes past an accepted header, so magic bytes inside an FNAME
/// are never candidates; a survivor is still only a candidate — the decode
/// confirms it by exact landing. Returns the members found (fewer than
/// two: not a multi-member stream), or `None` when there are several but
/// the trailers are inconsistent or the first is not at offset 0, or when
/// false starts (each may scan a header window for a NUL) have cost a
/// second pass over the input.
fn plan_members(data: &[u8]) -> Option<Vec<Member>> {
    let mut plan: Vec<Member> = Vec::new();
    let (mut budget, mut scratch) = (data.len(), InflateScratch::default());
    let mut from = 0usize;
    while let Some(start) = next_magic(data, from) {
        from = start + 1;
        let Some(payload) = member_payload(data, start, &mut scratch) else {
            budget = budget.checked_sub(MAX_MEMBER_HEADER.min(data.len() - start))?;
            continue;
        };
        if let Some(prev) = plan.last_mut() {
            prev.close(data, start)?;
        }
        plan.push(Member {
            start,
            payload,
            end: data.len(),
            out_len: 0,
        });
        from = payload;
    }
    if plan.len() > 1 {
        plan.last_mut()?.close(data, data.len())?;
        plan.first().filter(|m| m.start == 0)?;
    }
    Some(plan)
}

/// The marker pass the seek index once ran per checkpoint, kept as the
/// oracle [`Walker::walk`]'s window-read tallies are diffed against.
#[cfg(test)]
mod reference {
    use super::*;
    use nx_deflate::MarkerInflater;

    #[derive(Debug, Default)]
    struct Walker {
        marker: InflateScratch,
        cells: Vec<u16>,
        live: Vec<bool>,
    }

    impl Walker {
        /// The marker pass: decodes one window of cells from `at` (block bit,
        /// bit), entered as a read enters it, and returns the runs of `window`
        /// (the output before it) their markers name, with the bytes. One window
        /// of cells is all that can reference it: a match further on reaches at
        /// most 32 KB back, into cells that are bytes or markers already. A token
        /// that starts inside the window ends within `MAX_MATCH` of it or is a
        /// stored byte, so running out of budget is as good as finishing; any
        /// other error the walk meets next, and fails.
        fn referenced(&mut self, payload: &[u8], at: (u64, u64), window: &[u8]) -> SeekCheckpoint {
            let (tables, cells) = (take(&mut self.marker), take(&mut self.cells));
            let Ok(mut pass) = MarkerInflater::with_reuse_at(payload, at, tables, cells) else {
                return SeekCheckpoint::default(); // No input left: the walk fails next.
            };
            let mut more = true;
            while more && !pass.is_finished() && pass.cells().len() < WINDOW_SIZE {
                more = pass.decode_block(WINDOW_SIZE + MAX_MATCH).is_ok();
            }
            self.live.clear();
            self.live.resize(WINDOW_SIZE + 1, false);
            // Markers fill the upper half of the `u16` range (see
            // `MarkerInflater`): marker `u16::MAX - j` names window offset `j`,
            // and a literal cell lands on the spare slot.
            for &cell in pass.cells() {
                self.live[usize::from(u16::MAX - cell).min(WINDOW_SIZE)] = true;
            }
            (self.cells, self.marker) = pass.into_parts();
            let base = WINDOW_SIZE - window.len();
            let mut sparse = SeekCheckpoint::default();
            for at in (base..WINDOW_SIZE).filter(|&at| self.live[at]) {
                match sparse.runs.last_mut() {
                    // A gap shorter than a run header is cheaper kept than split.
                    Some((start, len)) if at < usize::from(*start + *len) + 4 => {
                        *len = at as u16 + 1 - *start;
                    }
                    _ => sparse.runs.push((at as u16, 1)),
                }
            }
            for &(start, len) in &sparse.runs {
                let run = &window[usize::from(start) - base..][..usize::from(len)];
                sparse.window.extend_from_slice(run);
            }
            sparse
        }
    }

    /// `index`, a build over `data`, with every checkpoint's runs and window
    /// found again by the marker pass, over the serial decode's output.
    pub(super) fn windows(data: &[u8], format: Format, index: &SeekIndex) -> SeekIndex {
        let out = ParallelInflater::new(ParallelInflateOptions::default())
            .decompress_serial(data, format)
            .expect("an index is only built over a valid stream");
        let mut starts = vec![0usize];
        if format == Format::Gzip {
            for member in gzip::members(data) {
                let len = member.expect("valid member").0.len();
                starts.push(starts[starts.len() - 1] + len);
            }
        }
        let (mut state, mut expect) = (Walker::default(), index.clone());
        for cp in &mut expect.checkpoints {
            let at = cp.out_offset as usize;
            let start = starts[starts.partition_point(|&s| s <= at) - 1];
            let window = &out[start.max(at.saturating_sub(WINDOW_SIZE))..at];
            let sparse = match at == start {
                true => SeekCheckpoint::default(),
                false => state.referenced(data, (cp.block_bit, cp.bit_offset), window),
            };
            (cp.runs, cp.window) = (sparse.runs, sparse.window);
        }
        expect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nx_deflate::{CompressionLevel, Token};

    fn opts(workers: usize) -> ParallelInflateOptions {
        ParallelInflateOptions {
            workers,
            checkpoint_every: 64 * 1024,
        }
    }

    fn corpus(n: usize) -> Vec<u8> {
        // Mixed text/binary: compresses a few-to-one, so streams span
        // many DEFLATE blocks.
        nx_corpus::mixed(41, n)
    }

    #[test]
    fn member_candidates_finds_all_members() {
        let mut stream = Vec::new();
        let mut starts = Vec::new();
        for i in 0..4 {
            starts.push(stream.len());
            stream.extend(gzip::compress(
                format!("member number {i}").as_bytes(),
                CompressionLevel::default(),
            ));
        }
        let plan = plan_members(&stream).expect("consistent trailers");
        assert_eq!(plan.iter().map(|m| m.start).collect::<Vec<_>>(), starts);
        assert!(plan
            .iter()
            .all(|m| m.payload == m.start + 10 && m.out_len == 15));
        assert_eq!(plan[3].end, stream.len());
        // The blockwise scan agrees with the obvious one at every start,
        // block seam and tail length, including magic cut off by the end.
        let mut hay = nx_corpus::mixed(7, 300);
        for at in [0, 1, 7, 62, 63, 64, 127, 190, 290, 296, 297, 298] {
            hay[at..(at + 3).min(300)].copy_from_slice(&[0x1F, 0x8B, 8][..(300 - at).min(3)]);
        }
        for from in 0..=hay.len() {
            let naive =
                (from..hay.len().saturating_sub(2)).find(|&i| hay[i..i + 3] == [0x1F, 0x8B, 8]);
            assert_eq!(next_magic(&hay, from), naive, "from {from}");
        }
    }

    #[test]
    fn multi_member_parallel_matches_members_walk() {
        let mut stream = Vec::new();
        let mut expect = Vec::new();
        for i in 0..8 {
            let payload = corpus(10_000 + i * 777);
            expect.extend_from_slice(&payload);
            stream.extend(gzip::compress(&payload, CompressionLevel::default()));
        }
        let par = ParallelInflater::new(opts(4));
        let out = par.decompress(&stream, Format::Gzip).unwrap();
        assert_eq!(out, expect);
        assert_eq!(par.stats().members_parallel(), 8);
        assert_eq!(par.stats().serial_fallbacks(), 0);
    }

    #[test]
    fn member_spans_carry_real_sizes_and_dropped_plans_say_why() {
        let sink = TelemetrySink::enabled(nx_telemetry::MetricsRegistry::new());
        let budget = Workers::new(1);
        let par = ParallelInflater::with_parts(opts(2), Arc::default(), None, sink.clone(), budget);
        let parts: Vec<Vec<u8>> = [30_000usize, 5, 70_000]
            .iter()
            .map(|&n| gzip::compress(&corpus(n), CompressionLevel::default()))
            .collect();
        let stream = parts.concat();
        let spans_of = |data: &[u8]| {
            let ctx = sink.begin_trace();
            let res = par.decompress_in_trace(data, Format::Gzip, &ctx);
            let spans: Vec<_> = sink
                .trace()
                .into_iter()
                .filter(|e| e.request == ctx.trace_id)
                .map(|e| (e.stage, e.bytes, e.detail))
                .collect();
            (res.is_ok(), spans)
        };
        let sizes: Vec<_> = parts
            .iter()
            .map(|p| (Stage::Shard, p.len() as u64, 0))
            .collect();
        assert_eq!(spans_of(&stream), (true, sizes));
        // A lying ISIZE is caught by the planner (3); a wrong CRC only by
        // the member's decode (1). Both fall back and report serial's error.
        let trailer = parts[0].len() + parts[1].len();
        let mut lying = stream.clone();
        lying[trailer - 4..trailer].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        let whole = stream.len() as u64;
        assert_eq!(spans_of(&lying), (false, vec![(Stage::Fallback, whole, 3)]));
        let mut bad_crc = stream.clone();
        bad_crc[trailer - 8] ^= 1;
        assert_eq!(
            spans_of(&bad_crc),
            (false, vec![(Stage::Fallback, whole, 1)])
        );
        assert_eq!(par.stats().serial_fallbacks(), 2);
    }

    #[test]
    fn corrupt_stream_errors_like_serial() {
        let data = corpus(256 * 1024);
        let mut gz = gzip::compress(&data, CompressionLevel::default());
        let mid = gz.len() / 2;
        gz[mid] ^= 0xFF;
        let par = ParallelInflater::new(opts(4));
        let serial = par.decompress_serial(&gz, Format::Gzip);
        let parallel = par.decompress(&gz, Format::Gzip);
        assert_eq!(serial.is_err(), parallel.is_err());
        if let (Ok(a), Ok(b)) = (&serial, &parallel) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn seek_index_roundtrips_serialization() {
        let data = corpus(300_000);
        let gz = gzip::compress(&data, CompressionLevel::default());
        let par = ParallelInflater::new(opts(2));
        let idx = par.build_index(&gz, Format::Gzip).unwrap();
        assert!(idx.checkpoints().len() > 1, "expected interior checkpoints");
        let bytes = idx.to_bytes();
        let back = SeekIndex::from_bytes(&bytes).unwrap();
        assert_eq!(idx, back);
        assert!(SeekIndex::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(SeekIndex::from_bytes(&bad).is_err());
    }

    /// A two-checkpoint wire index, a member start and one whose window
    /// record is `runs` over `wlen` bytes; `at` holds each checkpoint's
    /// `(bit_offset, block_bit)`.
    fn wire(runs: &[(u16, u16)], wlen: u32, at: [(u64, u64); 2]) -> Vec<u8> {
        let mut w = SEEK_INDEX_MAGIC.to_vec();
        w.extend([SEEK_INDEX_VERSION, 1]);
        w.extend(100_000u64.to_le_bytes());
        w.extend(2u32.to_le_bytes());
        w.extend(at[0].0.to_le_bytes());
        w.extend(0u64.to_le_bytes());
        w.extend(at[0].1.to_le_bytes());
        w.extend([0u8; 4 + 2]);
        w.extend(at[1].0.to_le_bytes());
        w.extend(70_000u64.to_le_bytes());
        w.extend(at[1].1.to_le_bytes());
        w.extend(wlen.to_le_bytes());
        w.extend((runs.len() as u16).to_le_bytes());
        for (offset, len) in runs {
            w.extend(offset.to_le_bytes());
            w.extend(len.to_le_bytes());
        }
        w.extend(vec![7u8; wlen as usize]);
        w
    }

    /// Checkpoints at block boundaries `a` and `b`.
    fn bounds(a: u64, b: u64) -> [(u64, u64); 2] {
        [(a, a), (b, b)]
    }

    #[test]
    fn from_bytes_rejects_runs_that_break_the_window() {
        let ok = wire(&[(10, 5), (15, 1), (32_760, 8)], 14, bounds(80, 900));
        let cp = &SeekIndex::from_bytes(&ok)
            .expect("a well-formed index loads")
            .checkpoints[1];
        assert_eq!((cp.runs.len(), cp.window.len()), (3, 14));
        let mut dict = Vec::new();
        cp.window_into(&mut dict);
        assert_eq!(dict.len(), WINDOW_SIZE - 10);
        assert_eq!(
            (dict[..6].to_vec(), dict[6], dict[dict.len() - 8]),
            (vec![7; 6], 0, 7)
        );
        // Inside a block: the second checkpoint's block began at bit 80 too.
        let inside = wire(&[(100, 4)], 4, [(80, 80), (900, 80)]);
        let cp = &SeekIndex::from_bytes(&inside).expect("loads").checkpoints[1];
        assert_eq!((cp.bit_offset, cp.block_bit), (900, 80));
        for (what, bad) in [
            ("unsorted", wire(&[(100, 4), (50, 4)], 8, bounds(80, 900))),
            (
                "overlapping",
                wire(&[(100, 4), (103, 4)], 8, bounds(80, 900)),
            ),
            ("past the window", wire(&[(32_766, 4)], 4, bounds(80, 900))),
            ("empty run", wire(&[(100, 0), (200, 4)], 4, bounds(80, 900))),
            (
                "short of the payload",
                wire(&[(100, 4)], 8, bounds(80, 900)),
            ),
            (
                "beyond the payload",
                wire(&[(100, 4), (200, 8)], 8, bounds(80, 900)),
            ),
            ("bit offsets descend", wire(&[(100, 4)], 4, bounds(900, 80))),
            ("bit offsets repeat", wire(&[(100, 4)], 4, bounds(80, 80))),
            (
                "block bit past its bit offset",
                wire(&[(100, 4)], 4, [(80, 80), (900, 901)]),
            ),
            (
                "block bits descend",
                wire(&[(100, 4)], 4, [(80, 70), (900, 60)]),
            ),
        ] {
            let got = SeekIndex::from_bytes(&bad);
            assert!(
                matches!(got, Err(Error::InvalidSeekIndex)),
                "{what}: {got:?}"
            );
        }
    }

    /// The seek-differential shapes (every corpus kind at levels 0/1/6/9,
    /// one fixed-Huffman block, 32 members) and a sharded single member,
    /// the kind `nxbench` indexes.
    fn index_shapes() -> Vec<(String, Vec<u8>, Format)> {
        const SEED: u64 = 0x5EE6_D1FF;
        let level = |l| CompressionLevel::new(l).expect("valid level");
        let mut shapes = Vec::new();
        for &kind in nx_corpus::CorpusKind::all() {
            let payload = kind.generate(SEED, 200 << 10);
            for l in [0, 1, 6, 9] {
                let gz = software::compress(&payload, level(l), Format::Gzip);
                shapes.push((format!("{} level {l}", kind.name()), gz, Format::Gzip));
            }
        }
        let tokens = nx_deflate::deflate_tokens(&nx_corpus::mixed(SEED, 300 << 10), level(6));
        let mut w = nx_deflate::bitio::BitWriter::new();
        nx_deflate::encoder::encode_fixed_block(&mut w, &tokens, true);
        shapes.push(("fixed only".into(), w.finish(), Format::RawDeflate));
        // At 32 KiB spacing: checkpoints at 32 768 and 65 436, where a
        // 258-byte match reaches a window back, 100 bytes behind the first.
        let mut tokens: Vec<Token> = nx_corpus::mixed(SEED, 65_436)
            .into_iter()
            .map(Token::Literal)
            .collect();
        tokens.push(Token::Match {
            len: 258,
            dist: 32_768,
        });
        tokens.extend(b"tail".map(Token::Literal));
        let mut w = nx_deflate::bitio::BitWriter::new();
        nx_deflate::encoder::encode_fixed_block(&mut w, &tokens, true);
        shapes.push(("far match".into(), w.finish(), Format::RawDeflate));
        let members = (0..32)
            .flat_map(|i| {
                software::compress(&nx_corpus::mixed(SEED + i, 12_000), level(6), Format::Gzip)
            })
            .collect();
        shapes.push(("32 members".into(), members, Format::Gzip));
        let sharded = crate::parallel::ParallelEngine::new(crate::parallel::ParallelOptions {
            workers: 2,
            chunk_size: 128 << 10,
        });
        let single = sharded.compress(&nx_corpus::mixed(SEED, 2 << 20), 6, Format::Gzip);
        shapes.push(("sharded".into(), single.expect("level 6"), Format::Gzip));
        shapes
    }

    #[test]
    fn index_windows_equal_the_marker_pass() {
        let mut overlapped = 0;
        for (name, stream, format) in index_shapes() {
            for every in [32 << 10, 64 << 10, 1 << 20] {
                let par = ParallelInflater::new(ParallelInflateOptions {
                    workers: 2,
                    checkpoint_every: every,
                });
                let index = par.build_index(&stream, format).expect("valid stream");
                let want = reference::windows(&stream, format, &index);
                assert!(index.to_bytes() == want.to_bytes(), "{name}, every {every}");
                if (name.as_str(), every) == ("far match", 32 << 10) {
                    let cps = index
                        .checkpoints
                        .iter()
                        .map(|c| (c.out_offset, &c.runs[..]));
                    let runs: &[_] = &[
                        (0, &[][..]),
                        (32_768, &[(32_668, 100)]),
                        (65_436, &[(0, 258)]),
                    ];
                    assert!(cps.eq(runs.iter().copied()), "{:?}", index.checkpoints);
                }
                // A checkpoint inside a block with the next less than a
                // window on: two tallies were open at once.
                let both_open = |w: &&[SeekCheckpoint]| {
                    let gap = w[1].out_offset - w[0].out_offset;
                    w[0].block_bit < w[0].bit_offset && gap < WINDOW_SIZE as u64
                };
                overlapped += index.checkpoints.windows(2).filter(both_open).count();
            }
        }
        assert!(overlapped > 0, "no two tallies were ever open at once");
    }

    #[test]
    fn index_does_not_depend_on_the_worker_count() {
        let stream: Vec<u8> = (0..6)
            .flat_map(|i| gzip::compress(&corpus(150_000 + i * 9_000), CompressionLevel::default()))
            .collect();
        let serial = ParallelInflater::new(opts(1));
        let want = serial.build_index(&stream, Format::Gzip).unwrap();
        assert!(want.checkpoints().len() > 6, "interior checkpoints");
        for workers in [2, 3, 8] {
            let par = ParallelInflater::new(opts(workers));
            assert_eq!(par.build_index(&stream, Format::Gzip).unwrap(), want);
        }
        // A member that does not check drops the plan: the serial walk's error.
        let mut bad = stream.clone();
        let last = bad.len() - 6;
        bad[last] ^= 1;
        let par = ParallelInflater::new(opts(4));
        assert_eq!(
            par.build_index(&bad, Format::Gzip),
            serial.build_index(&bad, Format::Gzip)
        );
        assert!(serial.build_index(&bad, Format::Gzip).is_err());
    }

    #[test]
    fn windows_nobody_needs_are_not_stored() {
        // Stored blocks reference nothing, so every checkpoint between
        // them is bare; so is a member start reached mid-walk.
        let noise: Vec<u8> = (0..300_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let mut stream = gzip::compress(&noise, CompressionLevel::new(0).unwrap());
        stream.extend(gzip::compress(
            &corpus(200_000),
            CompressionLevel::default(),
        ));
        let par = ParallelInflater::new(ParallelInflateOptions {
            workers: 1,
            checkpoint_every: 32 * 1024,
        });
        let idx = par.build_index(&stream, Format::Gzip).unwrap();
        let (stored, text): (Vec<_>, Vec<_>) = idx
            .checkpoints()
            .iter()
            .partition(|c| c.out_offset <= noise.len() as u64);
        assert!(stored.len() > 4 && stored.iter().all(|c| c.runs.is_empty()));
        assert!(text.iter().any(|c| !c.runs.is_empty()));
        // Sparse means sparse: far less than the window, in few runs.
        for c in text {
            assert!(c.window.len() < WINDOW_SIZE / 2 && c.runs.len() < 2_000);
        }
        let expect = par.decompress_serial(&stream, Format::Gzip).unwrap();
        for (off, len) in [(70_000u64, 5_000usize), (299_000, 3_000), (420_000, 9_000)] {
            let got = par.decompress_at(&stream, &idx, off, len).unwrap();
            assert_eq!(got, &expect[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn decompress_at_returns_correct_slices() {
        let data = corpus(400_000);
        let gz = gzip::compress(&data, CompressionLevel::default());
        let par = ParallelInflater::new(opts(2));
        let idx = par.build_index(&gz, Format::Gzip).unwrap();
        for (off, len) in [
            (0u64, 100usize),
            (65_536, 4096),
            (399_990, 100),
            (123_457, 70_000),
        ] {
            let got = par.decompress_at(&gz, &idx, off, len).unwrap();
            let lo = off as usize;
            let hi = (lo + len).min(data.len());
            assert_eq!(got, &data[lo..hi], "offset {off} len {len}");
        }
        assert!(matches!(
            par.decompress_at(&gz, &idx, data.len() as u64 + 1, 1),
            Err(Error::SeekOutOfRange)
        ));
        assert!(par.stats().seek_index_hits() >= 4);
    }

    #[test]
    fn decompress_at_spans_member_boundaries() {
        let a = corpus(100_000);
        let b = corpus(120_000);
        let mut stream = gzip::compress(&a, CompressionLevel::default());
        stream.extend(gzip::compress(&b, CompressionLevel::default()));
        let mut expect = a.clone();
        expect.extend_from_slice(&b);
        let par = ParallelInflater::new(opts(2));
        let idx = par.build_index(&stream, Format::Gzip).unwrap();
        assert_eq!(idx.total_out(), expect.len() as u64);
        let got = par.decompress_at(&stream, &idx, 99_000, 3000).unwrap();
        assert_eq!(got, &expect[99_000..102_000]);
    }

    #[test]
    fn zlib_and_raw_paths_work() {
        let data = corpus(600_000);
        let par = ParallelInflater::new(opts(4));
        let zl = nx_deflate::zlib::compress(&data, CompressionLevel::default());
        assert_eq!(par.decompress(&zl, Format::Zlib).unwrap(), data);
        let raw = nx_deflate::deflate(&data, CompressionLevel::default());
        assert_eq!(par.decompress(&raw, Format::RawDeflate).unwrap(), data);
        let idx = par.build_index(&zl, Format::Zlib).unwrap();
        assert_eq!(idx.total_out(), data.len() as u64);
        let got = par.decompress_at(&zl, &idx, 70_000, 1000).unwrap();
        assert_eq!(got, &data[70_000..71_000]);
    }
}
