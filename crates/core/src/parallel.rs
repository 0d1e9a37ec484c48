//! Sharded parallel compression — the software analogue of feeding one
//! stream through several accelerator units (or pigz through several
//! cores) and still emitting a single valid gzip/zlib/raw-DEFLATE
//! stream.
//!
//! # How a sharded stream stays valid
//!
//! The input is cut into fixed-size chunks. Each chunk is compressed
//! independently by a `fan_out` worker, *primed* with the last 32 KB of
//! the preceding chunk as a preset dictionary
//! ([`StreamEncoder::with_dict`]) so cross-chunk matches are not lost at
//! the seam. Every non-final shard ends with a sync flush (the empty
//! stored block, `00 00 FF FF`), which both byte-aligns the shard and
//! leaves the block sequence open; the final shard ends with a final
//! block. Concatenating the shards in order therefore yields one
//! continuous, RFC 1951-valid DEFLATE stream — exactly the trick pigz
//! uses, and the reason the paper's multi-unit accelerators can split
//! one request across engines.
//!
//! Container checksums never see the whole input on one thread either:
//! each worker checksums its own chunk, and the per-shard values fold
//! into the trailer value with [`crc32_combine`] / [`adler32_combine`].
//!
//! Decompression of a DEFLATE stream is serial — every match references
//! the preceding 32 KB of *output*, so shard `i` cannot simply be decoded
//! before shard `i-1` finished, and nothing in the stream says where the
//! shards began. [`ParallelEngine::decompress`] routes through
//! [`crate::parallel_inflate`]: multi-member gzip decodes member-per-worker,
//! every other stream serially, and output is always byte-identical to the
//! single-threaded decoder. Both directions run their workers on the one
//! [`Workers::fan_out`]: the caller as the first, plus the helpers the
//! engine's budget grants, scoped to the request, so no thread is alive
//! between requests.
//!
//! ```
//! use nx_core::parallel::{ParallelEngine, ParallelOptions};
//! use nx_core::Format;
//!
//! # fn main() -> Result<(), nx_core::Error> {
//! let engine = ParallelEngine::new(ParallelOptions::default());
//! let data = b"shard me shard me shard me ".repeat(40_000);
//! let gz = engine.compress(&data, 6, Format::Gzip)?;
//! let back = engine.decompress(&gz, Format::Gzip)?;
//! assert_eq!(back, data);
//! # Ok(())
//! # }
//! ```

use crate::fault::FaultInjector;
use crate::framing::Format;
use crate::parallel_inflate::{InflateParStats, ParallelInflateOptions, ParallelInflater};
use crate::scratch::BufferPool;
use crate::stats::Codec;
use crate::{CompressOptions, Nx, Result};
use nx_deflate::adler32::{adler32, adler32_combine};
use nx_deflate::crc32::{crc32, crc32_combine};
use nx_deflate::stream::{Flush, StreamEncoder};
use nx_deflate::workers::{cpus, Workers};
use nx_deflate::{gzip, zlib, CompressionLevel, Engine};
use nx_telemetry::{MetricSource, MetricValue, Stage, TelemetrySink, TraceContext, NO_PARENT};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Dictionary carried between shards: one DEFLATE window.
const DICT_SIZE: usize = nx_deflate::WINDOW_SIZE;

/// Modeled engine streaming rate for shard spans: 8 input bytes per
/// cycle (the paper's 16 GB/s at the 2 GHz nest clock). Shard timelines
/// are *modeled* — deterministic functions of shard index and size —
/// never wall clock, so trace dumps replay byte-identically.
const SHARD_BYTES_PER_CYCLE: u64 = 8;

/// Configuration for a [`ParallelEngine`].
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Most threads a request fans out to, the caller included (`0` is
    /// rounded up): a cap on the helpers it claims from the engine's
    /// budget. Defaults to the host's CPUs. Modeled shard spans use this
    /// count, not what was granted.
    pub workers: usize,
    /// Input bytes per shard. pigz's default is 128 KB; smaller shards
    /// expose more parallelism but pay more per-shard overhead (the sync
    /// flush marker, the dictionary re-priming, the Huffman headers).
    pub chunk_size: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self {
            workers: cpus(),
            chunk_size: 128 * 1024,
        }
    }
}

/// A compressed shard.
struct ShardData {
    /// A pooled buffer, released after stitching.
    bytes: Vec<u8>,
    /// CRC-32 of the shard's *input* (gzip framing only).
    crc: u32,
    /// Adler-32 of the shard's *input* (zlib framing only).
    adler: u32,
    len: u64,
}

/// Aggregate counters for a [`ParallelEngine`] (monotonic, lock-free).
#[derive(Debug, Default)]
pub struct ParallelStats {
    requests: AtomicU64,
    shards: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    serial_fallbacks: AtomicU64,
    worker_panics: AtomicU64,
    /// Shards compressed by each worker (index = worker id, 0 = the
    /// calling thread). Exposes the fan-out's load balance; sums to
    /// `shards` minus failed/injected ones.
    worker_shards: Vec<AtomicU64>,
    /// Input bytes compressed by each worker.
    worker_bytes: Vec<AtomicU64>,
}

impl ParallelStats {
    fn with_workers(n: usize) -> Self {
        Self {
            worker_shards: (0..n).map(|_| AtomicU64::new(0)).collect(),
            worker_bytes: (0..n).map(|_| AtomicU64::new(0)).collect(),
            ..Self::default()
        }
    }

    /// Completed `compress` calls.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Shards compressed across all requests.
    pub fn shards(&self) -> u64 {
        self.shards.load(Ordering::Relaxed)
    }

    /// Total input bytes.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Total framed output bytes.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Requests that completed through the inline serial fallback after a
    /// shard did not land (an injected worker death, a panic inside
    /// compression).
    pub fn serial_fallbacks(&self) -> u64 {
        self.serial_fallbacks.load(Ordering::Relaxed)
    }

    /// Panics inside shard compression, each contained to a failed shard
    /// (not a hang, not a poisoned encoder).
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Shards compressed by each worker (index = worker id).
    pub fn worker_shards(&self) -> Vec<u64> {
        self.worker_shards
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Input bytes compressed by each worker (index = worker id).
    pub fn worker_bytes(&self) -> Vec<u64> {
        self.worker_bytes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

impl MetricSource for ParallelStats {
    fn collect(&self, out: &mut Vec<(String, MetricValue)>) {
        out.push((
            "nx_parallel_requests_total".into(),
            MetricValue::Counter(self.requests()),
        ));
        out.push((
            "nx_parallel_shards_total".into(),
            MetricValue::Counter(self.shards()),
        ));
        out.push((
            "nx_parallel_bytes_in_total".into(),
            MetricValue::Counter(self.bytes_in()),
        ));
        out.push((
            "nx_parallel_bytes_out_total".into(),
            MetricValue::Counter(self.bytes_out()),
        ));
        out.push((
            "nx_parallel_serial_fallbacks_total".into(),
            MetricValue::Counter(self.serial_fallbacks()),
        ));
        out.push((
            "nx_parallel_worker_panics_total".into(),
            MetricValue::Counter(self.worker_panics()),
        ));
        for (i, (shards, bytes)) in self
            .worker_shards()
            .into_iter()
            .zip(self.worker_bytes())
            .enumerate()
        {
            out.push((
                format!("nx_parallel_worker_shards_total{{worker=\"{i}\"}}"),
                MetricValue::Counter(shards),
            ));
            out.push((
                format!("nx_parallel_worker_bytes_total{{worker=\"{i}\"}}"),
                MetricValue::Counter(bytes),
            ));
        }
    }
}

/// Compresses sharded input into single valid streams, each request's
/// shards fanned out over [`Workers::fan_out`]. See the [module
/// docs](self) for the format argument. It holds no threads between
/// requests.
#[derive(Debug)]
pub struct ParallelEngine {
    opts: ParallelOptions,
    stats: Arc<ParallelStats>,
    faults: Option<Arc<FaultInjector>>,
    telemetry: TelemetrySink,
    /// Shard output buffers cycle through here: workers acquire, the
    /// stitch releases.
    pool: Arc<BufferPool>,
    /// The decode side: member-parallel inflate, serial otherwise.
    inflater: ParallelInflater,
    /// The helper budget both directions claim from.
    workers: Workers,
}

impl ParallelEngine {
    /// Creates an engine on a worker budget of its own sized to the host;
    /// a zero-worker configuration is rounded up to the caller alone.
    pub fn new(opts: ParallelOptions) -> Self {
        let (sink, workers) = (TelemetrySink::disabled(), Workers::host());
        Self::build(opts, None, sink, Arc::default(), None, workers)
    }

    /// Creates an engine claiming its helpers from `workers`, tracing to
    /// `sink`, recycling shard buffers through `pool`, and under `faults`,
    /// whose plan may kill shards ([`crate::fault::FaultKind::WorkerPanic`])
    /// while every request still completes through the serial fallback.
    /// Shard spans are modeled (a deterministic function of shard index and
    /// size, at 8 input bytes per modeled cycle), so trace dumps are
    /// identical across runs regardless of thread scheduling.
    pub fn with_telemetry(
        opts: ParallelOptions,
        faults: Option<Arc<FaultInjector>>,
        sink: TelemetrySink,
        pool: Arc<BufferPool>,
        workers: Workers,
    ) -> Self {
        Self::build(opts, faults, sink, pool, None, workers)
    }

    /// The one constructor. `decode_stats` is shared with a facade, which
    /// already registered it on the telemetry registry; `None` creates
    /// fresh decode counters and registers them.
    fn build(
        mut opts: ParallelOptions,
        faults: Option<Arc<FaultInjector>>,
        sink: TelemetrySink,
        pool: Arc<BufferPool>,
        decode_stats: Option<Arc<InflateParStats>>,
        workers: Workers,
    ) -> Self {
        opts.workers = opts.workers.max(1);
        opts.chunk_size = opts.chunk_size.max(1);
        let stats = Arc::new(ParallelStats::with_workers(opts.workers));
        if let Some(reg) = sink.registry() {
            reg.register_source(
                "nx-parallel-stats",
                Arc::clone(&stats) as Arc<dyn MetricSource>,
            );
        }
        let decode_stats = decode_stats.unwrap_or_else(|| {
            let s = Arc::new(InflateParStats::default());
            if let Some(reg) = sink.registry() {
                reg.register_source(
                    "nx-decode-parallel",
                    Arc::clone(&s) as Arc<dyn MetricSource>,
                );
            }
            s
        });
        let inflater = ParallelInflater::with_parts(
            ParallelInflateOptions {
                workers: opts.workers,
                ..ParallelInflateOptions::default()
            },
            decode_stats,
            faults.clone(),
            sink.clone(),
            workers.clone(),
        );
        Self {
            opts,
            stats,
            faults,
            telemetry: sink,
            pool,
            inflater,
            workers,
        }
    }

    /// The options in force.
    pub fn options(&self) -> &ParallelOptions {
        &self.opts
    }

    /// Aggregate counters for this engine.
    pub fn stats(&self) -> &ParallelStats {
        &self.stats
    }

    /// The buffer pool shard outputs recycle through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Compresses `data` at `level` into `format` framing, its shards
    /// spread over up to `workers` threads. Output is deterministic: it
    /// depends only on `data`, `level`, `format` and `chunk_size` — never
    /// on the worker count or completion order — and always equals
    /// [`compress_serial`](Self::compress_serial).
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`](crate::Error::Deflate) for an invalid `level`. A
    /// shard that does not land (an injected worker death, a panic inside
    /// compression) is *not* an error: the request completes through the
    /// inline serial fallback — same bytes, recorded in
    /// [`ParallelStats::serial_fallbacks`].
    pub fn compress(&self, data: &[u8], level: u32, format: Format) -> Result<Vec<u8>> {
        let level = CompressionLevel::new(level)?;
        Ok(self.compress_engine(data, level, Engine::Auto, format))
    }

    /// [`compress`](Self::compress) at a validated level with an explicit
    /// LZ77 engine.
    fn compress_engine(
        &self,
        data: &[u8],
        level: CompressionLevel,
        engine: Engine,
        format: Format,
    ) -> Vec<u8> {
        let framed = self
            .compress_sharded(data, level, engine, format)
            .unwrap_or_else(|| {
                // Finish the request inline. Identical bytes by
                // construction (same sharding + stitching).
                self.stats.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
                if let Some(inj) = &self.faults {
                    let s = inj.stats();
                    s.bump(&s.serial_fallbacks);
                }
                self.compress_serial_engine(data, level, engine, format)
            });
        let stats = &self.stats;
        let shards = data.len().div_ceil(self.opts.chunk_size).max(1);
        stats.requests.fetch_add(1, Ordering::Relaxed);
        stats.shards.fetch_add(shards as u64, Ordering::Relaxed);
        stats
            .bytes_in
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        stats
            .bytes_out
            .fetch_add(framed.len() as u64, Ordering::Relaxed);
        framed
    }

    /// Runs one request's shards on [`Workers::fan_out`], each worker
    /// reusing one [`StreamEncoder`] for the shards it pulls. `None` when a
    /// shard did not land: the caller falls back.
    fn compress_sharded(
        &self,
        data: &[u8],
        level: CompressionLevel,
        engine: Engine,
        format: Format,
    ) -> Option<Vec<u8>> {
        let shards = shard_ranges(data.len(), self.opts.chunk_size);
        let request = self.faults.as_ref().map_or(0, |inj| inj.begin_request());
        let trace_request = if self.telemetry.is_enabled() {
            self.telemetry.begin_request()
        } else {
            0
        };
        // Every shard's fault draw happens here, in shard order, so the
        // fault counters do not depend on which worker ran what.
        let inj = self.faults.as_deref();
        let dead = |seq: &u64| inj.is_some_and(|j| j.worker_fault(request, *seq));
        if (0..shards.len() as u64).filter(dead).count() > 0 {
            return None;
        }
        let shard = |(worker, enc): &mut (usize, Option<StreamEncoder>), seq: usize| {
            let (chunk, buf) = (shards[seq].clone(), self.pool.acquire());
            let compressed = catch_unwind(AssertUnwindSafe(|| {
                compress_shard(enc, buf, data, chunk, level, engine, format)
            }));
            let Ok(out) = compressed else {
                // The encoder's state is suspect after an unwind; drop it.
                *enc = None;
                self.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            self.stats.worker_shards[*worker].fetch_add(1, Ordering::Relaxed);
            self.stats.worker_bytes[*worker].fetch_add(out.len, Ordering::Relaxed);
            Some(out)
        };
        let (n, workers) = (shards.len(), self.opts.workers);
        let landed = self.workers.fan_out(n, workers, |w| (w, None), shard);
        self.emit_shard_spans(trace_request, &landed);
        let outs = landed.into_iter().collect::<Option<Vec<_>>>()?;
        Some(self.stitch(outs, data.len(), format))
    }

    /// Emits a `shard` span and a shard-latency sample for every shard that
    /// landed, on a modeled timeline: round-robin waves of full chunks, so
    /// shard `seq` starts after `seq / workers` earlier waves each costing
    /// `chunk_size / rate` cycles, on modeled unit `seq % workers`.
    /// Deterministic in (seq, size) alone — never the actual schedule; the
    /// real load balance lives in the per-worker counters instead.
    fn emit_shard_spans(&self, request: u64, landed: &[Option<ShardData>]) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let workers = self.opts.workers as u64;
        let wave_cycles = (self.opts.chunk_size as u64 / SHARD_BYTES_PER_CYCLE).max(1);
        for (seq, shard) in landed.iter().enumerate() {
            let Some(shard) = shard else { continue };
            let seq = seq as u64;
            let start = (seq / workers) * wave_cycles;
            let dur = (shard.len / SHARD_BYTES_PER_CYCLE).max(1);
            let unit = (seq % workers) as u32;
            self.telemetry.emit(
                request,
                seq as u32,
                NO_PARENT,
                Stage::Shard,
                unit,
                start,
                dur,
                shard.len,
                0,
            );
            self.telemetry.record_shard(dur);
        }
    }

    /// The single-threaded reference: identical sharding and stitching,
    /// run inline. [`compress`](Self::compress) is defined to produce
    /// exactly these bytes.
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`](crate::Error::Deflate) for an invalid `level`.
    pub fn compress_serial(&self, data: &[u8], level: u32, format: Format) -> Result<Vec<u8>> {
        let level = CompressionLevel::new(level)?;
        Ok(self.compress_serial_engine(data, level, Engine::Auto, format))
    }

    /// The serial reference with an explicit LZ77 engine — the inline
    /// fallback must match the sharded bytes for the *requested* engine.
    fn compress_serial_engine(
        &self,
        data: &[u8],
        level: CompressionLevel,
        engine: Engine,
        format: Format,
    ) -> Vec<u8> {
        let mut enc = None;
        let outs = shard_ranges(data.len(), self.opts.chunk_size)
            .into_iter()
            .map(|chunk| {
                let buf = self.pool.acquire();
                compress_shard(&mut enc, buf, data, chunk, level, engine, format)
            })
            .collect();
        self.stitch(outs, data.len(), format)
    }

    /// Writes the container header, the ordered shards and the trailer
    /// into one buffer sized from the shard lengths, folding the per-shard
    /// checksums into the trailer value, and shelves the shard buffers.
    fn stitch(&self, outs: Vec<ShardData>, total_len: usize, format: Format) -> Vec<u8> {
        let frame = match format {
            Format::RawDeflate => 0,
            Format::Gzip => 18,
            Format::Zlib => 6,
        };
        let body: usize = outs.iter().map(|o| o.bytes.len()).sum();
        let mut out = Vec::with_capacity(body + frame);
        match format {
            Format::RawDeflate => {}
            Format::Gzip => gzip::write_header_into(&mut out),
            Format::Zlib => zlib::write_header_into(&mut out, CompressionLevel::default()),
        }
        for o in &outs {
            out.extend_from_slice(&o.bytes);
        }
        match format {
            Format::RawDeflate => {}
            Format::Gzip => {
                let crc = outs
                    .iter()
                    .fold(0u32, |acc, o| crc32_combine(acc, o.crc, o.len));
                gzip::write_trailer_into(&mut out, crc, total_len as u64);
            }
            Format::Zlib => {
                let adler = outs
                    .iter()
                    .fold(1u32, |acc, o| adler32_combine(acc, o.adler, o.len));
                zlib::write_trailer_into(&mut out, adler);
            }
        }
        for o in outs {
            self.pool.release(o.bytes);
        }
        out
    }

    /// Decompresses `format`-framed `data` through the parallel inflate
    /// path ([`crate::parallel_inflate`]): multi-member gzip decodes
    /// member-per-worker, and any other stream (or a member plan that does
    /// not validate) decodes serially. Output is byte-identical to a serial
    /// inflate in every case.
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`](crate::Error::Deflate) for malformed containers or
    /// streams.
    pub fn decompress(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        self.inflater.decompress(data, format)
    }

    /// As [`decompress`](Self::decompress) inside the caller's trace —
    /// member (or serial-stream) spans land under `ctx.parent_span`
    /// on the request's timeline
    /// (see [`ParallelInflater::decompress_in_trace`]).
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
        self.inflater.decompress_in_trace(data, format, ctx)
    }
}

/// Splits `len` bytes into `chunk_size` shards; an empty input still
/// produces one (empty) shard so the final-block machinery runs.
fn shard_ranges(len: usize, chunk_size: usize) -> Vec<Range<usize>> {
    if len == 0 {
        // Intentionally one element holding the empty range 0..0 (one
        // empty shard), not an empty vec.
        #[allow(clippy::single_range_in_vec_init)]
        return vec![0..0];
    }
    let mut out = Vec::with_capacity(len.div_ceil(chunk_size));
    let mut start = 0;
    while start < len {
        let end = (start + chunk_size).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

/// Compresses `data[chunk]` into `buf` (a pooled buffer the stitch
/// releases), primed with up to one window of the input before it and
/// finished when the chunk ends the input. `enc` is the worker's encoder
/// for this request (one level, one engine), reused from shard to shard.
fn compress_shard(
    enc: &mut Option<StreamEncoder>,
    mut buf: Vec<u8>,
    data: &[u8],
    chunk: Range<usize>,
    level: CompressionLevel,
    engine: Engine,
    format: Format,
) -> ShardData {
    let dict = &data[chunk.start.saturating_sub(DICT_SIZE)..chunk.start];
    let flush = if chunk.end == data.len() {
        Flush::Finish
    } else {
        Flush::Sync
    };
    let chunk = &data[chunk];
    let enc = match enc {
        Some(e) => {
            e.reset_with_dict(dict);
            e
        }
        slot => slot.insert(StreamEncoder::with_dict_engine(level, dict, engine)),
    };
    buf.clear();
    enc.write_into(chunk, flush, &mut buf);
    ShardData {
        bytes: buf,
        crc: if format == Format::Gzip {
            crc32(chunk)
        } else {
            0
        },
        adler: if format == Format::Zlib {
            adler32(chunk)
        } else {
            1
        },
        len: chunk.len() as u64,
    }
}

/// A parallel compression session bound to an [`crate::Nx`] handle: the
/// engine's traffic is recorded into the handle's [`crate::NxStats`],
/// modeling a host that fans one request out across accelerator units.
#[derive(Debug)]
pub struct ParallelSession {
    engine: ParallelEngine,
    nx: Nx,
    level: u32,
    engine_sel: Engine,
    /// Options whose canned profile the handle's registry holds: payloads
    /// that fit one shard — the small-payload traffic canned profiles
    /// target — run as ordinary requests under them. Multi-shard inputs
    /// run the regular sharded ladder — per-shard dictionary hand-off and
    /// canned preset dictionaries are different mechanisms and do not
    /// compose.
    canned: Option<CompressOptions>,
}

impl ParallelSession {
    pub(crate) fn new(
        nx: &Nx,
        opts: ParallelOptions,
        level: u32,
        engine_sel: Engine,
        canned: Option<CompressOptions>,
    ) -> Self {
        let engine = ParallelEngine::build(
            opts,
            nx.fault_injector().cloned(),
            nx.telemetry().clone(),
            Arc::clone(nx.buffer_pool()),
            Some(Arc::clone(nx.decode_parallel_stats())),
            nx.env.workers.clone(),
        );
        Self {
            engine,
            nx: nx.clone(),
            level,
            engine_sel,
            canned,
        }
    }

    /// The fan-out configuration.
    pub fn options(&self) -> &ParallelOptions {
        &self.engine.opts
    }

    /// Per-engine counters (shards, bytes).
    pub fn engine_stats(&self) -> &ParallelStats {
        self.engine.stats()
    }

    /// Compresses `data` into `format` framing, its shards fanned out.
    ///
    /// # Errors
    ///
    /// As [`ParallelEngine::compress`].
    pub fn compress(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        if let Some(opts) = self.canned {
            if data.len() <= self.engine.opts.chunk_size {
                return Ok(self.nx.compress_with(data, format, opts)?.bytes);
            }
        }
        let level = CompressionLevel::new(self.level)?;
        let out = self
            .engine
            .compress_engine(data, level, self.engine_sel, format);
        self.nx
            .stats()
            .record_compress(Codec::Deflate, data.len() as u64, out.len() as u64, 0);
        Ok(out)
    }

    /// Decompresses `format`-framed `data` through the parallel inflate
    /// path (see the [module docs](self)).
    ///
    /// # Errors
    ///
    /// As [`ParallelEngine::decompress`].
    pub fn decompress(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        let out = self.engine.decompress(data, format)?;
        self.nx
            .stats()
            .record_decompress(Codec::Deflate, data.len() as u64, out.len() as u64, 0);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::software;

    fn corpus(n: usize) -> Vec<u8> {
        nx_corpus::mixed(7, n)
    }

    /// An engine whose budget holds every helper `workers` asks for, so
    /// what runs where does not depend on the host's CPUs.
    fn engine(workers: usize, chunk: usize) -> ParallelEngine {
        let opts = ParallelOptions {
            workers,
            chunk_size: chunk,
        };
        let budget = Workers::new(workers.saturating_sub(1));
        ParallelEngine::with_telemetry(
            opts,
            None,
            TelemetrySink::disabled(),
            Arc::default(),
            budget,
        )
    }

    #[test]
    fn roundtrips_all_formats() {
        let data = corpus(600 * 1024);
        let e = engine(4, 64 * 1024);
        for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
            let out = e.compress(&data, 6, format).unwrap();
            assert_eq!(e.decompress(&out, format).unwrap(), data, "{format:?}");
        }
        assert_eq!(e.stats().requests(), 3);
        assert_eq!(e.stats().shards(), 3 * 10);
    }

    #[test]
    fn output_independent_of_worker_count() {
        let data = corpus(300 * 1024);
        let reference = engine(1, 32 * 1024)
            .compress(&data, 6, Format::Gzip)
            .unwrap();
        for workers in [2, 3, 8] {
            let out = engine(workers, 32 * 1024)
                .compress(&data, 6, Format::Gzip)
                .unwrap();
            assert_eq!(out, reference, "workers={workers}");
        }
    }

    #[test]
    fn pool_output_equals_serial_reference() {
        // 9 shards over 4 workers, and 64 shards on the caller alone.
        for (len, workers, chunk) in [(200 * 1024, 4, 24 * 1024), (256 * 1024, 1, 4 * 1024)] {
            let data = corpus(len);
            let e = engine(workers, chunk);
            for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
                let out = e.compress(&data, 6, format).unwrap();
                let serial = e.compress_serial(&data, 6, format).unwrap();
                assert_eq!(out, serial, "{format:?} on {workers} worker(s)");
                assert_eq!(e.decompress(&out, format).unwrap(), data);
            }
            assert_eq!(e.stats().serial_fallbacks(), 0);
        }
    }

    #[test]
    fn empty_input() {
        let e = engine(2, 128 * 1024);
        for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
            let out = e.compress(b"", 6, format).unwrap();
            assert_eq!(e.decompress(&out, format).unwrap(), b"", "{format:?}");
        }
    }

    #[test]
    fn input_smaller_than_one_chunk() {
        let data = b"fits in one shard".to_vec();
        let e = engine(4, 128 * 1024);
        let out = e.compress(&data, 6, Format::Gzip).unwrap();
        assert_eq!(e.decompress(&out, Format::Gzip).unwrap(), data);
        assert_eq!(e.stats().shards(), 1);
        // A single shard is a plain whole-stream compression: identical
        // bytes to the ordinary software path.
        assert_eq!(
            out,
            software::compress(&data, CompressionLevel::new(6).unwrap(), Format::Gzip)
        );
    }

    #[test]
    fn one_shard_runs_on_the_caller_alone() {
        // `fan_out` spawns at most `shards - 1` helpers: a one-shard
        // request at 4 workers is compressed by worker 0, the caller.
        let e = engine(4, 128 * 1024);
        let data = corpus(100 * 1024);
        e.compress(&data, 6, Format::Zlib).unwrap();
        assert_eq!(e.stats().worker_shards(), [1, 0, 0, 0]);
        assert_eq!(e.stats().worker_bytes(), [data.len() as u64, 0, 0, 0]);
    }

    #[test]
    fn chunks_smaller_than_the_dictionary() {
        // 1 KB chunks: every shard's dictionary spans several whole
        // previous chunks' tails (dict range is clamped to 32 KB of
        // *input*, which here covers 32 chunks).
        let data = corpus(40 * 1024);
        let e = engine(3, 1024);
        for level in [1u32, 6] {
            let out = e.compress(&data, level, Format::Zlib).unwrap();
            assert_eq!(
                e.decompress(&out, Format::Zlib).unwrap(),
                data,
                "level {level}"
            );
        }
    }

    #[test]
    fn incompressible_shards_fall_back_to_stored() {
        // Random bytes cannot be compressed; the per-block stored
        // fallback must kick in and keep expansion bounded (stored
        // overhead is 5 bytes per 64 KB + the shard seams).
        let data = nx_corpus::CorpusKind::Random.generate(3, 512 * 1024);
        let e = engine(4, 64 * 1024);
        let out = e.compress(&data, 6, Format::Gzip).unwrap();
        assert_eq!(e.decompress(&out, Format::Gzip).unwrap(), data);
        assert!(
            out.len() < data.len() + data.len() / 100 + 64,
            "incompressible input expanded: {} -> {}",
            data.len(),
            out.len()
        );
    }

    #[test]
    fn dictionary_priming_helps_across_shards() {
        // Input whose period is much larger than one chunk but smaller
        // than the window: without dictionary hand-off every shard would
        // start cold and find no cross-shard matches.
        let motif = corpus(24 * 1024);
        let data: Vec<u8> = motif
            .iter()
            .copied()
            .cycle()
            .take(motif.len() * 8)
            .collect();
        let primed = engine(2, 24 * 1024)
            .compress(&data, 6, Format::RawDeflate)
            .unwrap();
        // Reference without priming: compress each chunk independently
        // and concatenate lengths (not a valid stream; length only).
        let cold: usize = data
            .chunks(24 * 1024)
            .map(|c| nx_deflate::deflate(c, CompressionLevel::new(6).unwrap()).len())
            .sum();
        assert!(
            primed.len() * 2 < cold,
            "dictionary hand-off ineffective: primed {} vs cold {}",
            primed.len(),
            cold
        );
    }

    #[test]
    fn level_zero_and_invalid_levels() {
        let data = corpus(100 * 1024);
        let e = engine(2, 32 * 1024);
        let out = e.compress(&data, 0, Format::Gzip).unwrap();
        assert_eq!(e.decompress(&out, Format::Gzip).unwrap(), data);
        assert!(e.compress(&data, 10, Format::Gzip).is_err());
    }

    #[test]
    fn zero_workers_are_rounded_up_to_the_caller() {
        let opts = ParallelOptions {
            workers: 0,
            chunk_size: 64 * 1024,
        };
        assert_eq!(ParallelEngine::new(opts).options().workers, 1);
        // Even on a budget with slots to spare, every shard is the caller's.
        let e = engine(0, 16 * 1024);
        let data = corpus(40 * 1024);
        let out = e.compress(&data, 6, Format::Gzip).unwrap();
        assert_eq!(out, e.compress_serial(&data, 6, Format::Gzip).unwrap());
        assert_eq!(e.stats().worker_shards(), [3]);
    }

    #[test]
    fn injected_worker_death_falls_back_to_serial() {
        use crate::fault::{FaultKind, FaultPlan, RecoveryPolicy, Scripted, Site};
        // Kill shards 1 and 4 of request 0's 8 (and a shard 20 it does
        // not have): the request must produce the exact serial bytes
        // through one counted fallback, with one draw per shard.
        let script: Vec<Scripted> = [1, 4, 20]
            .into_iter()
            .map(|s| Scripted {
                site: Site::Worker,
                request: 0,
                attempt: s,
                kind: FaultKind::WorkerPanic,
            })
            .collect();
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::script(script),
            RecoveryPolicy::default(),
        ));
        let e = ParallelEngine::with_telemetry(
            ParallelOptions {
                workers: 2,
                chunk_size: 16 * 1024,
            },
            Some(Arc::clone(&inj)),
            TelemetrySink::disabled(),
            Arc::default(),
            Workers::new(1),
        );
        let data = corpus(120 * 1024);
        let out = e.compress(&data, 6, Format::Gzip).unwrap();
        assert_eq!(out, e.compress_serial(&data, 6, Format::Gzip).unwrap());
        assert_eq!(e.stats().serial_fallbacks(), 1);
        assert_eq!(inj.stats().worker_panic_count(), 2);
        assert_eq!(inj.stats().serial_fallback_count(), 1);
        assert_eq!(e.stats().worker_shards().iter().sum::<u64>(), 0);
        // Nothing outlives a request: the next one fans out again.
        let out2 = e.compress(&data, 6, Format::Zlib).unwrap();
        assert_eq!(out2, e.compress_serial(&data, 6, Format::Zlib).unwrap());
        assert_eq!(e.stats().serial_fallbacks(), 1);
        assert_eq!(e.stats().worker_shards().iter().sum::<u64>(), 8);
        assert_eq!(e.stats().worker_panics(), 0);
    }

    #[test]
    fn shard_buffers_recycle_through_the_pool() {
        let data = corpus(256 * 1024);
        let e = engine(2, 32 * 1024); // 8 shards per request
        e.compress(&data, 6, Format::Gzip).unwrap();
        // Every shard buffer stitched on the submitting thread goes back
        // to the shelf (pool cap permitting).
        assert_eq!(e.pool().recycled(), 8);
        e.compress(&data, 6, Format::Gzip).unwrap();
        assert!(
            e.pool().hits() >= 1,
            "second request never reused a shard buffer"
        );
        assert_eq!(e.pool().recycled(), 16);
    }

    #[test]
    fn one_budget_meters_every_fan_out_of_a_handle() {
        // Four 1 MiB model requests, each of which would run three helpers
        // ahead, beside a sharded compress that would run three, two 1 MiB
        // level-6 software requests that would each run three and two 1 MiB
        // level-1 ones that would each emit behind on one, all at once on
        // one handle whose budget holds two helpers.
        let budget = Workers::new(2);
        let nx = Nx::power9().reconfigured(|env| env.workers = budget.clone());
        let opts = ParallelOptions {
            workers: 4,
            chunk_size: 64 << 10,
        };
        let sess = nx.parallel_session(opts, 6);
        let ladder = CompressOptions::new().with_engine(Engine::Sequential);
        let fastest = CompressOptions::from_level(nx_deflate::Level::Fastest);
        let inputs: Vec<Vec<u8>> = (0..9).map(|i| nx_corpus::mixed(40 + i, 1 << 20)).collect();
        let start = std::sync::Barrier::new(9);
        let outs: Vec<Vec<u8>> = std::thread::scope(|s| {
            let running: Vec<_> = (inputs.iter().enumerate())
                .map(|(i, d)| {
                    let (nx, sess, start) = (&nx, &sess, &start);
                    s.spawn(move || {
                        start.wait();
                        match i {
                            4 => sess.compress(d, Format::Gzip).unwrap(),
                            5 | 6 => nx.compress_with(d, Format::Gzip, ladder).unwrap().bytes,
                            7 | 8 => nx.compress_with(d, Format::Gzip, fastest).unwrap().bytes,
                            _ => nx.compress(d, Format::Gzip).unwrap().bytes,
                        }
                    })
                })
                .collect();
            running.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every output is the serial one.
        let serial = Nx::power9().reconfigured(|env| env.workers = Workers::new(0));
        for (d, out) in inputs[..4].iter().zip(&outs) {
            assert!(*out == serial.compress(d, Format::Gzip).unwrap().bytes);
        }
        let sharded = sess.engine.compress_serial(&inputs[4], 6, Format::Gzip);
        assert!(outs[4] == sharded.unwrap());
        for (i, (d, out)) in (5..).zip(inputs[5..].iter().zip(&outs[5..])) {
            let (level, engine) = if i < 7 {
                (6, Engine::Sequential)
            } else {
                (1, Engine::Auto)
            };
            let level = CompressionLevel::new(level).unwrap();
            let want = software::compress_with_engine(d, level, engine, Format::Gzip);
            assert!(*out == want, "request {i}");
        }
        // The first claim found both slots free; no claim found more.
        assert_eq!(budget.peak(), 2, "helpers past the handle's budget");
    }

    #[test]
    fn session_records_into_nx_stats() {
        let nx = crate::Nx::power9();
        let sess = nx.parallel_session(
            ParallelOptions {
                workers: 2,
                chunk_size: 16 * 1024,
            },
            6,
        );
        let data = corpus(64 * 1024);
        let out = sess.compress(&data, Format::Gzip).unwrap();
        assert_eq!(nx.stats().compress_requests(), 1);
        assert_eq!(nx.stats().bytes_in(), data.len() as u64);
        let back = sess.decompress(&out, Format::Gzip).unwrap();
        assert_eq!(back, data);
        assert_eq!(
            sess.engine_stats().shards(),
            (data.len() as u64).div_ceil(16 * 1024)
        );
    }
}
