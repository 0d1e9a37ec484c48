//! Sharded parallel compression — the software analogue of feeding one
//! stream through several accelerator units (or pigz through several
//! cores) and still emitting a single valid gzip/zlib/raw-DEFLATE
//! stream.
//!
//! # How a sharded stream stays valid
//!
//! The input is cut into fixed-size chunks. Each chunk is compressed
//! independently by a pool worker, *primed* with the last 32 KB of the
//! preceding chunk as a preset dictionary
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
//! Decompression of a DEFLATE stream *looks* inherently serial — every
//! match references the preceding 32 KB of *output*, so shard `i` cannot
//! simply be decoded before shard `i-1` finished. The engine breaks that
//! chain speculatively: [`ParallelEngine::decompress`] routes through
//! [`crate::parallel_inflate`], which probes for block boundaries, decodes
//! chunks ahead of their unknown window into marker buffers, and patches
//! the markers once the predecessor's trailing window resolves
//! (multi-member gzip takes the easy member-per-worker path instead).
//! Any speculation anomaly degrades to a serial inflate, so output is
//! always byte-identical to the single-threaded decoder.
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
use crate::{CompressOptions, Error, Nx, Result};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use nx_deflate::adler32::{adler32, adler32_combine};
use nx_deflate::crc32::{crc32, crc32_combine};
use nx_deflate::stream::{Flush, StreamEncoder};
use nx_deflate::{gzip, zlib, CompressionLevel, Engine};
use nx_telemetry::{MetricSource, MetricValue, Stage, TelemetrySink, TraceContext, NO_PARENT};
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the submitting thread waits for a shard before checking
/// whether the pool is still alive. Purely a liveness probe: a healthy
/// but slow pool just loops.
const POOL_PROBE: Duration = Duration::from_millis(200);

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
    /// Worker threads in the pool (≥ 1; `0` is rounded up).
    pub workers: usize,
    /// Input bytes per shard. pigz's default is 128 KB; smaller shards
    /// expose more parallelism but pay more per-shard overhead (the sync
    /// flush marker, the dictionary re-priming, the Huffman headers).
    pub chunk_size: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            chunk_size: 128 * 1024,
        }
    }
}

/// One unit of work: compress `input[chunk]` with `input[dict]` as the
/// preset dictionary.
struct Job {
    seq: usize,
    /// Request index for fault-plan coordinates.
    request: u64,
    /// Request index for span-trace coordinates (sink-allocated, or the
    /// caller's trace id when the request joined an existing trace).
    trace_request: u64,
    /// Span the worker's shard spans hang under ([`NO_PARENT`] for a
    /// standalone request).
    trace_parent: u32,
    /// Whether this request's trace is sampled — unsampled requests
    /// skip shard-span emission but still record shard histograms.
    trace_sampled: bool,
    input: Arc<Vec<u8>>,
    chunk: Range<usize>,
    dict: Range<usize>,
    level: u32,
    engine: Engine,
    format: Format,
    is_final: bool,
    done: Sender<ShardOut>,
}

/// A shard result travelling back to the submitting thread; `data` is
/// `None` when the worker's compression panicked (the failure marker
/// that triggers the serial fallback instead of a hang).
struct ShardOut {
    seq: usize,
    data: Option<ShardData>,
}

/// A successfully compressed shard.
struct ShardData {
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
    /// Shards compressed by each worker (index = worker id). Exposes the
    /// pool's load balance; sums to `shards` minus failed/injected ones.
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
    /// pool failure (worker death, poisoned channel).
    pub fn serial_fallbacks(&self) -> u64 {
        self.serial_fallbacks.load(Ordering::Relaxed)
    }

    /// Worker panics contained by the pool (each produces a failed shard
    /// marker, not a hang).
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

/// A persistent pool of compression workers producing single valid
/// streams from sharded input. See the [module docs](self) for the
/// format argument.
#[derive(Debug)]
pub struct ParallelEngine {
    opts: ParallelOptions,
    /// `Some` until drop; taking it closes the channel and stops workers.
    job_tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<ParallelStats>,
    faults: Option<Arc<FaultInjector>>,
    telemetry: TelemetrySink,
    /// Shard output buffers cycle through here: workers acquire, the
    /// submitting thread releases after stitching.
    pool: Arc<BufferPool>,
    /// The decode side: speculative two-stage parallel inflate.
    inflater: ParallelInflater,
}

impl ParallelEngine {
    /// Spawns the worker pool.
    pub fn new(mut opts: ParallelOptions) -> Self {
        opts.workers = opts.workers.max(1);
        Self::spawn(opts, None, TelemetrySink::disabled(), Arc::default())
    }

    /// Spawns the worker pool, rejecting a zero-worker configuration with
    /// [`Error::NoWorkers`] instead of rounding it up.
    pub fn try_new(opts: ParallelOptions) -> Result<Self> {
        if opts.workers == 0 {
            return Err(Error::NoWorkers);
        }
        Ok(Self::spawn(
            opts,
            None,
            TelemetrySink::disabled(),
            Arc::default(),
        ))
    }

    /// Spawns the worker pool under fault injection: the injector's plan
    /// may kill workers mid-stream ([`crate::fault::FaultKind::WorkerPanic`]),
    /// and the engine must still complete every request through the
    /// serial fallback.
    pub fn with_faults(mut opts: ParallelOptions, faults: Arc<FaultInjector>) -> Self {
        opts.workers = opts.workers.max(1);
        Self::spawn(
            opts,
            Some(faults),
            TelemetrySink::disabled(),
            Arc::default(),
        )
    }

    /// Spawns the worker pool with span tracing and metrics wired to
    /// `sink`, recycling shard buffers through `pool`. Shard spans are
    /// modeled (a deterministic function of shard index and size — see
    /// [`SHARD_BYTES_PER_CYCLE`]'s docs), so trace dumps are identical
    /// across runs regardless of thread scheduling.
    pub fn with_telemetry(
        mut opts: ParallelOptions,
        faults: Option<Arc<FaultInjector>>,
        sink: TelemetrySink,
        pool: Arc<BufferPool>,
    ) -> Self {
        opts.workers = opts.workers.max(1);
        Self::spawn(opts, faults, sink, pool)
    }

    fn spawn(
        opts: ParallelOptions,
        faults: Option<Arc<FaultInjector>>,
        sink: TelemetrySink,
        pool: Arc<BufferPool>,
    ) -> Self {
        Self::spawn_with_decode(opts, faults, sink, pool, None)
    }

    /// As [`spawn`](Self::spawn), but sharing `decode_stats` with a facade
    /// (which already registered it on the telemetry registry). When
    /// `None`, fresh decode counters are created and self-registered.
    fn spawn_with_decode(
        mut opts: ParallelOptions,
        faults: Option<Arc<FaultInjector>>,
        sink: TelemetrySink,
        pool: Arc<BufferPool>,
        decode_stats: Option<Arc<InflateParStats>>,
    ) -> Self {
        opts.chunk_size = opts.chunk_size.max(1);
        let stats = Arc::new(ParallelStats::with_workers(opts.workers));
        if let Some(reg) = sink.registry() {
            reg.register_source(
                "nx-parallel-stats",
                Arc::clone(&stats) as Arc<dyn MetricSource>,
            );
        }
        let decode_stats = match decode_stats {
            Some(s) => s,
            None => {
                let s = Arc::new(InflateParStats::default());
                if let Some(reg) = sink.registry() {
                    reg.register_source(
                        "nx-decode-parallel",
                        Arc::clone(&s) as Arc<dyn MetricSource>,
                    );
                }
                s
            }
        };
        let inflater = ParallelInflater::with_parts(
            ParallelInflateOptions {
                workers: opts.workers,
                ..ParallelInflateOptions::default()
            },
            decode_stats,
            faults.clone(),
            Arc::clone(&pool),
            sink.clone(),
        );
        // A small bounded queue: submission applies backpressure instead
        // of buffering every pending shard descriptor at once.
        let (job_tx, job_rx) = bounded::<Job>(opts.workers * 2);
        let workers = (0..opts.workers)
            .map(|worker_id| {
                let rx = job_rx.clone();
                let inj = faults.clone();
                let st = Arc::clone(&stats);
                let tel = sink.clone();
                let pl = Arc::clone(&pool);
                let shape = WorkerShape {
                    worker_id: worker_id as u32,
                    workers: opts.workers as u64,
                    chunk_size: opts.chunk_size as u64,
                };
                std::thread::spawn(move || worker_loop(rx, inj, st, tel, shape, pl))
            })
            .collect();
        Self {
            opts,
            job_tx: Some(job_tx),
            workers,
            stats,
            faults,
            telemetry: sink,
            pool,
            inflater,
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

    /// Compresses `data` at `level` into `format` framing using the
    /// worker pool. Output is deterministic: it depends only on `data`,
    /// `level`, `format` and `chunk_size` — never on the worker count or
    /// completion order — and always equals
    /// [`compress_serial`](Self::compress_serial).
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`] for an invalid `level`. A pool failure (worker
    /// death, poisoned channel) is *not* an error: the request completes
    /// through the inline serial fallback — same bytes, recorded in
    /// [`ParallelStats::serial_fallbacks`] — instead of hanging or
    /// surfacing a transient.
    pub fn compress(&self, data: &[u8], level: u32, format: Format) -> Result<Vec<u8>> {
        self.compress_traced(data, level, Engine::Auto, format, None)
    }

    /// As [`compress`](Self::compress), but every shard span the pool
    /// emits joins the caller's trace: `ctx.trace_id` becomes the span
    /// request coordinate, `ctx.parent_span` the parent, and
    /// `ctx.sampled` gates emission (histograms record regardless).
    ///
    /// # Errors
    ///
    /// As [`compress`](Self::compress).
    pub fn compress_in_trace(
        &self,
        data: &[u8],
        level: u32,
        format: Format,
        ctx: &TraceContext,
    ) -> Result<Vec<u8>> {
        self.compress_traced(data, level, Engine::Auto, format, Some(ctx))
    }

    fn compress_traced(
        &self,
        data: &[u8],
        level: u32,
        engine: Engine,
        format: Format,
        ctx: Option<&TraceContext>,
    ) -> Result<Vec<u8>> {
        CompressionLevel::new(level)?;
        match self.compress_pooled(data, level, engine, format, ctx) {
            Some(framed) => {
                self.record_request(data.len(), framed.len());
                Ok(framed)
            }
            None => {
                // Pool failure: finish the request inline. Identical
                // bytes by construction (same sharding + stitching).
                self.stats.serial_fallbacks.fetch_add(1, Ordering::Relaxed);
                if let Some(inj) = &self.faults {
                    let s = inj.stats();
                    s.bump(&s.serial_fallbacks);
                }
                let framed = self.compress_serial_engine(data, level, engine, format)?;
                self.record_request(data.len(), framed.len());
                Ok(framed)
            }
        }
    }

    /// As [`compress`](Self::compress) with the level taken from
    /// [`crate::CompressOptions`], so ladder rungs ([`nx_deflate::Level`])
    /// reach the shard workers unchanged.
    ///
    /// # Errors
    ///
    /// As [`compress`](Self::compress).
    pub fn compress_with(
        &self,
        data: &[u8],
        opts: crate::CompressOptions,
        format: Format,
    ) -> Result<Vec<u8>> {
        self.compress_traced(data, opts.level().get(), opts.engine(), format, None)
    }

    /// Runs one request through the pool; `None` means the pool could not
    /// complete it (dead workers, failed shard, closed channel) and the
    /// caller must fall back.
    fn compress_pooled(
        &self,
        data: &[u8],
        level: u32,
        engine: Engine,
        format: Format,
        ctx: Option<&TraceContext>,
    ) -> Option<Vec<u8>> {
        let shards = shard_ranges(data.len(), self.opts.chunk_size);
        let njobs = shards.len();
        let request = self.faults.as_ref().map_or(0, |inj| inj.begin_request());
        // A request arriving inside an existing trace reuses that trace's
        // coordinates; a standalone request mints its own.
        let (trace_request, trace_parent, trace_sampled) = match ctx {
            Some(c) => (c.trace_id, c.parent_span, c.sampled),
            None => {
                let id = if self.telemetry.is_enabled() {
                    self.telemetry.begin_request()
                } else {
                    0
                };
                (id, NO_PARENT, true)
            }
        };
        // One shared copy of the input; shards borrow ranges of it.
        let input = Arc::new(data.to_vec());
        let (done_tx, done_rx) = bounded::<ShardOut>(njobs);
        let job_tx = self.job_tx.as_ref()?;
        let mut pending: VecDeque<Job> = shards
            .into_iter()
            .enumerate()
            .map(|(seq, chunk)| {
                let dict = chunk.start.saturating_sub(DICT_SIZE)..chunk.start;
                Job {
                    seq,
                    request,
                    trace_request,
                    trace_parent,
                    trace_sampled,
                    input: Arc::clone(&input),
                    chunk,
                    dict,
                    level,
                    engine,
                    format,
                    is_final: seq + 1 == njobs,
                    done: done_tx.clone(),
                }
            })
            .collect();
        drop(done_tx);

        // Interleave non-blocking submission with collection: a blocking
        // send into a dead pool's full queue is exactly the hang this
        // path exists to prevent.
        let mut outs: Vec<Option<ShardData>> = (0..njobs).map(|_| None).collect();
        let mut received = 0usize;
        while received < njobs {
            while let Some(job) = pending.pop_front() {
                match job_tx.try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(job)) => {
                        pending.push_front(job);
                        break;
                    }
                    Err(TrySendError::Disconnected(_)) => return None,
                }
            }
            match done_rx.recv_timeout(POOL_PROBE) {
                Ok(out) => {
                    received += 1;
                    outs[out.seq] = out.data;
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Slow is fine; dead is not. With every worker gone no
                    // shard will ever arrive.
                    if self.workers.iter().all(JoinHandle::is_finished) {
                        return None;
                    }
                }
                // All shard senders dropped with results missing: jobs
                // died with their workers.
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        let outs: Option<Vec<ShardData>> = outs.into_iter().collect();
        let outs = outs?;
        let framed = stitch(&outs, data.len(), format);
        for o in outs {
            self.pool.release(o.bytes);
        }
        Some(framed)
    }

    fn record_request(&self, bytes_in: usize, bytes_out: usize) {
        let njobs = shard_ranges(bytes_in, self.opts.chunk_size).len();
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.stats.shards.fetch_add(njobs as u64, Ordering::Relaxed);
        self.stats
            .bytes_in
            .fetch_add(bytes_in as u64, Ordering::Relaxed);
        self.stats
            .bytes_out
            .fetch_add(bytes_out as u64, Ordering::Relaxed);
    }

    /// The single-threaded reference: identical sharding and stitching,
    /// run inline. [`compress`](Self::compress) is defined to produce
    /// exactly these bytes.
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`] for an invalid `level`.
    pub fn compress_serial(&self, data: &[u8], level: u32, format: Format) -> Result<Vec<u8>> {
        self.compress_serial_engine(data, level, Engine::Auto, format)
    }

    /// The serial reference with an explicit LZ77 engine — the inline
    /// fallback for [`compress_with`](Self::compress_with) requests must
    /// match the pooled bytes for the *requested* engine.
    fn compress_serial_engine(
        &self,
        data: &[u8],
        level: u32,
        engine: Engine,
        format: Format,
    ) -> Result<Vec<u8>> {
        CompressionLevel::new(level)?;
        let shards = shard_ranges(data.len(), self.opts.chunk_size);
        let njobs = shards.len();
        let mut enc: Option<StreamEncoder> = None;
        let outs: Vec<ShardData> = shards
            .into_iter()
            .enumerate()
            .map(|(seq, chunk)| {
                let dict = chunk.start.saturating_sub(DICT_SIZE)..chunk.start;
                compress_shard(
                    &mut enc,
                    self.pool.acquire(),
                    &data[chunk.clone()],
                    &data[dict],
                    level,
                    engine,
                    format,
                    seq + 1 == njobs,
                )
            })
            .collect();
        let framed = stitch(&outs, data.len(), format);
        for o in outs {
            self.pool.release(o.bytes);
        }
        Ok(framed)
    }

    /// Decompresses `format`-framed `data` through the speculative
    /// parallel inflate path ([`crate::parallel_inflate`]): multi-member
    /// gzip decodes member-per-worker, large single streams decode via
    /// boundary probing + two-stage marker decode, and anything smaller
    /// (or any speculation anomaly) decodes serially. Output is
    /// byte-identical to a serial inflate in every case.
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`] for malformed containers or streams.
    pub fn decompress(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        self.inflater.decompress(data, format)
    }

    /// As [`decompress`](Self::decompress) inside the caller's trace —
    /// decode workers' chunk/member spans land under `ctx.parent_span`
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

    /// The decode-side parallel inflater (for seek-index builds and
    /// random access bound to this engine's counters and pool).
    pub fn inflater(&self) -> &ParallelInflater {
        &self.inflater
    }

    /// Counters for the parallel-decode path.
    pub fn decode_stats(&self) -> &Arc<InflateParStats> {
        self.inflater.stats()
    }
}

impl Drop for ParallelEngine {
    fn drop(&mut self) {
        // Closing the channel ends every worker's `for job in rx` loop.
        drop(self.job_tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
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

/// Worker body: compress shards until the job channel closes, reusing
/// one [`StreamEncoder`] (hash chains, token buffer, scratch space)
/// across every shard this worker ever sees.
///
/// Two failure modes are survived deliberately: an injected
/// `WorkerPanic` kills this worker mid-stream (the thread exits with the
/// job unfinished — the submission side must detect the dying pool), and
/// a genuine panic inside compression is contained to a failed-shard
/// marker so one bad shard poisons neither the channel nor the encoder
/// reused by later shards.
/// Static pool geometry a worker needs to place its shard spans on the
/// modeled timeline.
#[derive(Clone, Copy)]
struct WorkerShape {
    worker_id: u32,
    workers: u64,
    chunk_size: u64,
}

fn worker_loop(
    rx: Receiver<Job>,
    faults: Option<Arc<FaultInjector>>,
    stats: Arc<ParallelStats>,
    sink: TelemetrySink,
    shape: WorkerShape,
    pool: Arc<BufferPool>,
) {
    let mut enc: Option<StreamEncoder> = None;
    for job in rx.iter() {
        if let Some(inj) = &faults {
            if inj.worker_fault(job.request, job.seq as u64) {
                // Injected worker death: drop the job (its result sender
                // goes with it) and exit the thread.
                return;
            }
        }
        let chunk = &job.input[job.chunk.clone()];
        let dict = &job.input[job.dict.clone()];
        let result = catch_unwind(AssertUnwindSafe(|| {
            compress_shard(
                &mut enc,
                pool.acquire(),
                chunk,
                dict,
                job.level,
                job.engine,
                job.format,
                job.is_final,
            )
        }));
        let data = match result {
            Ok(d) => Some(d),
            Err(_) => {
                // The encoder's state is suspect after an unwind; drop it.
                enc = None;
                stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        if data.is_some() {
            stats.worker_shards[shape.worker_id as usize].fetch_add(1, Ordering::Relaxed);
            stats.worker_bytes[shape.worker_id as usize]
                .fetch_add(chunk.len() as u64, Ordering::Relaxed);
            if sink.is_enabled() {
                // Modeled timeline: round-robin waves of full chunks, so
                // shard `seq` starts after `seq / workers` earlier waves
                // each costing `chunk_size / rate` cycles, on modeled
                // unit `seq % workers`. Deterministic in (seq, size)
                // alone — never the actual schedule; the real load
                // balance lives in the per-worker counters instead.
                let wave_cycles = (shape.chunk_size / SHARD_BYTES_PER_CYCLE).max(1);
                let start = (job.seq as u64 / shape.workers) * wave_cycles;
                let dur = (chunk.len() as u64 / SHARD_BYTES_PER_CYCLE).max(1);
                if job.trace_sampled {
                    sink.emit(
                        job.trace_request,
                        job.seq as u32,
                        job.trace_parent,
                        Stage::Shard,
                        (job.seq as u64 % shape.workers) as u32,
                        start,
                        dur,
                        chunk.len() as u64,
                        0,
                    );
                }
                sink.record_shard(dur);
            }
        }
        // A receiver that gave up (fallback path) is not our problem;
        // drop the result.
        let _ = job.done.send(ShardOut { seq: job.seq, data });
    }
}

/// Compresses one shard into `buf` (a pooled buffer the caller releases
/// after stitching), reusing `enc` when the level matches.
#[allow(clippy::too_many_arguments)]
fn compress_shard(
    enc: &mut Option<StreamEncoder>,
    mut buf: Vec<u8>,
    chunk: &[u8],
    dict: &[u8],
    level: u32,
    engine: Engine,
    format: Format,
    is_final: bool,
) -> ShardData {
    let lvl = CompressionLevel::new(level).expect("validated at submission");
    let enc = match enc {
        Some(e) if e.level() == lvl && e.engine() == engine => {
            e.reset_with_dict(dict);
            e
        }
        slot => slot.insert(StreamEncoder::with_dict_engine(lvl, dict, engine)),
    };
    let flush = if is_final { Flush::Finish } else { Flush::Sync };
    buf.clear();
    enc.write_into(chunk, flush, &mut buf);
    let bytes = buf;
    ShardData {
        bytes,
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

/// Concatenates ordered shards and wraps them in the container, folding
/// the per-shard checksums into the trailer value.
fn stitch(outs: &[ShardData], total_len: usize, format: Format) -> Vec<u8> {
    let body_len: usize = outs.iter().map(|o| o.bytes.len()).sum();
    let mut raw = Vec::with_capacity(body_len);
    for o in outs {
        raw.extend_from_slice(&o.bytes);
    }
    match format {
        Format::RawDeflate => raw,
        Format::Gzip => {
            let crc = outs
                .iter()
                .fold(0u32, |acc, o| crc32_combine(acc, o.crc, o.len));
            gzip::wrap_deflate(&raw, crc, total_len as u64)
        }
        Format::Zlib => {
            let adler = outs
                .iter()
                .fold(1u32, |acc, o| adler32_combine(acc, o.adler, o.len));
            zlib::wrap_deflate(&raw, adler)
        }
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
        mut opts: ParallelOptions,
        level: u32,
        engine_sel: Engine,
        canned: Option<CompressOptions>,
    ) -> Self {
        opts.workers = opts.workers.max(1);
        let engine = ParallelEngine::spawn_with_decode(
            opts,
            nx.fault_injector().cloned(),
            nx.telemetry().clone(),
            Arc::clone(nx.buffer_pool()),
            Some(Arc::clone(nx.decode_parallel_stats())),
        );
        Self {
            engine,
            nx: nx.clone(),
            level,
            engine_sel,
            canned,
        }
    }

    /// The pool configuration.
    pub fn options(&self) -> &ParallelOptions {
        &self.engine.opts
    }

    /// Per-engine counters (shards, bytes).
    pub fn engine_stats(&self) -> &ParallelStats {
        self.engine.stats()
    }

    /// Compresses `data` into `format` framing across the pool.
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
        let out = self
            .engine
            .compress_traced(data, self.level, self.engine_sel, format, None)?;
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

    fn engine(workers: usize, chunk: usize) -> ParallelEngine {
        ParallelEngine::new(ParallelOptions {
            workers,
            chunk_size: chunk,
        })
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
        let data = corpus(200 * 1024);
        let e = engine(4, 24 * 1024);
        for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
            assert_eq!(
                e.compress(&data, 6, format).unwrap(),
                e.compress_serial(&data, 6, format).unwrap(),
                "{format:?}"
            );
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
    fn zero_workers_rejected_by_try_new() {
        let opts = ParallelOptions {
            workers: 0,
            chunk_size: 64 * 1024,
        };
        assert!(matches!(
            ParallelEngine::try_new(opts.clone()),
            Err(Error::NoWorkers)
        ));
        // The legacy constructor still rounds up.
        assert_eq!(ParallelEngine::new(opts).options().workers, 1);
    }

    #[test]
    fn injected_worker_death_falls_back_to_serial() {
        use crate::fault::{FaultKind, FaultPlan, RecoveryPolicy, Scripted, Site};
        // Kill every worker on its first shard of request 0: the pool is
        // dead mid-request and the engine must still produce the exact
        // serial bytes instead of hanging.
        let script: Vec<Scripted> = (0..16)
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
        let e = ParallelEngine::with_faults(
            ParallelOptions {
                workers: 2,
                chunk_size: 16 * 1024,
            },
            Arc::clone(&inj),
        );
        let data = corpus(120 * 1024);
        let out = e.compress(&data, 6, Format::Gzip).unwrap();
        assert_eq!(out, e.compress_serial(&data, 6, Format::Gzip).unwrap());
        assert_eq!(e.stats().serial_fallbacks(), 1);
        assert!(inj.stats().worker_panic_count() >= 1);
        assert_eq!(inj.stats().serial_fallback_count(), 1);
        // The pool is gone, but later requests still complete serially.
        let out2 = e.compress(&data, 6, Format::Zlib).unwrap();
        assert_eq!(out2, e.compress_serial(&data, 6, Format::Zlib).unwrap());
        assert_eq!(e.stats().serial_fallbacks(), 2);
    }

    #[test]
    fn backpressure_many_shards_through_a_tiny_pool() {
        // Far more shards than queue slots (workers*2 = 2): submission
        // must interleave with collection, never deadlock, and output
        // must stay byte-identical.
        let data = corpus(256 * 1024);
        let e = engine(1, 4 * 1024); // 64 shards, 2 queue slots
        let out = e.compress(&data, 6, Format::Gzip).unwrap();
        assert_eq!(out, e.compress_serial(&data, 6, Format::Gzip).unwrap());
        assert_eq!(e.decompress(&out, Format::Gzip).unwrap(), data);
        assert_eq!(e.stats().serial_fallbacks(), 0);
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
