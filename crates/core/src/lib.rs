#![warn(missing_docs)]

//! `nx-core` — the user-facing library of the `nxsim` stack: a modeled
//! IBM POWER9/z15 on-chip compression accelerator behind the API a
//! downstream application would actually adopt.
//!
//! * [`Nx`] is an accelerator handle: synchronous compress/decompress in
//!   raw-DEFLATE, gzip or zlib [`Format`]s, 842 for memory-compression
//!   use cases, per-request [cycle reports](nx_accel::CompressReport) and
//!   aggregate [`NxStats`].
//! * [`AsyncSession`] queues jobs to a background engine thread —
//!   mirroring the asynchronous paste/CSB usage model on POWER9 — and
//!   hands back [`JobHandle`]s to wait on.
//! * [`parallel`] shards one stream across a worker pool (pigz-style)
//!   while still emitting a single valid gzip/zlib/raw stream, with the
//!   trailer checksum folded from per-shard values.
//! * [`software`] exposes the zlib-level software path for baselines and
//!   fallback.
//!
//! ```
//! use nx_core::{Format, Nx};
//!
//! # fn main() -> Result<(), nx_core::Error> {
//! let nx = Nx::power9();
//! let data = b"hello hello hello hello".repeat(20);
//! let gz = nx.compress(&data, Format::Gzip)?;
//! assert!(gz.bytes.len() < data.len());
//! let back = nx.decompress(&gz.bytes, Format::Gzip)?;
//! assert_eq!(back.bytes, data);
//! # Ok(())
//! # }
//! ```

pub mod async_queue;
mod exec;
pub mod fault;
pub mod framing;
pub mod parallel;
pub mod parallel_inflate;
pub mod profiles;
pub mod scratch;
pub mod service;
pub mod software;
pub mod stats;
pub mod stream;

pub use async_queue::{AsyncSession, JobHandle};
pub use fault::{FaultInjector, FaultPlan, FaultRates, RecoveryPolicy};
pub use framing::Format;
pub use parallel::{ParallelEngine, ParallelOptions, ParallelSession};
pub use parallel_inflate::{
    InflateParStats, ParallelInflateOptions, ParallelInflater, SeekCheckpoint, SeekIndex,
};
pub use scratch::{
    BufferPool, EncodePathMetrics, InflatePathMetrics, ProfileMetrics, ScratchSession,
};
pub use service::{
    jain_index, NxService, QosClass, Rejected, ServiceConfig, ServiceError, TenantHandle,
    TenantSpec,
};
pub use stats::{Codec, CodecStats, DirStats, NxStats, RecoveryWatermark};
pub use stream::GzipStream;

// The canned-profile vocabulary callers need to drive
// [`CompressOptions::with_profile`] and [`Nx::with_profiles`].
pub use nx_deflate::{Profile, ProfileCounters, ProfileId, ProfileRegistry};

use exec::{Env, Executor};
use nx_accel::{AccelConfig, CompressReport, DecompressReport};
use nx_telemetry::{MetricSource, Stage, TelemetrySink, TraceContext};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Modeled CRB-build + VAS-paste cost stamped on `submit` spans (cycles).
/// The paper's queue submission is sub-microsecond; ~0.5 µs at the nest
/// clock.
pub(crate) const SUBMIT_CYCLES: u64 = 1200;

/// Modeled CSB-poll + completion-notification cost on `complete` spans.
pub(crate) const COMPLETE_CYCLES: u64 = 400;

/// Modeled cost of touching one faulted page before resubmission
/// (mirrors `nx_sys::erat`'s 150 ns per touch at 2.5 GHz).
pub(crate) const TOUCH_CYCLES_PER_PAGE: u64 = 375;

/// Request-local span emission: a cursor over one request's private
/// cycle timeline. Timelines start at cycle 0 for every request — the
/// property that keeps trace dumps byte-identical across runs no matter
/// how threads interleave.
///
/// A trace is either a **root** ([`Trace::begin`]: fresh trace id,
/// sampling decided by the sink's [`nx_telemetry::Sampler`]) or a
/// **continuation** ([`Trace::begin_in`]: the caller's [`TraceContext`]
/// supplies the trace id, the parent span, the first free span index and
/// the cycle cursor — how the service's admission spans and the engine's
/// execution spans land on one shared timeline). Unsampled traces skip
/// the span ring but still advance seq/cursor, so the deterministic
/// latency arithmetic is identical with sampling on or off.
pub(crate) struct Trace<'a> {
    sink: &'a TelemetrySink,
    request: u64,
    seq: u32,
    parent: u32,
    cursor: u64,
    active: bool,
}

impl<'a> Trace<'a> {
    pub(crate) fn begin(sink: &'a TelemetrySink) -> Self {
        if !sink.is_enabled() {
            return Self {
                sink,
                request: 0,
                seq: 0,
                parent: 0,
                cursor: 0,
                active: false,
            };
        }
        let ctx = sink.begin_trace();
        Self::begin_in(sink, &ctx)
    }

    /// A continuation of the caller's trace (see type docs).
    pub(crate) fn begin_in(sink: &'a TelemetrySink, ctx: &TraceContext) -> Self {
        Self {
            sink,
            request: ctx.trace_id,
            seq: ctx.child_seq,
            parent: ctx.parent_span,
            cursor: ctx.at_cycles,
            active: ctx.sampled && sink.is_enabled(),
        }
    }

    /// The continuation point after the spans emitted so far: what a
    /// stage hands the next one so both land on one timeline.
    pub(crate) fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.request,
            parent_span: self.parent,
            sampled: self.active,
            child_seq: self.seq,
            at_cycles: self.cursor,
        }
    }

    /// Emits a span at the cursor and advances it by `dur` cycles.
    pub(crate) fn span(&mut self, stage: Stage, dur: u64, bytes: u64, detail: u64) {
        if self.active {
            self.sink.emit(
                self.request,
                self.seq,
                self.parent,
                stage,
                0,
                self.cursor,
                dur,
                bytes,
                detail,
            );
        }
        self.seq += 1;
        self.cursor += dur;
    }

    /// Closes the timeline: a `complete` span plus the request-latency
    /// and bytes histograms (the latency bucket keeps this trace id as
    /// its exemplar when the trace is sampled).
    pub(crate) fn finish(&mut self, bytes: u64) {
        self.span(Stage::Complete, COMPLETE_CYCLES, bytes, 0);
        if self.active {
            self.sink
                .record_request_traced(self.cursor, bytes, self.request);
        } else {
            self.sink.record_request(self.cursor, bytes);
        }
    }
}

/// Errors surfaced by the facade.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The DEFLATE/gzip/zlib payload was malformed.
    Deflate(nx_deflate::Error),
    /// The 842 payload was malformed.
    P842(nx_842::Error),
    /// The async engine was shut down before the job completed.
    EngineClosed,
    /// The accelerator is unavailable and software fallback is disabled.
    AcceleratorUnavailable,
    /// No CSB arrived within the deadline on any of `attempts` tries.
    SubmissionTimeout {
        /// Submission attempts made before giving up.
        attempts: u32,
    },
    /// The submission queue stayed full (async: [`AsyncSession::try_submit`]
    /// found no room; sync: every retry was rejected).
    QueueOverflow,
    /// The engine's output failed its integrity check on every one of
    /// `attempts` tries.
    CorruptedOutput {
        /// Submission attempts made before giving up.
        attempts: u32,
    },
    /// A parallel engine was requested with zero workers.
    NoWorkers,
    /// A serialized [`SeekIndex`] was malformed, or an index disagreed
    /// with the stream it was applied to.
    InvalidSeekIndex,
    /// A random-access offset lay beyond the end of the indexed stream.
    SeekOutOfRange,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Deflate(e) => write!(f, "deflate error: {e}"),
            Error::P842(e) => write!(f, "842 error: {e}"),
            Error::EngineClosed => write!(f, "accelerator engine closed"),
            Error::AcceleratorUnavailable => write!(f, "accelerator unavailable"),
            Error::SubmissionTimeout { attempts } => {
                write!(f, "no CSB completion after {attempts} submission attempts")
            }
            Error::QueueOverflow => write!(f, "submission queue full"),
            Error::CorruptedOutput { attempts } => {
                write!(f, "output failed integrity check on {attempts} attempts")
            }
            Error::NoWorkers => write!(f, "parallel engine needs at least one worker"),
            Error::InvalidSeekIndex => {
                write!(f, "seek index malformed or inconsistent with stream")
            }
            Error::SeekOutOfRange => write!(f, "seek offset beyond end of indexed stream"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Deflate(e) => Some(e),
            Error::P842(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nx_deflate::Error> for Error {
    fn from(e: nx_deflate::Error) -> Self {
        Error::Deflate(e)
    }
}

impl From<nx_842::Error> for Error {
    fn from(e: nx_842::Error) -> Self {
        Error::P842(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Per-request compression knobs threaded through the facade: the effort
/// rung on the software encoder's level ladder, the LZ77 engine, and an
/// optional canned [`ProfileId`] selecting the one-pass encode path.
///
/// The modeled accelerator is fixed-function — it has no level knob, just
/// like the NX unit — so options only steer the *software* paths: the
/// direct software encoder ([`Nx::compress_with`]), the parallel shard
/// engine ([`Nx::parallel_session_with`]), scratch sessions, the async
/// queue ([`AsyncSession::submit_with`]) and the service tier
/// ([`TenantHandle::submit_with`]).
///
/// ```
/// use nx_core::CompressOptions;
/// use nx_deflate::Level;
///
/// let fast = CompressOptions::from_level(Level::Fastest);
/// assert_eq!(fast.level().get(), 1);
/// assert_eq!(CompressOptions::default().ladder(), Level::Default);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompressOptions {
    level: nx_deflate::CompressionLevel,
    engine: nx_deflate::Engine,
    profile: Option<nx_deflate::ProfileId>,
}

impl CompressOptions {
    /// Options at the default level (zlib's 6).
    pub fn new() -> Self {
        Self::default()
    }

    /// Options at a ladder rung ([`nx_deflate::Level`]).
    pub fn from_level(level: nx_deflate::Level) -> Self {
        Self {
            level: level.into(),
            ..Self::default()
        }
    }

    /// Options at a numeric zlib-style level (0..=9).
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`] if `level > 9`.
    pub fn from_numeric(level: u32) -> Result<Self> {
        Ok(Self {
            level: nx_deflate::CompressionLevel::new(level)?,
            ..Self::default()
        })
    }

    /// Forces an LZ77 [`nx_deflate::Engine`] for the software paths:
    /// `Speculative` runs the NX-style batched matcher at every rung,
    /// `Sequential` the classic greedy/lazy ladder; the default `Auto`
    /// routes levels 1–3 through the batch engine. Non-default engines
    /// make the options accelerator-ineligible, like non-default levels.
    pub fn with_engine(mut self, engine: nx_deflate::Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The LZ77 engine selection in force.
    pub fn engine(&self) -> nx_deflate::Engine {
        self.engine
    }

    /// Selects a canned profile from the handle's
    /// [`ProfileRegistry`] (see [`Nx::with_profiles`] and
    /// [`profiles::default_registry`]): the request compresses through the
    /// one-pass canned path — preset dictionary plus pre-fused Huffman
    /// tables — instead of the per-block dynamic pipeline. Like a
    /// non-default level, a profile makes the options
    /// accelerator-ineligible: the canned encode runs on the software
    /// path. An id absent from the registry is counted as a profile miss
    /// and degrades to the level ladder.
    pub fn with_profile(mut self, id: nx_deflate::ProfileId) -> Self {
        self.profile = Some(id);
        self
    }

    /// The canned profile selection in force, if any.
    pub fn profile(&self) -> Option<nx_deflate::ProfileId> {
        self.profile
    }

    /// The exact numeric compression level in force.
    pub fn level(&self) -> nx_deflate::CompressionLevel {
        self.level
    }

    /// The ladder rung the numeric level falls on.
    pub fn ladder(&self) -> nx_deflate::Level {
        nx_deflate::Level::from_numeric(self.level.get())
    }

    /// Whether these are the default options (accelerator-eligible: the
    /// async queue only degrades to the software encoder for jobs that
    /// ask for a non-default level).
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }
}

/// A compression result: the produced bytes plus the engine's cycle
/// report.
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The framed output.
    pub bytes: Vec<u8>,
    /// The engine's cycle accounting for this request.
    pub report: CompressReport,
}

/// A decompression result.
#[derive(Debug, Clone)]
pub struct Decompressed {
    /// The recovered payload.
    pub bytes: Vec<u8>,
    /// The engine's cycle accounting for this request.
    pub report: DecompressReport,
}

/// A handle to one modeled accelerator unit.
///
/// Cloning shares the handle's statistics, buffer pool and idle
/// executors, like multiple threads sharing one NX unit through their VAS
/// windows. Requests on clones never serialize on one another: each runs
/// on an executor (with its own engine model) checked out for the call.
#[derive(Debug, Clone)]
pub struct Nx {
    env: Env,
    /// Idle executors: a synchronous request pops one (or builds one),
    /// runs, and pushes it back — the lock is held for the pop and the
    /// push only, never across a request.
    idle: Arc<Mutex<Vec<Executor>>>,
    pool: Arc<scratch::BufferPool>,
    decode_stats: Arc<InflateParStats>,
    /// The inflater behind `build_index` / `decompress_at`, made once: it
    /// keeps the warm read state, and its default worker count is a syscall.
    seeker: Arc<std::sync::OnceLock<ParallelInflater>>,
}

impl Nx {
    /// Creates a handle with an explicit configuration.
    pub fn new(config: AccelConfig) -> Self {
        Self {
            env: Env {
                config,
                stats: Arc::new(NxStats::new()),
                telemetry: TelemetrySink::disabled(),
                faults: None,
                profiles: None,
                opts: CompressOptions::default(),
            },
            idle: Arc::default(),
            pool: Arc::new(scratch::BufferPool::default()),
            decode_stats: Arc::new(InflateParStats::default()),
            seeker: Arc::default(),
        }
    }

    /// Creates a handle whose submissions run under fault injection:
    /// every compress/decompress — synchronous, queued or served — goes
    /// through the recovery protocol (resubmit-from-offset with optional
    /// touch-ahead, capped exponential backoff, integrity re-check,
    /// software fallback) against the faults `plan` injects.
    ///
    /// With [`FaultPlan::none`] the handle behaves identically to
    /// [`Nx::new`] modulo the (cheap) injection checks — the E18
    /// experiment holds that overhead under 5%.
    pub fn with_faults(config: AccelConfig, plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        Self::new(config).reconfigured(|env| {
            env.faults = Some(Arc::new(FaultInjector::new(plan, policy)));
        })
    }

    /// Applies a configuration change. Executors carry a copy of the
    /// handle's context, so the reconfigured handle starts an idle list
    /// of its own rather than inheriting ones built for the old context.
    fn reconfigured(mut self, change: impl FnOnce(&mut Env)) -> Self {
        change(&mut self.env);
        self.idle = Arc::default();
        self.seeker = Arc::default();
        self
    }

    /// Sets the handle's default [`CompressOptions`]: the level the
    /// software paths (fallback encoder, [`Nx::compress_with`] at
    /// defaulted options, sessions opened without an explicit level)
    /// compress at. The modeled accelerator itself is fixed-function and
    /// unaffected, exactly like the hardware.
    pub fn with_options(self, opts: CompressOptions) -> Self {
        self.reconfigured(|env| env.opts = opts)
    }

    /// Attaches a canned-profile registry — typically deserialized at
    /// service startup from [`ProfileRegistry::from_bytes`], or trained
    /// with [`profiles::train_registry`]. Requests whose
    /// [`CompressOptions::profile`] names a slot in this registry take
    /// the one-pass canned encode path; without an explicit registry the
    /// lazily trained [`profiles::default_registry`] serves lookups.
    pub fn with_profiles(self, registry: Arc<ProfileRegistry>) -> Self {
        self.reconfigured(|env| env.profiles = Some(registry))
    }

    /// The canned-profile registry in force (the process-wide default
    /// unless [`with_profiles`](Self::with_profiles) attached one).
    pub fn profile_registry(&self) -> &ProfileRegistry {
        self.env.registry()
    }

    /// Attaches a telemetry sink: every request stage emits a span, the
    /// core latency/size histograms record, and this handle's [`NxStats`]
    /// (plus fault stats, when faulted) register as pull sources on the
    /// sink's registry. Sessions opened afterwards inherit the sink.
    ///
    /// A [`TelemetrySink::disabled`] sink (the default) reduces every
    /// instrumentation point to a null check — E19 holds the enabled
    /// overhead under 5%.
    pub fn with_telemetry(self, sink: TelemetrySink) -> Self {
        if let Some(reg) = sink.registry() {
            reg.register_source(
                "nx-stats",
                Arc::clone(&self.env.stats) as Arc<dyn MetricSource>,
            );
            reg.register_source(
                "nx-buffer-pool",
                Arc::clone(&self.pool) as Arc<dyn MetricSource>,
            );
            reg.register_source(
                "nx-inflate-paths",
                Arc::new(scratch::InflatePathMetrics) as Arc<dyn MetricSource>,
            );
            reg.register_source(
                "nx-encode-paths",
                Arc::new(scratch::EncodePathMetrics) as Arc<dyn MetricSource>,
            );
            reg.register_source(
                "nx-decode-parallel",
                Arc::clone(&self.decode_stats) as Arc<dyn MetricSource>,
            );
            reg.register_source(
                "nx-profiles",
                Arc::new(scratch::ProfileMetrics) as Arc<dyn MetricSource>,
            );
            if let Some(inj) = &self.env.faults {
                reg.register_source("nx-fault-stats", Arc::clone(inj) as Arc<dyn MetricSource>);
            }
        }
        self.reconfigured(|env| env.telemetry = sink)
    }

    /// The telemetry sink in force (disabled unless
    /// [`with_telemetry`](Self::with_telemetry) attached one).
    pub fn telemetry(&self) -> &TelemetrySink {
        &self.env.telemetry
    }

    /// The fault injector, if this handle was built with one.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.env.faults.as_ref()
    }

    /// Injection/recovery counters, if this handle was built with a
    /// fault injector.
    pub fn fault_stats(&self) -> Option<&fault::FaultStats> {
        self.env.faults.as_deref().map(FaultInjector::stats)
    }

    /// A POWER9 NX gzip accelerator.
    pub fn power9() -> Self {
        Self::new(AccelConfig::power9())
    }

    /// A z15 zEDC accelerator.
    pub fn z15() -> Self {
        Self::new(AccelConfig::z15())
    }

    /// The configuration in force.
    pub fn config(&self) -> &AccelConfig {
        &self.env.config
    }

    /// The handle's default compression options.
    pub fn options(&self) -> CompressOptions {
        self.env.opts
    }

    /// Aggregate statistics across all requests on this handle.
    pub fn stats(&self) -> &NxStats {
        &self.env.stats
    }

    /// A fresh executor bound to this handle's context — what the async
    /// worker and the service engine thread each own for their lifetime.
    pub(crate) fn executor(&self) -> Executor {
        Executor::new(self.env.clone())
    }

    /// Runs `request` on an idle executor (building one when every
    /// executor is busy) and returns the executor to the idle list.
    fn on_executor<R>(&self, request: impl FnOnce(&mut Executor) -> R) -> R {
        let idle = self.idle.lock().pop();
        let mut exec = idle.unwrap_or_else(|| self.executor());
        let result = request(&mut exec);
        self.idle.lock().push(exec);
        result
    }

    /// Compresses `data` into `format` framing on the accelerator.
    ///
    /// # Errors
    ///
    /// As [`compress_with`](Self::compress_with).
    pub fn compress(&self, data: &[u8], format: Format) -> Result<Compressed> {
        self.compress_with(data, format, CompressOptions::default())
    }

    /// Compresses `data` with explicit per-request options. Default
    /// options go to the accelerator (which has no level knob, like the
    /// hardware); any other rung runs the software level ladder and a
    /// selected profile the canned encoder, both reported with zero
    /// engine cycles.
    ///
    /// # Errors
    ///
    /// Never fails on a clean handle. Under fault injection with software
    /// fallback disabled: the recovery-exhaustion errors
    /// ([`Error::AcceleratorUnavailable`], [`Error::SubmissionTimeout`],
    /// [`Error::QueueOverflow`], [`Error::CorruptedOutput`]).
    pub fn compress_with(
        &self,
        data: &[u8],
        format: Format,
        opts: CompressOptions,
    ) -> Result<Compressed> {
        let mut bytes = Vec::new();
        let report =
            self.on_executor(|exec| exec.compress_into(data, format, opts, None, &mut bytes))?;
        Ok(Compressed { bytes, report })
    }

    /// Decompresses `format`-framed `data` on the accelerator.
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`] if the container or stream is malformed; under
    /// fault injection additionally the recovery-exhaustion errors (see
    /// [`compress_with`](Self::compress_with)) when software fallback is
    /// disabled.
    pub fn decompress(&self, data: &[u8], format: Format) -> Result<Decompressed> {
        let mut bytes = Vec::new();
        let opts = self.env.opts;
        let report =
            self.on_executor(|exec| exec.decompress_into(data, format, opts, None, &mut bytes))?;
        Ok(Decompressed { bytes, report })
    }

    /// Compresses with the 842 memory-compression engine. Cycles are
    /// priced by the 842 engine model (`nx_842::model`) from the
    /// encoder's op mix, so mixed 842/DEFLATE workloads report real
    /// throughput for both engines.
    pub fn compress_842(&self, data: &[u8]) -> Vec<u8> {
        let mut trace = Trace::begin(&self.env.telemetry);
        trace.span(Stage::Submit, SUBMIT_CYCLES, data.len() as u64, 0);
        let (out, enc_stats) = nx_842::compress_with_stats(data);
        let report = nx_842::model::compress_cycles(
            &nx_842::model::EngineConfig::power9(),
            &enc_stats,
            data.len() as u64,
        );
        self.env.stats.record_compress(
            Codec::P842,
            data.len() as u64,
            out.len() as u64,
            report.cycles,
        );
        trace.span(Stage::Engine, report.cycles, data.len() as u64, 0);
        trace.finish(out.len() as u64);
        out
    }

    /// Decompresses an 842 stream. Cycles come from the 842 engine
    /// model's decode path (one template per cycle through the copy
    /// network, runs bursting on the fast path).
    ///
    /// # Errors
    ///
    /// [`Error::P842`] if the stream is malformed.
    pub fn decompress_842(&self, data: &[u8]) -> Result<Vec<u8>> {
        let mut trace = Trace::begin(&self.env.telemetry);
        trace.span(Stage::Submit, SUBMIT_CYCLES, data.len() as u64, 0);
        let out = nx_842::decompress(data)?;
        // The decoder doesn't report its op mix; price the request as
        // all-template chunks (the conservative path — runs only go
        // faster), which is exact for template-only streams.
        let dec_stats = nx_842::CompressStats {
            chunks: (out.len() as u64).div_ceil(8),
            output_bytes: data.len() as u64,
            ..nx_842::CompressStats::default()
        };
        let report = nx_842::model::decompress_cycles(
            &nx_842::model::EngineConfig::power9(),
            &dec_stats,
            out.len() as u64,
        );
        self.env.stats.record_decompress(
            Codec::P842,
            data.len() as u64,
            out.len() as u64,
            report.cycles,
        );
        trace.span(Stage::Engine, report.cycles, data.len() as u64, 0);
        trace.finish(out.len() as u64);
        Ok(out)
    }

    /// Opens an asynchronous session: jobs are queued to a dedicated
    /// engine thread, as with POWER9's asynchronous CRB submission.
    pub fn async_session(&self) -> AsyncSession {
        AsyncSession::spawn(self.executor(), Arc::clone(&self.pool), None)
    }

    /// Opens an asynchronous session whose queue holds at most `depth`
    /// outstanding jobs — the VAS window credit limit in API form.
    /// [`AsyncSession::try_submit`] surfaces a full queue as
    /// [`Error::QueueOverflow`].
    pub fn async_session_bounded(&self, depth: usize) -> AsyncSession {
        AsyncSession::spawn(self.executor(), Arc::clone(&self.pool), Some(depth))
    }

    /// Opens a sharded parallel compression session at `level`: one
    /// request fans out across a pool of workers (modeling multiple
    /// accelerator units sharing a stream) and the traffic is recorded
    /// in this handle's [`NxStats`]. See [`parallel`] for the stream
    /// construction.
    pub fn parallel_session(&self, opts: parallel::ParallelOptions, level: u32) -> ParallelSession {
        ParallelSession::new(self, opts, level, nx_deflate::Engine::Auto, None)
    }

    /// As [`parallel_session`](Self::parallel_session) but taking the
    /// level, engine and optional canned profile from
    /// [`CompressOptions`], so ladder rungs ([`nx_deflate::Level`])
    /// thread into the shard engine unchanged. A selected profile applies
    /// to single-shard (small) payloads — the traffic canned profiles
    /// target — through the one-pass canned path; inputs spanning
    /// multiple shards run the regular sharded ladder.
    pub fn parallel_session_with(
        &self,
        opts: parallel::ParallelOptions,
        copts: CompressOptions,
    ) -> ParallelSession {
        // Resolved once, here: a hit routes single-shard payloads through
        // the executor's canned backend; a miss is counted and the session
        // is a plain sharded ladder.
        let hit = matches!(
            exec::Software::select(copts, &self.env),
            exec::Software::Canned { .. }
        );
        ParallelSession::new(
            self,
            opts,
            copts.level().get(),
            copts.engine(),
            hit.then_some(copts),
        )
    }

    /// The buffer pool shared by this handle's sessions (scratch, async,
    /// parallel). Exposed so callers can acquire/release recycled buffers
    /// directly and read the pool counters.
    pub fn buffer_pool(&self) -> &Arc<scratch::BufferPool> {
        &self.pool
    }

    /// The parallel-decode counters shared by this handle and every
    /// [`ParallelSession`] it opens (telemetry source
    /// `nx-decode-parallel`).
    pub fn decode_parallel_stats(&self) -> &Arc<InflateParStats> {
        &self.decode_stats
    }

    /// A parallel inflater bound to this handle's counters and fault
    /// injector. Construction is cheap — workers are scoped threads
    /// spawned per request.
    fn decode_inflater(&self, opts: ParallelInflateOptions) -> ParallelInflater {
        ParallelInflater::with_parts(
            opts,
            Arc::clone(&self.decode_stats),
            self.env.faults.clone(),
            self.env.telemetry.clone(),
        )
    }

    /// Like [`Nx::decompress_parallel`] but with explicit decode options
    /// (worker count, checkpoint spacing) instead of the host-derived
    /// defaults.
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`] for malformed streams — exactly as the serial
    /// decoder reports them.
    pub fn decompress_parallel_with(
        &self,
        data: &[u8],
        format: Format,
        opts: ParallelInflateOptions,
    ) -> Result<Vec<u8>> {
        let out = self.decode_inflater(opts).decompress(data, format)?;
        self.env
            .stats
            .record_decompress(Codec::Deflate, data.len() as u64, out.len() as u64, 0);
        Ok(out)
    }

    /// Decompresses `data` through the parallel inflate path, recording the
    /// traffic in this handle's [`NxStats`]: a multi-member gzip decodes
    /// member-per-worker, and any other stream (a single member, zlib, raw)
    /// decodes serially, since without an index its split points are
    /// unknown. Output is byte-identical to a serial inflate.
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`] for malformed streams — exactly as the serial
    /// decoder reports them.
    pub fn decompress_parallel(&self, data: &[u8], format: Format) -> Result<Vec<u8>> {
        self.decompress_parallel_with(data, format, ParallelInflateOptions::default())
    }

    fn seeker(&self) -> &ParallelInflater {
        let fresh = || self.decode_inflater(ParallelInflateOptions::default());
        self.seeker.get_or_init(fresh)
    }

    /// Builds a random-access [`SeekIndex`] over `data`: one
    /// checkpoint-recording decode, member-parallel for multi-member gzip.
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`] for malformed streams.
    pub fn build_index(&self, data: &[u8], format: Format) -> Result<SeekIndex> {
        self.seeker().build_index(data, format)
    }

    /// Random-accesses `[offset, offset + len)` of the stream indexed by
    /// `index` without decoding the prefix: decode restarts at the
    /// nearest preceding checkpoint, from the window bytes it kept, and
    /// stops just past the range. `len` is clamped at end of stream.
    ///
    /// # Errors
    ///
    /// [`Error::SeekOutOfRange`] past the end, [`Error::InvalidSeekIndex`]
    /// for an index inconsistent with `data`, [`Error::Deflate`] for
    /// malformed blocks in the decoded span.
    pub fn decompress_at(
        &self,
        data: &[u8],
        index: &SeekIndex,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>> {
        self.seeker().decompress_at(data, index, offset, len)
    }

    /// Opens a zero-allocation scratch session at `level`: a persistent
    /// encoder + decoder scratch bound to this handle's stats, telemetry
    /// and buffer pool. See [`scratch::ScratchSession`].
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`] for an invalid `level`.
    pub fn scratch_session(&self, level: u32) -> Result<ScratchSession> {
        Ok(self.scratch_session_with(CompressOptions::from_numeric(level)?))
    }

    /// As [`scratch_session`](Self::scratch_session) but taking the
    /// level, engine and optional canned profile from
    /// [`CompressOptions`]. With a profile the session compresses through
    /// the one-pass canned path (dictionary-framed for zlib, canned
    /// tables only for gzip) and its `decompress_into` transparently
    /// supplies the profile dictionary to zlib FDICT streams.
    pub fn scratch_session_with(&self, opts: CompressOptions) -> ScratchSession {
        ScratchSession::new(
            Executor::session(self.env.clone(), opts),
            opts,
            Arc::clone(&self.pool),
        )
    }

    /// Compresses with an explicit target-buffer capacity, reproducing the
    /// CSB **target space exhausted** protocol: if the output would
    /// overflow the target DDE, the engine aborts partway, the library
    /// doubles the buffer and resubmits. Each aborted attempt costs engine
    /// cycles proportional to the fraction of output it produced before
    /// running out of space; the returned report's `cycles` include all
    /// attempts.
    ///
    /// # Errors
    ///
    /// As [`compress`](Self::compress).
    ///
    /// # Panics
    ///
    /// Panics if `target_capacity == 0`.
    pub fn compress_bounded(
        &self,
        data: &[u8],
        format: Format,
        target_capacity: usize,
    ) -> Result<BoundedOutcome> {
        assert!(target_capacity > 0, "target buffer must be non-empty");
        let mut compressed = self.compress(data, format)?;
        let needed = compressed.bytes.len();
        let mut capacity = target_capacity;
        let mut attempts = 1u32;
        let full_cycles = compressed.report.cycles;
        while capacity < needed {
            // The aborted attempt ran until the target filled.
            let fraction = capacity as f64 / needed as f64;
            compressed.report.cycles += (full_cycles as f64 * fraction) as u64;
            attempts += 1;
            capacity = capacity.saturating_mul(2);
        }
        Ok(BoundedOutcome {
            compressed,
            attempts,
            final_capacity: capacity,
        })
    }
}

/// Result of [`Nx::compress_bounded`].
#[derive(Debug, Clone)]
pub struct BoundedOutcome {
    /// The final (successful) compression, with cycles accumulated across
    /// every attempt.
    pub compressed: Compressed,
    /// Submission attempts (1 = no target-exhausted retries).
    pub attempts: u32,
    /// Target-buffer capacity of the successful attempt.
    pub final_capacity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_with_honors_the_level_ladder() {
        let nx = Nx::power9();
        let data = nx_corpus::CorpusKind::Text.generate(7, 128 * 1024);
        for rung in nx_deflate::Level::all() {
            let opts = CompressOptions::from_level(rung);
            let c = nx.compress_with(&data, Format::Zlib, opts).unwrap();
            let d = nx.decompress(&c.bytes, Format::Zlib).unwrap();
            assert_eq!(d.bytes, data, "level {rung}");
            if !opts.is_default() {
                assert_eq!(c.report.cycles, 0, "level {rung} should run in software");
            }
        }
        // Default options route to the accelerator (engine cycles > 0).
        let c = nx
            .compress_with(&data, Format::Zlib, CompressOptions::default())
            .unwrap();
        assert!(c.report.cycles > 0);
    }

    #[test]
    fn with_options_sets_the_software_level() {
        let opts = CompressOptions::from_level(nx_deflate::Level::Fastest);
        let nx = Nx::power9().with_options(opts);
        assert_eq!(nx.options(), opts);
        assert_eq!(nx.options().ladder(), nx_deflate::Level::Fastest);
        assert!(!opts.is_default());
        assert!(CompressOptions::from_numeric(10).is_err());
        assert_eq!(
            CompressOptions::from_numeric(6).unwrap(),
            CompressOptions::default()
        );
    }

    #[test]
    fn parallel_session_with_runs_the_ladder() {
        let nx = Nx::power9();
        let data = nx_corpus::CorpusKind::Logs.generate(3, 256 * 1024);
        let opts = CompressOptions::from_level(nx_deflate::Level::Fastest);
        let sess = nx.parallel_session_with(parallel::ParallelOptions::default(), opts);
        let out = sess.compress(&data, Format::Gzip).unwrap();
        assert_eq!(nx.decompress(&out, Format::Gzip).unwrap().bytes, data);
    }

    #[test]
    fn sync_roundtrip_all_formats() {
        let nx = Nx::power9();
        let data = nx_corpus::CorpusKind::Json.generate(1, 64 * 1024);
        for format in [Format::RawDeflate, Format::Gzip, Format::Zlib] {
            let c = nx.compress(&data, format).unwrap();
            let d = nx.decompress(&c.bytes, format).unwrap();
            assert_eq!(d.bytes, data, "{format:?}");
        }
    }

    #[test]
    fn stats_accumulate() {
        let nx = Nx::power9();
        let data = vec![b'a'; 10_000];
        nx.compress(&data, Format::Gzip).unwrap();
        nx.compress(&data, Format::Zlib).unwrap();
        let s = nx.stats();
        assert_eq!(s.compress_requests(), 2);
        assert_eq!(s.bytes_in(), 20_000);
        assert!(s.bytes_out() > 0);
    }

    #[test]
    fn shared_handle_shares_stats() {
        let nx = Nx::z15();
        let nx2 = nx.clone();
        nx.compress(b"abc", Format::RawDeflate).unwrap();
        nx2.compress(b"def", Format::RawDeflate).unwrap();
        assert_eq!(nx.stats().compress_requests(), 2);
    }

    #[test]
    fn p842_roundtrip() {
        let nx = Nx::power9();
        let data = nx_corpus::CorpusKind::Redundant.generate(2, 32 * 1024);
        let c = nx.compress_842(&data);
        assert!(c.len() < data.len() / 4);
        assert_eq!(nx.decompress_842(&c).unwrap(), data);
    }

    #[test]
    fn corrupted_container_is_an_error() {
        let nx = Nx::power9();
        let mut gz = nx.compress(b"payload", Format::Gzip).unwrap().bytes;
        let n = gz.len();
        gz[n - 5] ^= 0xFF;
        assert!(matches!(
            nx.decompress(&gz, Format::Gzip),
            Err(Error::Deflate(_))
        ));
    }

    #[test]
    fn bounded_compress_retries_until_capacity_fits() {
        let nx = Nx::power9();
        let data = nx_corpus::CorpusKind::Random.generate(8, 64 * 1024); // ~incompressible
                                                                         // A tiny initial target forces several doublings.
        let out = nx
            .compress_bounded(&data, Format::RawDeflate, 4 * 1024)
            .unwrap();
        assert!(out.attempts > 2, "only {} attempts", out.attempts);
        assert!(out.final_capacity >= out.compressed.bytes.len());
        // Retries cost cycles: more than a clean single pass.
        let clean = nx.compress(&data, Format::RawDeflate).unwrap();
        assert!(out.compressed.report.cycles > clean.report.cycles);
        assert_eq!(
            nx.decompress(&out.compressed.bytes, Format::RawDeflate)
                .unwrap()
                .bytes,
            data
        );
    }

    #[test]
    fn bounded_compress_single_attempt_when_target_fits() {
        let nx = Nx::power9();
        let data = vec![b'a'; 100_000];
        let out = nx.compress_bounded(&data, Format::Gzip, 64 * 1024).unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.final_capacity, 64 * 1024);
    }

    #[test]
    fn error_conversions() {
        let e: Error = nx_deflate::Error::UnexpectedEof.into();
        assert!(matches!(e, Error::Deflate(_)));
        assert!(!e.to_string().is_empty());
        let e: Error = nx_842::Error::UnexpectedEof.into();
        assert!(matches!(e, Error::P842(_)));
    }
}
