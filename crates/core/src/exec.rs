//! The request-execution core: the one place a DEFLATE request runs.
//!
//! The hardware has one job descriptor (the CRB) and one place a job runs
//! (the NX engine behind a VAS window); retry and fallback are properties
//! of *the job*, not of the API the caller used. This module is that
//! shape in software:
//!
//! * [`Backend::select`] is the only place [`CompressOptions`] become a
//!   backend — accelerator model, software level ladder, or software
//!   canned profile.
//! * [`Executor`] owns one engine (its own [`Accelerator`], so handles
//!   and sessions never contend on a shared model) plus inflate scratch,
//!   and runs every request through one span grammar
//!   (`Submit → {Retry|EratTouch|Fallback}* → Engine → Complete`), one
//!   [`NxStats`] record, one fault-recovery loop and one canned framing
//!   policy.
//!
//! Every entry point is a thin caller: [`crate::Nx`] checks an executor
//! out of a per-handle free list, each service engine thread owns one
//! (an [`crate::AsyncSession`] is a one-window service), and a
//! [`crate::ScratchSession`] *is* one (in its software-only form) plus
//! caller-owned buffers.

use crate::fault::{self, FaultInjector, FaultKind, Recovery, Step};
use crate::framing::{self, Format};
use crate::stats::{Codec, NxStats};
use crate::{software, CompressOptions, Error, Result, Trace, SUBMIT_CYCLES};
use nx_accel::{AccelConfig, Accelerator, CompressReport, DecompressReport};
use nx_deflate::stream::{Flush, StreamEncoder};
use nx_deflate::workers::Workers;
use nx_deflate::{gzip, zlib, CompressionLevel, Engine, InflateScratch, Profile, ProfileRegistry};
use nx_telemetry::{Stage, TelemetrySink, TraceContext};
use std::sync::Arc;

/// What an [`Executor`] shares with the [`crate::Nx`] handle it was built
/// from (and with every other executor of that handle).
#[derive(Debug, Clone)]
pub(crate) struct Env {
    pub(crate) config: AccelConfig,
    pub(crate) stats: Arc<NxStats>,
    pub(crate) telemetry: TelemetrySink,
    pub(crate) faults: Option<Arc<FaultInjector>>,
    /// `None` falls back to [`crate::profiles::default_registry`] lazily,
    /// so handles that never touch profiles never pay training.
    pub(crate) profiles: Option<Arc<ProfileRegistry>>,
    /// The handle's one helper budget: every executor's accelerator, every
    /// parallel session and inflater of the handle claims from it.
    pub(crate) workers: Workers,
}

impl Env {
    pub(crate) fn registry(&self) -> &ProfileRegistry {
        self.profiles
            .as_deref()
            .unwrap_or_else(|| crate::profiles::default_registry().as_ref())
    }
}

/// A host-CPU backend for one compress request.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Software<'a> {
    /// The level ladder: the caller chose a rung (or a profile miss
    /// degraded to one).
    Ladder {
        level: CompressionLevel,
        engine: Engine,
    },
    /// The one-pass canned encoder of a registry profile.
    Canned {
        profile: &'a Profile,
        engine: Engine,
    },
}

impl<'a> Software<'a> {
    /// The software backend `opts` name. An id the registry does not hold
    /// is counted as one profile miss and degrades to the ladder. The
    /// registry is consulted only when a profile is named, so requests
    /// that never touch profiles never pay the default registry's
    /// training.
    pub(crate) fn select(opts: CompressOptions, env: &'a Env) -> Self {
        let engine = opts.engine();
        match opts.profile().map(|id| env.registry().get(id)) {
            Some(Some(profile)) => return Software::Canned { profile, engine },
            Some(None) => nx_deflate::profile::record_profile_miss(),
            None => {}
        }
        Software::Ladder {
            level: opts.level(),
            engine,
        }
    }

    fn config_name(&self) -> &'static str {
        match self {
            Software::Ladder { .. } => "software-ladder",
            Software::Canned { .. } => "software-canned",
        }
    }
}

/// Where one compress request runs.
enum Backend<'a> {
    /// The modeled accelerator (fixed-function: no level knob, like the
    /// NX unit).
    Accel(&'a mut Accelerator),
    Software(Software<'a>),
}

impl<'a> Backend<'a> {
    /// The only place [`CompressOptions`] become a backend: default
    /// options go to the accelerator when the executor has one, anything
    /// else steers the software paths.
    fn select(opts: CompressOptions, env: &'a Env, accel: Option<&'a mut Accelerator>) -> Self {
        match accel {
            Some(accel) if opts.is_default() => Backend::Accel(accel),
            _ => Backend::Software(Software::select(opts, env)),
        }
    }
}

/// The engine an executor owns.
#[derive(Debug)]
enum Unit {
    /// A job executor: the modeled accelerator. Software requests it
    /// serves (non-default options, fault fallback) encode one-shot.
    Accel(Box<Accelerator>),
    /// A scratch session's executor — the software path by contract: no
    /// request ever selects the accelerator, and ladder requests reuse
    /// this persistent encoder (window, tokenizer and bit-writer buffers
    /// carried across calls).
    Session(Box<StreamEncoder>),
}

/// One request-execution engine; see the [module docs](self).
#[derive(Debug)]
pub(crate) struct Executor {
    env: Env,
    unit: Unit,
    inflate: InflateScratch,
}

impl Executor {
    /// A job executor with its own accelerator model.
    pub(crate) fn new(env: Env) -> Self {
        let accel = Accelerator::with_workers(env.config.clone(), env.workers.clone());
        Self {
            unit: Unit::Accel(Box::new(accel)),
            env,
            inflate: InflateScratch::new(),
        }
    }

    /// A scratch session's executor: software only, with a persistent
    /// ladder encoder at `opts`' level and engine.
    pub(crate) fn session(env: Env, opts: CompressOptions) -> Self {
        Self {
            unit: Unit::Session(Box::new(
                StreamEncoder::with_engine(opts.level(), opts.engine())
                    .with_workers(env.workers.clone()),
            )),
            env,
            inflate: InflateScratch::new(),
        }
    }

    pub(crate) fn env(&self) -> &Env {
        &self.env
    }

    /// Compresses `data` into `format` framing in `out` (replaced), on the
    /// backend `opts` select. `ctx` continues the caller's trace; `None`
    /// mints a fresh root.
    ///
    /// # Errors
    ///
    /// Only under fault injection with software fallback disabled: the
    /// recovery-exhaustion errors of [`Job::recover`].
    pub(crate) fn compress_into(
        &mut self,
        data: &[u8],
        format: Format,
        opts: CompressOptions,
        ctx: Option<&TraceContext>,
        out: &mut Vec<u8>,
    ) -> Result<CompressReport> {
        let Self { env, unit, .. } = self;
        let (accel, session) = match unit {
            Unit::Accel(accel) => (Some(&mut **accel), None),
            Unit::Session(enc) => (None, Some(&mut **enc)),
        };
        let mut job = Job::submit(env, ctx, data, format, out);
        let report = match Backend::select(opts, env, accel) {
            Backend::Accel(accel) => {
                let on_engine = job.recover(fault::Site::Compress, |out| {
                    let (raw, report) = accel.compress(data);
                    let body = |out: &mut Vec<u8>| out.extend_from_slice(&raw);
                    framing::frame(out, data, format, None, body);
                    Ok((report.cycles, report))
                })?;
                match on_engine {
                    Some(report) => report,
                    // Degraded: a lost accelerator job runs on the
                    // software backend the default options name.
                    None => job.compress_software(
                        Software::select(CompressOptions::default(), env),
                        "software-fallback",
                        None,
                    ),
                }
            }
            Backend::Software(sw) => job.compress_software(sw, sw.config_name(), session),
        };
        let bytes_out = job.complete();
        // A caller may keep a job's output: no slack worth a page (shrinks in place).
        if matches!(unit, Unit::Accel(_)) && out.capacity() - out.len() > 4096 {
            out.shrink_to_fit();
        }
        env.stats
            .record_compress(Codec::Deflate, data.len() as u64, bytes_out, report.cycles);
        Ok(report)
    }

    /// Decompresses `format`-framed `data` into `out` (replaced): on the
    /// accelerator (with fault recovery) when this executor has one, in
    /// software for a scratch session. `opts` name the profile whose
    /// dictionary satisfies a zlib FDICT stream on the software path.
    ///
    /// # Errors
    ///
    /// [`Error::Deflate`] if the container or stream is malformed; under
    /// fault injection with software fallback disabled, additionally the
    /// recovery-exhaustion errors of [`Job::recover`].
    pub(crate) fn decompress_into(
        &mut self,
        data: &[u8],
        format: Format,
        opts: CompressOptions,
        ctx: Option<&TraceContext>,
        out: &mut Vec<u8>,
    ) -> Result<DecompressReport> {
        let Self { env, unit, inflate } = self;
        let mut job = Job::submit(env, ctx, data, format, out);
        let (on_engine, software_name) = match unit {
            Unit::Accel(accel) => (
                job.recover(fault::Site::Decompress, |out| {
                    let un = framing::unwrap(data, format)?;
                    let model = accel.decompressor();
                    let (report, used) = model.decompress_into(un.stream, un.hint, inflate, out)?;
                    un.verify(used, out)?;
                    Ok((report.cycles, report))
                })?,
                "software-fallback",
            ),
            Unit::Session(_) => (None, "software-inflate"),
        };
        let report = match on_engine {
            Some(report) => report,
            None => job.inflate_software(software_name, inflate, opts)?,
        };
        let bytes_out = job.complete();
        env.stats
            .record_decompress(Codec::Deflate, data.len() as u64, bytes_out, report.cycles);
        Ok(report)
    }
}

/// One request in flight — the CRB's worth of state every stage of its
/// execution needs: the handle context, the span timeline, the source and
/// the target buffer.
struct Job<'a> {
    env: &'a Env,
    trace: Trace<'a>,
    data: &'a [u8],
    format: Format,
    out: &'a mut Vec<u8>,
}

impl<'a> Job<'a> {
    /// Opens the request's timeline with its `submit` span.
    fn submit(
        env: &'a Env,
        ctx: Option<&TraceContext>,
        data: &'a [u8],
        format: Format,
        out: &'a mut Vec<u8>,
    ) -> Self {
        let mut trace = match ctx {
            Some(ctx) => Trace::begin_in(&env.telemetry, ctx),
            None => Trace::begin(&env.telemetry),
        };
        trace.span(Stage::Submit, SUBMIT_CYCLES, data.len() as u64, 0);
        Self {
            env,
            trace,
            data,
            format,
            out,
        }
    }

    /// Closes the timeline (`complete` span, latency histograms),
    /// returning the output size.
    fn complete(mut self) -> u64 {
        let bytes_out = self.out.len() as u64;
        self.trace.finish(bytes_out);
        bytes_out
    }

    /// Runs the request on a host-CPU backend: a zero-cycle `engine` span
    /// and a sizes-only report under `config_name`.
    fn compress_software(
        &mut self,
        sw: Software<'_>,
        config_name: &'static str,
        session: Option<&mut StreamEncoder>,
    ) -> CompressReport {
        match sw {
            Software::Canned { profile, engine } => {
                software::compress_with_profile_into(
                    self.data,
                    engine,
                    profile,
                    self.format,
                    self.out,
                );
            }
            Software::Ladder { level, engine } => {
                let rung = (level, engine, &self.env.workers);
                ladder_into(session, self.data, rung, self.format, self.out);
            }
        }
        self.trace.span(Stage::Engine, 0, self.data.len() as u64, 0);
        CompressReport::software(
            config_name,
            self.env.config.freq_ghz,
            self.data.len() as u64,
            self.out.len() as u64,
        )
    }

    /// Software inflate, verifying container checksums. Decode tables
    /// rebuild in place in `scratch` and the output is sized from the
    /// container hint — after warmup this performs no heap allocation.
    fn inflate_software(
        &mut self,
        config_name: &'static str,
        scratch: &mut InflateScratch,
        opts: CompressOptions,
    ) -> Result<DecompressReport> {
        let (data, out) = (self.data, &mut *self.out);
        match self.format {
            Format::RawDeflate => nx_deflate::inflate_into(data, scratch, out)?,
            Format::Gzip => gzip::decompress_into(data, scratch, out)?,
            Format::Zlib => match zlib::decompress_into(data, scratch, out) {
                // An FDICT stream and a profile with a dictionary: retry
                // through the dictionary-aware decoder, exactly the
                // inflateSetDictionary dance in zlib.
                Err(nx_deflate::Error::DictionaryRequired) => {
                    let dict = opts
                        .profile()
                        .and_then(|id| self.env.registry().get(id))
                        .map(Profile::dict)
                        .filter(|d| !d.is_empty())
                        .ok_or(nx_deflate::Error::DictionaryRequired)?;
                    zlib::decompress_with_dict_into(data, dict, scratch, out)?;
                }
                r => r?,
            },
        }
        self.trace.span(Stage::Engine, 0, data.len() as u64, 0);
        Ok(DecompressReport::software(
            config_name,
            self.env.config.freq_ghz,
            data.len() as u64,
            self.out.len() as u64,
        ))
    }

    /// Runs one accelerator request (`run` yields modeled cycles + report)
    /// under the handle's fault injector, if it has one, executing the
    /// steps of [`Recovery`] plus the output integrity re-check.
    ///
    /// Returns `Ok(Some(report))` when an attempt completed cleanly (its
    /// bytes are in `out`), `Ok(None)` when the request must degrade to the
    /// software path (accelerator unavailable, or the attempt budget ran out
    /// with fallback enabled) — a `fallback` span is on the trace and both
    /// fallback counters are bumped — and `Err` for genuine input errors
    /// (never retried) or recovery exhaustion with fallback disabled.
    fn recover<R>(
        &mut self,
        site: fault::Site,
        mut run: impl FnMut(&mut Vec<u8>) -> Result<(u64, R)>,
    ) -> Result<Option<R>> {
        let Self {
            env,
            trace,
            data,
            out,
            ..
        } = self;
        let Some(inj) = &env.faults else {
            let (cycles, report) = run(out)?;
            trace.span(Stage::Engine, cycles, data.len() as u64, 0);
            return Ok(Some(report));
        };
        let policy = *inj.policy();
        let req = inj.begin_request();
        let stats = inj.stats();
        let mut rec = Recovery::new(policy, env.config.freq_ghz);
        while !rec.exhausted() {
            let attempt = rec.attempt;
            let fault = inj.submit_fault(site, req, attempt, data.len() as u64, rec.resident_pages);
            let step = match rec.submit(fault) {
                Step::GiveUp => break,
                Step::Run => {
                    // Clean submission: run the engine. Genuine input
                    // errors are not transient — surface them
                    // immediately, no retry.
                    let (cycles, report) = run(out)?;
                    trace.span(Stage::Engine, cycles, data.len() as u64, attempt.into());
                    // Modeled output-integrity check: the engine CRCs its
                    // output stream; an injected in-flight corruption must
                    // be caught here and never escape to the caller.
                    let Some(k) = inj.output_fault(req, attempt, out.len() as u64) else {
                        return Ok(Some(report));
                    };
                    let mut corrupted = (**out).clone();
                    fault::corrupt(k, &mut corrupted);
                    if corrupted != **out {
                        stats.bump(&stats.corruptions_detected);
                    }
                    rec.corrupted(k)
                }
                again => again,
            };
            if let Step::Again {
                stage,
                cycles,
                bytes,
                detail,
                retry,
            } = step
            {
                if retry {
                    stats.bump(&stats.retries);
                    env.stats.record_retry();
                    if rec.last_fault == Some(FaultKind::QueueOverflow) {
                        // A bounced paste (engine queue full at submit)
                        // is a fault-reject: attributable separately from
                        // credit- and depth-rejects.
                        env.stats.record_fault_reject();
                    }
                    inj.take_backoff(attempt);
                } else {
                    stats.bump(&stats.resubmissions);
                }
                trace.span(stage, cycles, bytes, detail);
            }
        }
        // The accelerator is gone, or the attempt budget is spent.
        if policy.software_fallback {
            stats.bump(&stats.software_fallbacks);
            env.stats.record_software_fallback();
            trace.span(Stage::Fallback, 0, data.len() as u64, 0);
            return Ok(None);
        }
        let attempts = rec.attempt;
        Err(match rec.last_fault {
            _ if !rec.exhausted() => Error::AcceleratorUnavailable,
            Some(FaultKind::QueueOverflow) => Error::QueueOverflow,
            Some(FaultKind::BitFlip { .. }) | Some(FaultKind::Truncate { .. }) => {
                Error::CorruptedOutput { attempts }
            }
            _ => Error::SubmissionTimeout { attempts },
        })
    }
}

/// Level-ladder encode into `out` (cleared first), a large one on the
/// handle's worker budget. A scratch session's persistent encoder streams
/// straight into the caller's buffer; a job executor encodes one-shot.
fn ladder_into(
    session: Option<&mut StreamEncoder>,
    data: &[u8],
    (level, engine, workers): (CompressionLevel, Engine, &Workers),
    format: Format,
    out: &mut Vec<u8>,
) {
    let Some(enc) = session else {
        let enc = nx_deflate::Encoder::with_engine(level, engine).with_workers(workers.clone());
        *out = Vec::new();
        return framing::frame(out, data, format, None, |out| enc.compress_to(data, out));
    };
    if enc.level() != level || enc.engine() != engine {
        *enc = StreamEncoder::with_engine(level, engine).with_workers(workers.clone());
    }
    enc.reset_with_dict(&[]);
    framing::frame(out, data, format, None, |out| {
        enc.write_into(data, Flush::Finish, out)
    });
}

#[cfg(test)]
mod tests {
    use crate::{Format, Nx};

    #[test]
    fn the_model_decodes_on_the_executors_own_scratch() {
        // The model used to inflate on a fresh `InflateScratch` per call, so
        // the executor's table memo never saw a default-door decode.
        let nx = Nx::power9();
        let data = nx_corpus::CorpusKind::Json.generate(5, 2048);
        let stream = nx.compress(&data, Format::Zlib).unwrap().bytes;
        // One dynamic header: remembered, then its tables kept, then a hit.
        for hits_and_builds in [(0, 1), (0, 2), (1, 2), (2, 2)] {
            assert_eq!(nx.decompress(&stream, Format::Zlib).unwrap().bytes, data);
            let stats = nx.on_executor(|exec| exec.inflate.table_stats());
            assert_eq!(stats, hits_and_builds);
        }
    }
}
