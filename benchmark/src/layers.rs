//! The traced run: every per-layer metric of one workload.
//!
//! One probe suite runs on a sample of the workload's own requests (the
//! contract has every workload report every per-layer metric). Each probe
//! opens a span around every call it makes into a layer's public
//! functions — once as the composite call the program exposes
//! (`Nx::compress_with`, `Ticket::wait`, ...) and once decomposed in the
//! order the program runs it (checksum -> tokenize -> histogram/plan ->
//! emit -> frame) under a synthetic `ledger.request` parent. Kernel probes
//! run on the sampled requests as they are; per-request probes (software
//! framing, facade, scratch, async, service, telemetry) on 2 KiB canned
//! requests cut from them, where what they measure is the largest share.
//! A probe warms up unrecorded, then records between [`TRACE_PASSES`] and
//! [`MAX_TRACE_PASSES`] passes as its share of `--seconds` allows; the
//! metrics are computed from the recorded spans when the workload ends,
//! every duration scaled to the reference host's speed like the times of
//! the untraced run.

use crate::harness::Run;
use crate::trace::{totals, Tracer};
use crate::workload::{
    canned_opts, fastest_opts, inflate_options, primary_opts, shard_options, take_sample, Inputs,
    Kind, Request, RPC_CLASSES, RPC_PAYLOAD, RPC_PER_CLASS,
};
use nx_accel::{AccelConfig, Accelerator, CompressReport};
use nx_core::parallel::ParallelEngine;
use nx_core::service::{QosClass, ServiceConfig, TenantHandle, TenantSpec, Ticket};
use nx_core::{profiles, software, CompressOptions, Format, Nx, ParallelInflater};
use nx_corpus::CorpusKind;
use nx_deflate::adler32::adler32;
use nx_deflate::bitio::BitWriter;
use nx_deflate::crc32::crc32;
use nx_deflate::encoder::{DynamicPlan, MAX_BLOCK_BYTES, MAX_BLOCK_TOKENS};
use nx_deflate::lz77::hash4::Hash4Matcher;
use nx_deflate::lz77::Histogram;
use nx_deflate::{
    BlockProbe, CompressionLevel, Encoder, Engine, InflateScratch, Inflater, MarkerInflater,
    Strategy, Token,
};
use nx_telemetry::{MetricsRegistry, TelemetrySink};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest recorded passes per probe (after the unrecorded warm-up).
pub const TRACE_PASSES: usize = 3;

/// Most recorded passes per probe: bounds the trace file on workloads
/// whose pass takes milliseconds.
pub const MAX_TRACE_PASSES: usize = 32;

/// Share of `--seconds` one probe may spend (there are about 25).
const PROBE_SHARE: f64 = 0.03;

/// Sample of a workload's requests the probes run on, in bytes.
fn sample_budget(kind: Kind) -> usize {
    match kind {
        // Enough shards and speculative chunks for two workers.
        Kind::ParallelIo => 8 << 20,
        _ => 4 << 20,
    }
}

/// Bytes the accelerator-model probes run on (the model is ~20x slower
/// than the software kernels on the host clock).
fn accel_budget(kind: Kind) -> usize {
    match kind {
        Kind::AccelModel => 4 << 20,
        _ => 1 << 20,
    }
}

/// Bit offsets the boundary probe scans up to a true block boundary.
const PROBE_SCAN_BITS: u64 = 32 << 10;

/// `Hash4Matcher::reset` calls per pass.
const RESET_CALLS: usize = 200;

/// Tickets in flight in the depth-8 service probe.
const SERVICE_DEPTH: usize = 8;

/// The 2 KiB requests of the per-request probes: `small_rpc`'s own
/// payloads; on the mixed workloads, twenty slices from each of the json,
/// logs and text stretches of the first buffer, bound to that class's
/// canned profile. `nx_corpus::mixed` lays the classes of
/// [`CorpusKind::all`] out back to back in equal shares, which is how a
/// stretch is found.
fn small_requests(kind: Kind, requests: &[Request]) -> Vec<Request> {
    if kind == Kind::SmallRpc {
        return requests.to_vec();
    }
    let registry = profiles::default_registry();
    let blob = &requests[0].data;
    let share = blob.len() / CorpusKind::all().len();
    let stride = (share - RPC_PAYLOAD) / (RPC_PER_CLASS - 1);
    let mut out = Vec::with_capacity(RPC_CLASSES.len() * RPC_PER_CLASS);
    for k in 0..RPC_PER_CLASS {
        for class in RPC_CLASSES {
            let at = CorpusKind::all()
                .iter()
                .position(|c| *c == class)
                .expect("every rpc class is a corpus class")
                * share
                + k * stride;
            out.push(Request {
                data: blob[at..at + RPC_PAYLOAD].to_vec(),
                profile: registry.by_name(class.name()).map(|(id, _)| id),
            });
        }
    }
    out
}

fn gzip_or_zlib_wrap(raw: &[u8], data: &[u8], format: Format, checksum: u32) -> Vec<u8> {
    match format {
        Format::Gzip => nx_deflate::gzip::wrap_deflate(raw, checksum, data.len() as u64),
        Format::Zlib => nx_deflate::zlib::wrap_deflate(raw, checksum),
        Format::RawDeflate => raw.to_vec(),
    }
}

fn checksum(data: &[u8], format: Format) -> u32 {
    match format {
        Format::Gzip => crc32(data),
        Format::Zlib => adler32(data),
        Format::RawDeflate => 0,
    }
}

/// State shared by the probes of one traced run.
struct Probes<'a> {
    kind: Kind,
    format: Format,
    threads: usize,
    /// Time one probe may spend on its passes.
    probe_budget: Duration,
    run: &'a mut Run,
    tr: Tracer,
    /// Exact counts and ratios the probes computed outside spans.
    counts: BTreeMap<&'static str, f64>,
    nx: Nx,
    sample: Vec<Request>,
    small: Vec<Request>,
    /// The sample's payloads back to back: input of the stream probes.
    blob: Vec<u8>,
}

impl Probes<'_> {
    /// Unrecorded warm-up passes of `body` for a quarter of the probe's
    /// budget (at least one), then recorded passes for the rest (at least
    /// [`TRACE_PASSES`], at most [`MAX_TRACE_PASSES`]).
    fn passes(&mut self, mut body: impl FnMut(&mut Self)) {
        let start = Instant::now();
        self.tr.set_recording(false);
        body(self);
        while start.elapsed() < self.probe_budget / 4 {
            body(self);
        }
        self.tr.set_recording(true);
        let mut recorded = 0;
        while recorded < TRACE_PASSES
            || (recorded < MAX_TRACE_PASSES && start.elapsed() < self.probe_budget)
        {
            body(self);
            recorded += 1;
        }
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.run.tally.check(ok, what);
    }

    /// One pass of a composite call: one span named `name` per request
    /// of `reqs` (told its index). Returns how many calls failed.
    fn each(
        &mut self,
        name: &'static str,
        reqs: &[Request],
        mut call: impl FnMut(usize, &Request) -> bool,
    ) -> u64 {
        self.each_prepared(name, reqs, |_| (), |i, r, ()| call(i, r))
    }

    /// As [`each`](Self::each), with an input `prepare`d outside the span
    /// (a payload the call takes ownership of).
    fn each_prepared<I>(
        &mut self,
        name: &'static str,
        reqs: &[Request],
        mut prepare: impl FnMut(&Request) -> I,
        mut call: impl FnMut(usize, &Request, I) -> bool,
    ) -> u64 {
        let mut failed = 0u64;
        for (i, r) in reqs.iter().enumerate() {
            self.tr.next_request();
            let input = prepare(r);
            let ok = self
                .tr
                .span(name, r.data.len() as u64, |_| call(i, black_box(r), input));
            failed += u64::from(!ok);
        }
        failed
    }

    /// A composite call that sleeps (a queue hop), in passes of its own:
    /// it leaves the next call a cold core, so it shares passes with
    /// nothing.
    fn sleeping_composite<I>(
        &mut self,
        name: &'static str,
        reqs: &[Request],
        mut prepare: impl FnMut(&Request) -> I,
        mut call: impl FnMut(usize, &Request, I) -> bool,
    ) {
        let mut failed = 0u64;
        self.passes(|p| failed += p.each_prepared(name, reqs, &mut prepare, &mut call));
        self.check(failed == 0, name);
    }

    /// Options of the section the workload runs from `T` threads.
    fn threaded_opts(&self, req: &Request) -> CompressOptions {
        match self.kind {
            Kind::BulkSoftware => fastest_opts(),
            kind => primary_opts(kind, req),
        }
    }
}

/// Runs the probe suite of `kind`, fills `run.metrics` with every
/// per-layer metric and returns the recorded spans.
pub fn run(kind: Kind, run: &mut Run) -> Tracer {
    let mut tr = Tracer::new();
    let seed = run.seed;
    // Train the default registry first so the corpus span times the
    // generators alone.
    tr.span("core.profiles_train", 1, |_| {
        black_box(profiles::default_registry().len())
    });
    let inputs = tr.span("corpus.generate", 0, |_| Inputs::generate(kind, seed));
    let generated_bytes = inputs.bytes();
    run.inputs_digest = inputs.digest();
    let sample = take_sample(&inputs.requests, sample_budget(kind));
    let small = small_requests(kind, &inputs.requests);
    let blob = sample
        .iter()
        .map(|r| r.data.as_slice())
        .collect::<Vec<_>>()
        .concat();
    drop(inputs);
    let mut p = Probes {
        kind,
        format: kind.format(),
        threads: run.threads,
        probe_budget: Duration::from_secs_f64(run.seconds * PROBE_SHARE),
        run,
        tr,
        counts: BTreeMap::new(),
        nx: Nx::power9(),
        sample,
        small,
        blob,
    };
    p.checksums();
    p.tokenizers();
    p.matcher_reset();
    p.decomposed_ladder();
    p.encoders_and_inflate();
    p.canned();
    p.markers();
    p.accelerator();
    p.software_stack();
    p.threads_scaling();
    p.service();
    p.sharding();
    p.parallel_inflate_and_seek();
    p.trace_overhead();
    p.finish(generated_bytes)
}

impl Probes<'_> {
    fn checksums(&mut self) {
        self.passes(|p| {
            for r in &p.sample {
                let n = r.data.len() as u64;
                p.tr.span("deflate.crc32", n, |_| black_box(crc32(black_box(&r.data))));
                p.tr.span("deflate.adler32", n, |_| {
                    black_box(adler32(black_box(&r.data)))
                });
            }
        });
    }

    fn tokenizers(&mut self) {
        let fastest = CompressionLevel::new(1).expect("1 is a valid level");
        let default = CompressionLevel::default_level();
        let mut matched = [0u64; 2];
        let mut total = 0u64;
        for r in &self.sample {
            total += r.data.len() as u64;
            for (slot, (level, engine)) in [(fastest, Engine::Auto), (default, Engine::Sequential)]
                .into_iter()
                .enumerate()
            {
                let tokens =
                    nx_deflate::deflate_tokens_with(&r.data, level, Strategy::Default, engine);
                matched[slot] += tokens
                    .iter()
                    .map(|t| match t {
                        Token::Match { len, .. } => u64::from(*len),
                        Token::Literal(_) => 0,
                    })
                    .sum::<u64>();
            }
        }
        let total = total.max(1) as f64;
        self.counts.insert(
            "deflate.lz77_fastest_match_share",
            matched[0] as f64 / total,
        );
        self.counts.insert(
            "deflate.lz77_default_match_share",
            matched[1] as f64 / total,
        );
        self.passes(|p| {
            for r in &p.sample {
                p.tr.span("deflate.lz77_fastest", r.data.len() as u64, |_| {
                    black_box(nx_deflate::deflate_tokens_with(
                        black_box(&r.data),
                        fastest,
                        Strategy::Default,
                        Engine::Auto,
                    ))
                });
            }
        });
    }

    fn matcher_reset(&mut self) {
        let mut m = Hash4Matcher::new();
        self.passes(|p| {
            for _ in 0..RESET_CALLS {
                p.tr.span("deflate.matcher_reset", 1, |_| black_box(&mut m).reset());
            }
        });
    }

    /// The level-6 software request taken apart in the order
    /// `Encoder::compress` + framing run it, each step a child of a
    /// synthetic `ledger.request` span. Blocks are cut where the encoder
    /// cuts them; every block is emitted dynamic (the encoder may choose
    /// stored or fixed — that difference lands in the encode residual).
    fn decomposed_ladder(&mut self) {
        let level = CompressionLevel::default_level();
        let format = self.format;
        let ladder = primary_opts(Kind::BulkSoftware, &self.sample[0]);
        let nx = self.nx.clone();
        let encoder = Encoder::with_engine(level, Engine::Sequential);
        let sharded = (self.kind == Kind::ParallelIo)
            .then(|| ParallelEngine::new(shard_options(self.threads)));
        self.passes(|p| {
            // The composite request the ledger sets against this
            // decomposition runs in the same passes, so both sides see
            // the same host conditions.
            match (p.kind, &sharded) {
                (Kind::BulkSoftware, _) => {
                    for r in &p.sample {
                        p.tr.span("ledger.composite", r.data.len() as u64, |_| {
                            black_box(nx.compress_with(black_box(&r.data), format, ladder).is_ok())
                        });
                    }
                }
                (Kind::ParallelIo, Some(engine)) => {
                    p.tr.span("ledger.composite", p.blob.len() as u64, |_| {
                        black_box(engine.compress(black_box(&p.blob), 6, format).is_ok())
                    });
                }
                _ => {}
            }
            // So does `Encoder::compress`, which the residual of the
            // three encoder steps below is taken against.
            for r in &p.sample {
                p.tr.span("deflate.encode_default", r.data.len() as u64, |_| {
                    black_box(encoder.compress(black_box(&r.data)))
                });
            }
            for r in &p.sample {
                p.tr.next_request();
                let data = &r.data;
                let out = p.tr.span("ledger.request", data.len() as u64, |tr| {
                    let sum = tr.span("ledger.checksum", data.len() as u64, |_| {
                        checksum(black_box(data), format)
                    });
                    let tokens = tr.span("deflate.lz77_default", data.len() as u64, |_| {
                        nx_deflate::deflate_tokens_with(
                            black_box(data),
                            level,
                            Strategy::Default,
                            Engine::Sequential,
                        )
                    });
                    let mut w = BitWriter::with_capacity(data.len() / 2 + 64);
                    let mut hist = Histogram::new();
                    let (mut start, mut span) = (0usize, 0usize);
                    for (i, t) in tokens.iter().enumerate() {
                        span += t.input_len();
                        let last = i + 1 == tokens.len();
                        if last || i + 1 - start >= MAX_BLOCK_TOKENS || span >= MAX_BLOCK_BYTES {
                            let block = &tokens[start..=i];
                            let plan = tr.span("deflate.huffman_build", 1, |_| {
                                hist.clear();
                                for &t in block {
                                    hist.record(t);
                                }
                                hist.record_end_of_block();
                                DynamicPlan::from_histogram(&hist)
                            });
                            tr.span("deflate.emit", block.len() as u64, |_| {
                                plan.write_header(&mut w, last);
                                plan.write_body(&mut w, block);
                            });
                            start = i + 1;
                            span = 0;
                        }
                    }
                    let raw = w.finish();
                    tr.span("ledger.frame", raw.len() as u64, |_| {
                        gzip_or_zlib_wrap(&raw, data, format, sum)
                    })
                });
                black_box(out);
            }
        });
        // The decomposition must still be a valid encoder: decode it once.
        let r = &self.sample[0];
        let tokens =
            nx_deflate::deflate_tokens_with(&r.data, level, Strategy::Default, Engine::Sequential);
        let ok = nx_deflate::lz77::expand_tokens(&tokens) == r.data;
        self.check(ok, "decomposed ladder: tokens expand to the input");
    }

    fn encoders_and_inflate(&mut self) {
        let fastest = Encoder::with_engine(
            CompressionLevel::new(1).expect("1 is a valid level"),
            Engine::Auto,
        );
        let default = Encoder::with_engine(CompressionLevel::default_level(), Engine::Sequential);
        // The level-6 streams the inflate probe decodes; the encoder's
        // block counters are read around producing them.
        let before = nx_deflate::encode_counters();
        let raws: Vec<Vec<u8>> = self
            .sample
            .iter()
            .map(|r| default.compress(&r.data))
            .collect();
        let after = nx_deflate::encode_counters();
        self.passes(|p| {
            for r in &p.sample {
                p.tr.span("deflate.encode_fastest", r.data.len() as u64, |_| {
                    black_box(fastest.compress(black_box(&r.data)))
                });
            }
        });
        let stored = (after.blocks_stored - before.blocks_stored) as f64;
        let fixed = (after.blocks_fixed - before.blocks_fixed) as f64;
        let dynamic = (after.blocks_dynamic - before.blocks_dynamic) as f64;
        let blocks = (stored + fixed + dynamic).max(1.0);
        self.counts
            .insert("deflate.block_dynamic_share", dynamic / blocks);
        self.counts
            .insert("deflate.block_stored_share", stored / blocks);

        let (fast0, careful0) = nx_deflate::decode_path_counters();
        let mut scratch = InflateScratch::new();
        let mut out = Vec::new();
        let mut wrong = 0u64;
        self.passes(|p| {
            for (raw, r) in raws.iter().zip(&p.sample) {
                let ok = p.tr.span("deflate.inflate", r.data.len() as u64, |_| {
                    nx_deflate::inflate_into(black_box(raw), &mut scratch, &mut out).is_ok()
                });
                wrong += u64::from(!(ok && out == r.data));
            }
        });
        self.check(wrong == 0, "inflate_into reproduces the sample");
        let (fast1, careful1) = nx_deflate::decode_path_counters();
        let (fast, careful) = ((fast1 - fast0) as f64, (careful1 - careful0) as f64);
        self.counts.insert(
            "deflate.inflate_fast_path_share",
            fast / (fast + careful).max(1.0),
        );
    }

    /// The canned one-pass kernel and the small-stream decode, on the
    /// 2 KiB requests.
    fn canned(&mut self) {
        let registry = profiles::default_registry();
        let profile_of = |r: &Request| r.profile.and_then(|id| registry.get(id));
        let mut out = Vec::new();
        let before = nx_deflate::profile_counters();
        // The canned request in the order `software::compress_with_profile`
        // runs it: checksum -> one-pass kernel -> FDICT framing.
        self.passes(|p| {
            for r in &p.small {
                let Some(profile) = profile_of(r) else {
                    continue;
                };
                p.tr.next_request();
                let n = r.data.len() as u64;
                p.tr.span("ledger.canned_request", n, |tr| {
                    let sum = tr.span("ledger.canned_checksum", n, |_| adler32(black_box(&r.data)));
                    out.clear();
                    tr.span("deflate.canned", 1, |_| {
                        nx_deflate::deflate_canned_into(
                            black_box(&r.data),
                            Engine::Auto,
                            profile,
                            true,
                            &mut out,
                        )
                    });
                    tr.span("ledger.canned_frame", out.len() as u64, |_| {
                        black_box(nx_deflate::zlib::wrap_deflate_with_dict(
                            &out,
                            sum,
                            profile.dict_id(),
                        ))
                    });
                });
            }
        });
        let after = nx_deflate::profile_counters();
        let canned_blocks = (after.canned_blocks - before.canned_blocks) as f64;
        let fallback = (after.fallback_blocks - before.fallback_blocks) as f64;
        self.counts.insert(
            "deflate.canned_fallback_share",
            fallback / (canned_blocks + fallback).max(1.0),
        );

        let streams: Vec<Vec<u8>> = self
            .small
            .iter()
            .map(|r| match profile_of(r) {
                Some(p) => nx_deflate::deflate_canned(&r.data, Engine::Auto, p, true),
                None => Vec::new(),
            })
            .collect();
        let mut scratch = InflateScratch::new();
        let mut wrong = 0u64;
        self.passes(|p| {
            for (s, r) in streams.iter().zip(&p.small) {
                let Some(profile) = profile_of(r) else {
                    continue;
                };
                let ok = p.tr.span("deflate.inflate_small", 1, |_| {
                    nx_deflate::inflate_with_dict_into(
                        black_box(s),
                        profile.dict(),
                        &mut scratch,
                        &mut out,
                    )
                    .is_ok()
                });
                wrong += u64::from(!(ok && out == r.data));
            }
        });
        self.check(wrong == 0, "canned streams decode with their dictionary");
    }

    /// The three stages of speculative inflate on one level-6 stream of
    /// the sample: boundary probe, marker decode from a mid-stream block
    /// boundary, marker resolution against the true window.
    fn markers(&mut self) {
        let data = self.sample[0].data.clone();
        let raw = Encoder::with_engine(CompressionLevel::default_level(), Engine::Sequential)
            .compress(&data);
        // Walk to the last block boundary at or before half the output.
        let mut inf = Inflater::new(&raw);
        let (mut boundary_bits, mut boundary_out) = (0u64, 0usize);
        while !inf.is_finished() && inf.decode_block(usize::MAX).is_ok() {
            if inf.is_finished() || inf.output().len() > data.len() / 2 {
                break;
            }
            boundary_bits = inf.bit_position();
            boundary_out = inf.output().len();
        }
        drop(inf);
        let window = &data[boundary_out.saturating_sub(nx_deflate::WINDOW_SIZE)..boundary_out];
        let scan_from = boundary_bits.saturating_sub(PROBE_SCAN_BITS);
        let scanned_bits = boundary_bits - scan_from + 1;
        let mut probe = BlockProbe::new();
        let mut bytes = Vec::new();
        let mut wrong = 0u64;
        self.passes(|p| {
            p.tr.span("deflate.marker_probe", scanned_bits.div_ceil(8), |_| {
                let mut hits = 0u32;
                for bit in scan_from..=boundary_bits {
                    hits += u32::from(probe.probe(black_box(&raw), bit));
                }
                black_box(hits)
            });
            let Ok(mut m) = MarkerInflater::new_at(&raw, boundary_bits) else {
                wrong += 1;
                return;
            };
            let cells_expected = (data.len() - boundary_out) as u64;
            let ok = p.tr.span("deflate.marker_decode", cells_expected, |_| {
                while !m.is_finished() {
                    if m.decode_block(usize::MAX).is_err() {
                        return false;
                    }
                }
                true
            });
            bytes.clear();
            let resolved = p.tr.span("deflate.marker_resolve", cells_expected, |_| {
                nx_deflate::resolve_markers_into(m.cells(), window, &mut bytes).is_ok()
            });
            wrong += u64::from(!(ok && resolved && bytes == data[boundary_out..]));
        });
        self.check(wrong == 0, "marker decode + resolve reproduce the tail");
    }

    /// The cycle model called directly and through the facade, with the
    /// exact cycle breakdown it reports.
    fn accelerator(&mut self) {
        let budget = accel_budget(self.kind);
        let sample = take_sample(&self.sample, budget);
        let mut acc = Accelerator::new(AccelConfig::power9());
        let freq = acc.config().freq_ghz;
        let mut sum = CycleSums::default();
        let mut raws = Vec::with_capacity(sample.len());
        let (mut dec_out, mut dec_cycles) = (0u64, 0u64);
        for r in &sample {
            let (raw, report) = acc.compress(&r.data);
            sum.add(&report);
            let back = acc.decompress(&raw);
            self.check(
                back.as_ref().is_ok_and(|(b, _)| *b == r.data),
                "accelerator model round trip",
            );
            if let Ok((_, rep)) = back {
                dec_out += rep.output_bytes;
                dec_cycles += rep.cycles;
            }
            raws.push(raw);
        }
        let mut small = CycleSums::default();
        for r in &sample {
            for piece in r.data.chunks(4 << 10).take(64) {
                small.add(&acc.compress(piece).1);
            }
        }
        let c = &mut self.counts;
        let cycles = sum.cycles.max(1) as f64;
        c.insert("accel.cycles_per_byte", cycles / sum.input.max(1) as f64);
        c.insert(
            "accel.decompress_cycles_per_byte",
            dec_cycles as f64 / dec_out.max(1) as f64,
        );
        c.insert("accel.bank_stall_share", sum.bank_stall as f64 / cycles);
        c.insert("accel.huffman_tail_share", sum.huffman_tail as f64 / cycles);
        c.insert("accel.overhead_share", sum.overhead as f64 / cycles);
        c.insert(
            "accel.overhead_share_4k",
            small.overhead as f64 / small.cycles.max(1) as f64,
        );
        c.insert(
            "accel.discarded_match_share",
            sum.discarded as f64 / (sum.discarded + sum.tokens).max(1) as f64,
        );
        // The abstract's nominal POWER9 rate is the only reference the
        // model is validated against; no other error figure is claimed.
        c.insert(
            "accel.modeled_over_paper_p9",
            sum.input as f64 * freq / cycles / 16.0,
        );

        let format = self.format;
        self.passes(|p| {
            for r in &sample {
                p.tr.next_request();
                p.tr.span("accel.compress", r.data.len() as u64, |_| {
                    black_box(acc.compress(black_box(&r.data)))
                });
            }
        });
        self.passes(|p| {
            for (r, raw) in sample.iter().zip(&raws) {
                p.tr.span("accel.decompress", r.data.len() as u64, |_| {
                    black_box(acc.decompress(black_box(raw)).is_ok())
                });
            }
        });
        let nx = self.nx.clone();
        let mut failed = 0u64;
        self.passes(|p| {
            failed += p.each("core.facade_accel", &sample, |_, r| {
                nx.compress(&r.data, format).is_ok()
            });
        });
        self.check(failed == 0, "core.facade_accel");
        if self.kind == Kind::AccelModel {
            // This workload's request is the model: its decomposition is
            // engine -> checksum -> frame.
            self.passes(|p| {
                for r in &sample {
                    p.tr.span("ledger.composite", r.data.len() as u64, |_| {
                        black_box(nx.compress(black_box(&r.data), format).is_ok())
                    });
                }
                for r in &sample {
                    p.tr.next_request();
                    let data = &r.data;
                    p.tr.span("ledger.accel_request", data.len() as u64, |tr| {
                        let (raw, _) = tr.span("ledger.accel_engine", data.len() as u64, |_| {
                            acc.compress(black_box(data))
                        });
                        let sum = tr.span("ledger.accel_checksum", data.len() as u64, |_| {
                            checksum(data, format)
                        });
                        tr.span("ledger.accel_frame", raw.len() as u64, |_| {
                            black_box(gzip_or_zlib_wrap(&raw, data, format, sum))
                        });
                    });
                }
            });
        }
    }

    /// Kernel -> `software::compress_with_profile` -> `Nx::compress_with`
    /// (without and with an always-sampling telemetry sink) -> scratch
    /// session -> async queue, each as the composite call on the same
    /// 2 KiB canned requests: what a request costs above its kernel does
    /// not grow with the request, so it is measured where it is the
    /// largest share. The five that never sleep share their passes
    /// (one after the other within a pass), so their differences see the
    /// same host conditions.
    fn software_stack(&mut self) {
        let nx = self.nx.clone();
        let sampled = Nx::power9().with_telemetry(TelemetrySink::enabled(MetricsRegistry::new()));
        let small = self.small.clone();
        let registry = profiles::default_registry();
        let profile_of = |r: &Request| r.profile.and_then(|id| registry.get(id));
        // One scratch session per profile, as one tenant per class would hold.
        let mut sessions: Vec<(CompressOptions, nx_core::ScratchSession)> = Vec::new();
        for r in &small {
            let o = canned_opts(r);
            if !sessions.iter().any(|(have, _)| *have == o) {
                sessions.push((o, nx.scratch_session_with(o)));
            }
        }
        let mut out = Vec::new();
        let mut failed = 0u64;
        self.passes(|p| {
            failed += p.each("deflate.kernel", &small, |_, r| {
                profile_of(r).is_some_and(|profile| {
                    !black_box(nx_deflate::deflate_canned(
                        &r.data,
                        Engine::Auto,
                        profile,
                        true,
                    ))
                    .is_empty()
                })
            });
            failed += p.each("core.software", &small, |_, r| {
                profile_of(r).is_some_and(|profile| {
                    !black_box(software::compress_with_profile(
                        &r.data,
                        Engine::Auto,
                        profile,
                        Format::Zlib,
                    ))
                    .is_empty()
                })
            });
            failed += p.each("core.facade", &small, |_, r| {
                nx.compress_with(&r.data, Format::Zlib, canned_opts(r))
                    .is_ok()
            });
            // The same facade call with an always-sampling telemetry sink.
            failed += p.each("core.facade_telemetry", &small, |_, r| {
                sampled
                    .compress_with(&r.data, Format::Zlib, canned_opts(r))
                    .is_ok()
            });
            failed += p.each("core.scratch", &small, |_, r| {
                sessions
                    .iter_mut()
                    .find(|(have, _)| *have == canned_opts(r))
                    .is_some_and(|(_, s)| s.compress_into(&r.data, Format::Zlib, &mut out).is_ok())
            });
        });
        self.check(failed == 0, "software stack calls succeed");

        let asynch = nx.async_session();
        self.sleeping_composite(
            "core.async",
            &small,
            // Fill-submit-refill: the input buffer comes from the
            // session's pool, as the async API intends.
            |r| {
                let mut owned = asynch.buffer();
                owned.extend_from_slice(&r.data);
                owned
            },
            |_, r, owned| {
                asynch
                    .submit_with(owned, Format::Zlib, canned_opts(r))
                    .and_then(|h| h.wait())
                    .is_ok()
            },
        );
        asynch.close();
        let pool = nx.buffer_pool();
        let (hits, misses) = (pool.hits() as f64, pool.misses() as f64);
        self.counts
            .insert("core.pool_hit_share", hits / (hits + misses).max(1.0));
    }

    /// The section the workload runs from `T` threads, on one thread and
    /// on `T` (each thread compressing the whole sample on its own `Nx`
    /// clone): 1.0 means the threads serialized.
    fn threads_scaling(&mut self) {
        let format = self.format;
        let threads = self.threads;
        let sample = if self.kind == Kind::AccelModel {
            take_sample(&self.sample, accel_budget(self.kind) / 2)
        } else {
            self.sample.clone()
        };
        let bytes: u64 = sample.iter().map(|r| r.data.len() as u64).sum();
        let opts: Vec<CompressOptions> = sample.iter().map(|r| self.threaded_opts(r)).collect();
        let nx = self.nx.clone();
        let work = |nx: &Nx| {
            for (r, o) in sample.iter().zip(&opts) {
                black_box(nx.compress_with(black_box(&r.data), format, *o).is_ok());
            }
        };
        self.passes(|p| {
            p.tr.span("core.facade_1t", bytes, |_| work(&nx));
            p.tr.span("core.facade_mt", bytes * threads as u64, |_| {
                std::thread::scope(|s| {
                    for _ in 0..threads {
                        let nx = nx.clone();
                        let work = &work;
                        s.spawn(move || work(&nx));
                    }
                });
            });
        });
    }

    /// The service tier on the same 2 KiB requests, one canned-profile
    /// `Latency` tenant per content class: depth 1 (the payload is owned
    /// before the span opens; one span per submit -> `Ticket::wait`) and
    /// depth 8 (up to eight tickets in flight so <= 4 KiB coalescing
    /// engages; one span per pass, counters read around it).
    fn service(&mut self) {
        let service = self.nx.service(ServiceConfig::default());
        let small = self.small.clone();
        // Requests interleave the classes, so request `i` belongs to
        // tenant `i % classes`.
        let tenants: Vec<TenantHandle> = small[..RPC_CLASSES.len()]
            .iter()
            .zip(RPC_CLASSES)
            .map(|(r, class)| {
                service.open_window_with(
                    TenantSpec::new(class.name(), QosClass::Latency, 16),
                    canned_opts(r),
                )
            })
            .collect();
        let submit =
            |i: usize, owned: Vec<u8>| tenants[i % tenants.len()].submit(owned, Format::Zlib).ok();
        self.sleeping_composite(
            "core.service",
            &small,
            |r| r.data.clone(),
            |i, _, owned| submit(i, owned).and_then(|t| t.wait().ok()).is_some(),
        );
        let mut failed = 0u64;
        let tenant_sums = || {
            tenants.iter().map(|t| t.stats()).fold([0u64; 4], |a, s| {
                [
                    a[0] + s.submitted(),
                    a[1] + s.completed(),
                    a[2] + s.coalesced_requests(),
                    a[3] + s.rejected_no_credit() + s.rejected_queue_full(),
                ]
            })
        };
        let before = tenant_sums();
        let batches_before = service.stats().batches();
        self.passes(|p| {
            p.tr.span("core.service_depth8", small.len() as u64, |_| {
                let mut inflight: VecDeque<Option<Ticket>> = VecDeque::with_capacity(SERVICE_DEPTH);
                for (i, r) in small.iter().enumerate() {
                    if inflight.len() == SERVICE_DEPTH {
                        let t = inflight.pop_front().flatten();
                        failed += u64::from(t.and_then(|t| t.wait().ok()).is_none());
                    }
                    inflight.push_back(submit(i, r.data.clone()));
                }
                for t in inflight {
                    failed += u64::from(t.and_then(|t| t.wait().ok()).is_none());
                }
            });
        });
        let after = tenant_sums();
        let [submitted, completed, coalesced, rejected] =
            [0, 1, 2, 3].map(|k| (after[k] - before[k]) as f64);
        let batches = (service.stats().batches() - batches_before) as f64;
        self.counts.insert(
            "core.service_coalesced_share",
            coalesced / completed.max(1.0),
        );
        self.counts
            .insert("core.service_reqs_per_batch", completed / batches.max(1.0));
        self.counts
            .insert("core.service_reject_share", rejected / submitted.max(1.0));
        self.check(failed == 0, "service requests complete");
        self.check(service.credits_conserved(), "service credits conserved");
        service.close();
    }

    /// The shard engine against its own serial reference on the blob.
    fn sharding(&mut self) {
        let format = self.format;
        let one = ParallelEngine::new(shard_options(1));
        let many = ParallelEngine::new(shard_options(self.threads));
        let serial = one
            .compress_serial(&self.blob, 6, format)
            .unwrap_or_default();
        let sharded = many.compress(&self.blob, 6, format).unwrap_or_default();
        let ok = software::decompress(&sharded, format).is_ok_and(|b| b == self.blob);
        self.check(ok, "sharded stream decodes to the blob");
        self.counts.insert(
            "core.parallel_seam_bytes_share",
            (sharded.len() as f64 - serial.len() as f64) / serial.len().max(1) as f64,
        );
        let n = self.blob.len() as u64;
        self.passes(|p| {
            p.tr.span("core.parallel_serial", n, |_| {
                black_box(one.compress_serial(black_box(&p.blob), 6, format).is_ok())
            });
            p.tr.span("core.parallel_1w", n, |_| {
                black_box(one.compress(black_box(&p.blob), 6, format).is_ok())
            });
            p.tr.span("core.parallel_tw", n, |_| {
                black_box(many.compress(black_box(&p.blob), 6, format).is_ok())
            });
        });
    }

    /// Serial, speculative single-member and member-parallel decode of
    /// the blob, and the seek index over it.
    fn parallel_inflate_and_seek(&mut self) {
        let threads = self.threads;
        let opts = inflate_options(threads);
        let level = CompressionLevel::default_level();
        // A sharded single member (what `parallel_io` decodes) and the
        // same bytes as >= 4 gzip members.
        let single = ParallelEngine::new(shard_options(threads))
            .compress(&self.blob, 6, Format::Gzip)
            .unwrap_or_default();
        let member_len = (self.blob.len() / 4).clamp(1, 1 << 20);
        let multi: Vec<u8> = self
            .blob
            .chunks(member_len)
            .flat_map(|part| software::compress(part, level, Format::Gzip))
            .collect();
        let inflater = ParallelInflater::new(opts);
        let nx = self.nx.clone();
        let n = self.blob.len() as u64;
        let stats = nx.decode_parallel_stats().clone();
        let before = (
            stats.requests(),
            stats.chunks_decoded(),
            stats.speculation_misses(),
            stats.marker_patch_bytes(),
            stats.serial_fallbacks(),
            stats.bytes_out(),
        );
        let mut wrong = 0u64;
        self.passes(|p| {
            let serial = p.tr.span("core.pinflate_serial", n, |_| {
                inflater.decompress_serial(black_box(&single), Format::Gzip)
            });
            let one = p.tr.span("core.pinflate_single", n, |_| {
                nx.decompress_parallel_with(black_box(&single), Format::Gzip, opts)
            });
            let many = p.tr.span("core.pinflate_multi", n, |_| {
                nx.decompress_parallel_with(black_box(&multi), Format::Gzip, opts)
            });
            for out in [serial, one, many] {
                wrong += u64::from(!out.is_ok_and(|b| b == p.blob));
            }
        });
        self.check(wrong == 0, "parallel inflate reproduces the blob");
        let d = |now: u64, then: u64| (now - then) as f64;
        let requests = d(stats.requests(), before.0);
        // Speculative chunks dropped or repaired serially, of all chunks.
        let spliced = d(stats.chunks_decoded(), before.1);
        let missed = d(stats.speculation_misses(), before.2);
        self.counts.insert(
            "core.pinflate_miss_share",
            missed / (spliced + missed).max(1.0),
        );
        self.counts.insert(
            "core.pinflate_patch_share",
            d(stats.marker_patch_bytes(), before.3) / d(stats.bytes_out(), before.5).max(1.0),
        );
        self.counts.insert(
            "core.pinflate_serial_fallback_share",
            d(stats.serial_fallbacks(), before.4) / requests.max(1.0),
        );

        let mut index_bytes = 0usize;
        self.passes(|p| {
            let index = p.tr.span("core.seek_index_build", 1, |_| {
                nx.build_index(black_box(&single), Format::Gzip)
            });
            index_bytes = index.map_or(0, |i| i.to_bytes().len());
        });
        self.check(index_bytes > 0, "seek index builds");
        self.counts.insert(
            "core.seek_index_bytes_share",
            index_bytes as f64 / single.len().max(1) as f64,
        );
    }

    /// The workload's composite request with spans recorded against the
    /// same calls with recording off: what tracing itself costs.
    fn trace_overhead(&mut self) {
        let format = self.format;
        let nx = self.nx.clone();
        let sample = take_sample(&self.sample, accel_budget(self.kind));
        let mut timed = [0.0f64; 2];
        let start = Instant::now();
        let mut pass = 0usize;
        // Alternate unrecorded and recorded passes; the first pair warms up.
        while pass < 2 * (TRACE_PASSES + 1)
            || (pass < 2 * MAX_TRACE_PASSES && start.elapsed() < self.probe_budget)
        {
            let recording = pass % 2 == 1;
            self.tr.set_recording(recording);
            let t = Instant::now();
            for r in &sample {
                let opts = primary_opts(self.kind, r);
                self.tr.span("trace.request", r.data.len() as u64, |tr| {
                    tr.span("trace.call", r.data.len() as u64, |_| {
                        black_box(nx.compress_with(black_box(&r.data), format, opts).is_ok())
                    })
                });
            }
            if pass >= 2 {
                timed[usize::from(recording)] += t.elapsed().as_secs_f64();
            }
            pass += 1;
        }
        self.tr.set_recording(true);
        self.counts.insert(
            "trace_overhead_share",
            (timed[1] - timed[0]) / timed[0].max(f64::MIN_POSITIVE),
        );
    }

    /// Computes every per-layer metric from the recorded spans and the
    /// exact counts, and hands the tracer back for writing out.
    ///
    /// Probes record different numbers of passes, so a metric that
    /// compares two spans compares their *median per span* (per request),
    /// never their totals; a rate is the median over spans of time per
    /// unit of work.
    fn finish(self, generated_bytes: u64) -> Tracer {
        let Probes {
            kind,
            threads,
            run,
            tr,
            counts,
            ..
        } = self;
        let t = totals(tr.spans());
        let get = |name: &str| t.get(name).copied().unwrap_or_default();
        // Median microseconds per span.
        let us = |name: &str| get(name).us_per_span();
        let rate = |name: &str| get(name).median_ns_per_work;
        // `a / b`, 0 when `b` is 0 (a probe that recorded nothing).
        let over = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        // Microseconds of `child` spans per `parent` span, where one
        // parent has several children of that name (blocks of a request).
        let us_per = |child: &str, parent: &str| {
            let c = get(child);
            over(c.median_ns / 1e3 * c.count as f64, get(parent).count as f64)
        };
        let mut m: BTreeMap<&'static str, f64> = counts;

        for (metric, span) in [
            ("deflate.crc32_gb_per_s", "deflate.crc32"),
            ("deflate.adler32_gb_per_s", "deflate.adler32"),
        ] {
            // bytes per nanosecond = GB/s
            m.insert(metric, over(1.0, rate(span)));
        }
        for (metric, span) in [
            ("deflate.lz77_fastest_ns_per_byte", "deflate.lz77_fastest"),
            ("deflate.lz77_default_ns_per_byte", "deflate.lz77_default"),
            ("deflate.emit_ns_per_token", "deflate.emit"),
            (
                "deflate.encode_fastest_ns_per_byte",
                "deflate.encode_fastest",
            ),
            (
                "deflate.encode_default_ns_per_byte",
                "deflate.encode_default",
            ),
            ("deflate.inflate_ns_per_byte", "deflate.inflate"),
            ("deflate.marker_probe_ns_per_byte", "deflate.marker_probe"),
            ("deflate.marker_decode_ns_per_byte", "deflate.marker_decode"),
            (
                "deflate.marker_resolve_ns_per_byte",
                "deflate.marker_resolve",
            ),
            ("accel.compress_host_ns_per_byte", "accel.compress"),
            ("accel.decompress_host_ns_per_byte", "accel.decompress"),
        ] {
            m.insert(metric, rate(span));
        }
        for (metric, span) in [
            ("deflate.matcher_reset_us", "deflate.matcher_reset"),
            (
                "deflate.huffman_build_us_per_block",
                "deflate.huffman_build",
            ),
            (
                "deflate.inflate_small_us_per_stream",
                "deflate.inflate_small",
            ),
            ("deflate.canned_us_per_req", "deflate.canned"),
            ("core.scratch_us_per_req", "core.scratch"),
        ] {
            m.insert(metric, us(span));
        }
        let ladder_us = us("deflate.lz77_default")
            + us_per("deflate.huffman_build", "ledger.request")
            + us_per("deflate.emit", "ledger.request");
        m.insert(
            "deflate.encode_residual_share",
            1.0 - over(ladder_us, us("deflate.encode_default")),
        );
        m.insert(
            "accel.host_ns_per_modeled_cycle",
            over(
                rate("accel.compress"),
                m.get("accel.cycles_per_byte").copied().unwrap_or(0.0),
            ),
        );
        m.insert(
            "core.software_self_us_per_req",
            us("core.software") - us("deflate.kernel"),
        );
        m.insert(
            "core.facade_self_us_per_req",
            us("core.facade") - us("core.software"),
        );
        m.insert(
            "core.facade_accel_self_share",
            1.0 - over(us("accel.compress"), us("core.facade_accel")),
        );
        m.insert(
            "core.facade_lock_scaling",
            threads as f64 * over(us("core.facade_1t"), us("core.facade_mt")),
        );
        m.insert(
            "core.scratch_gain_share",
            1.0 - over(us("core.scratch"), us("core.facade")),
        );
        m.insert("core.async_hop_us", us("core.async") - us("core.facade"));
        m.insert(
            "core.service_self_us_per_req",
            us("core.service") - us("core.facade"),
        );
        m.insert("core.service_p50_us", us("core.service"));
        m.insert("core.service_p99_us", get("core.service").p99_ns / 1e3);
        // requests per nanosecond of the median depth-8 pass
        m.insert(
            "core.service_depth8_req_per_s",
            over(1e9, rate("core.service_depth8")),
        );
        m.insert(
            "core.parallel_shard_overhead_share",
            1.0 - over(us("core.parallel_serial"), us("core.parallel_1w")),
        );
        m.insert(
            "core.parallel_scaling",
            over(us("core.parallel_1w"), us("core.parallel_tw")),
        );
        // bytes per microsecond = MB/s
        m.insert(
            "core.pinflate_serial_mb_per_s",
            over(1e3, rate("core.pinflate_serial")),
        );
        m.insert(
            "core.pinflate_single_over_serial",
            over(us("core.pinflate_serial"), us("core.pinflate_single")),
        );
        m.insert(
            "core.pinflate_multi_over_serial",
            over(us("core.pinflate_serial"), us("core.pinflate_multi")),
        );
        m.insert(
            "core.seek_index_build_ms",
            us("core.seek_index_build") / 1e3,
        );
        m.insert(
            "telemetry.always_overhead_share",
            over(us("core.facade_telemetry"), us("core.facade")) - 1.0,
        );
        m.insert(
            "corpus.generate_mb_per_s",
            over(generated_bytes as f64, us("corpus.generate")),
        );

        // The ledger: the workload's composite request against the layer
        // calls it decomposes into, per request. Only the children of a
        // synthetic request span count as layer time — the parent's own
        // self time is benchmark glue, not the program.
        let ladder = us_per("ledger.checksum", "ledger.request")
            + ladder_us
            + us_per("ledger.frame", "ledger.request");
        let (end_to_end, layers) = match kind {
            Kind::BulkSoftware => (us("ledger.composite"), ladder),
            // Worker-microseconds: T workers are busy or idle all call long.
            Kind::ParallelIo => (us("ledger.composite") * threads as f64, ladder),
            Kind::SmallRpc => (
                us("core.service"),
                us("ledger.canned_checksum") + us("deflate.canned") + us("ledger.canned_frame"),
            ),
            Kind::AccelModel => (
                us("ledger.composite"),
                us("ledger.accel_engine") + us("ledger.accel_checksum") + us("ledger.accel_frame"),
            ),
        };
        m.insert(
            "ledger.residual_share",
            over(end_to_end - layers, end_to_end),
        );

        for (name, value) in m {
            run.set(name, value);
        }
        tr
    }
}

/// Sums of the cycle breakdown the model reports per request.
#[derive(Default)]
struct CycleSums {
    input: u64,
    cycles: u64,
    bank_stall: u64,
    huffman_tail: u64,
    overhead: u64,
    tokens: u64,
    discarded: u64,
}

impl CycleSums {
    fn add(&mut self, r: &CompressReport) {
        self.input += r.input_bytes;
        self.cycles += r.cycles;
        self.bank_stall += r.bank_stall_cycles;
        self.huffman_tail += r.huffman_tail_cycles;
        self.overhead += r.overhead_cycles;
        self.tokens += r.tokens;
        self.discarded += r.discarded_matches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_requests_are_cut_from_the_stretch_of_their_class() {
        let sample = [Request {
            data: nx_corpus::mixed(7, 1 << 20),
            profile: None,
        }];
        let small = small_requests(Kind::BulkSoftware, &sample);
        assert_eq!(small.len(), 60);
        assert!(small.iter().all(|r| r.data.len() == RPC_PAYLOAD));
        assert!(small.iter().all(|r| r.profile.is_some()));
        assert_ne!(small[0].profile, small[1].profile);
        let share = (1 << 20) / CorpusKind::all().len();
        for (i, class) in RPC_CLASSES.into_iter().enumerate() {
            assert_eq!(small[i].data, class.generate(7, share)[..RPC_PAYLOAD]);
        }
    }
}
