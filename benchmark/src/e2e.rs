//! The untraced run: every end-to-end metric of one workload, measured on
//! that workload's own inputs with tracing off.
//!
//! A workload first produces and checks its reference outputs (outside
//! any timed region), then hands its sections to
//! [`run_interleaved`](crate::harness::run_interleaved). Every section is
//! a closed loop with one request in flight: the next request is issued
//! only after the previous one completed. A timed pass re-checks what is
//! cheap to re-check — the bytes each call produced — and the reported
//! value is that of the median pass (see [`Timed`](crate::harness::Timed)),
//! every time in it scaled to the reference host's speed (see
//! [`Meter`]).

use crate::harness::{
    check_roundtrips, check_with_system_gzip, mb_per_s, run_interleaved, Outcome, RoundStats, Run,
    Section, Timed,
};
use crate::reference::{HostSpeed, Meter};
use crate::stats::median;
use crate::workload::{
    canned_opts, fastest_opts, inflate_options, primary_opts, shard_options, Inputs, Kind, Request,
};
use nx_core::{profiles, software, CompressOptions, Format, Nx};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Fewest times the set-up is repeated; `setup_s` is the median, like
/// every other host-clock value here.
pub const SETUP_REPS: usize = 5;

/// Most times the set-up is repeated.
const SETUP_MAX_REPS: usize = 25;

/// Time the repeated set-ups may take before they stop at
/// [`SETUP_REPS`]: cheap set-ups (tens of milliseconds, which no single
/// timing holds steady) get more tries.
const SETUP_BUDGET_S: f64 = 1.5;

/// Requests per latency round: 1 000 leave ten samples beyond p99, the
/// fewest a percentile may be reported from.
const ROUND_REQUESTS: usize = 1_000;

/// Requests per `small_rpc` round: twenty cycles over the 60 payloads
/// (twelve beyond p99). A round this short (~40 ms) sits inside one of the
/// host's fast or slow stretches, so its p99 is the tail of the requests
/// and not the boundary between two stretches.
const RPC_ROUND_REQUESTS: usize = 1_200;

/// Size of a ranged read in `parallel_io`.
const SEEK_READ: usize = 64 << 10;

/// Runs `setup` between [`SETUP_REPS`] and [`SETUP_MAX_REPS`] times, as
/// [`SETUP_BUDGET_S`] allows, and returns the last result with the
/// median time (at the reference host's speed, like every time here).
pub fn timed_setup<T>(host: &mut HostSpeed, mut setup: impl FnMut() -> T) -> (T, f64) {
    let started = Instant::now();
    let mut meter = Meter::new(host);
    let mut last = None;
    while meter.times.len() < SETUP_REPS
        || (meter.times.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(last.take());
        last = Some(meter.time(&mut setup));
    }
    (
        last.expect("SETUP_REPS is at least one"),
        median(&meter.times),
    )
}

/// Runs the untraced sections of `kind` and fills `run.metrics` with
/// every end-to-end metric.
pub fn run(kind: Kind, run: &mut Run) {
    match kind {
        Kind::BulkSoftware => bulk_software(run),
        Kind::SmallRpc => small_rpc(run),
        Kind::AccelModel => accel_model(run),
        Kind::ParallelIo => parallel_io(run),
    }
    run.set("peak_rss_mib", crate::host::peak_rss_mib());
}

fn payloads(requests: &[Request]) -> Vec<&[u8]> {
    requests.iter().map(|r| r.data.as_slice()).collect()
}

fn total_len(bufs: &[Vec<u8>]) -> u64 {
    bufs.iter().map(|b| b.len() as u64).sum()
}

fn input_len(bufs: &[&[u8]]) -> u64 {
    bufs.iter().map(|b| b.len() as u64).sum()
}

fn ratio(inputs: &[&[u8]], outputs: &[Vec<u8>]) -> f64 {
    input_len(inputs) as f64 / total_len(outputs).max(1) as f64
}

fn compress_with(nx: &Nx, d: &[u8], format: Format, opts: CompressOptions) -> Option<Vec<u8>> {
    nx.compress_with(d, format, opts).ok().map(|c| c.bytes)
}

/// `call` over every input, untimed: the reference outputs the checks
/// decode and the timed passes compare their byte counts with.
fn reference(inputs: &[&[u8]], mut call: impl FnMut(&[u8]) -> Option<Vec<u8>>) -> Vec<Vec<u8>> {
    inputs.iter().map(|d| call(d).unwrap_or_default()).collect()
}

/// A compress section: a pass is `call` on the next `per_pass` inputs
/// (in turn, wrapping around), one request in flight, each call timed on
/// its own. Megabyte requests are a pass each, so a section has ten times
/// the passes to take its median from and a slow stretch of the host
/// spoils single requests, not rounds of them. A call is good when it
/// produced as many bytes as its reference.
fn compress_section<'a>(
    name: &'static str,
    weight: f64,
    per_pass: usize,
    inputs: &'a [&'a [u8]],
    expect: &'a [Vec<u8>],
    mut call: impl FnMut(&[u8]) -> Option<Vec<u8>> + 'a,
) -> Section<'a> {
    let mut turn = (0..inputs.len()).cycle();
    Section::new(name, weight, move |meter| {
        let mut bad = 0;
        for i in turn.by_ref().take(per_pass) {
            let got = meter.time(|| call(black_box(inputs[i])));
            bad += u64::from(got.is_none_or(|o| o.len() != expect[i].len()));
        }
        Outcome {
            ops: per_pass as u64,
            bad,
        }
    })
}

/// Decodes every stream once, untimed, and compares it with its source.
fn check_decodes(
    run: &mut Run,
    what: &str,
    streams: &[Vec<u8>],
    originals: &[&[u8]],
    mut call: impl FnMut(usize, &[u8], &mut Vec<u8>) -> bool,
) {
    let mut buf = Vec::new();
    for (i, (s, orig)) in streams.iter().zip(originals).enumerate() {
        let ok = call(i, s, &mut buf);
        run.tally.check(
            ok && buf == *orig,
            &format!("{what}: stream {i} does not decode to its source"),
        );
    }
}

/// A decode section: a pass decodes the next `per_pass` streams (in turn,
/// like [`compress_section`]) into a reused buffer, each call timed on
/// its own. A call is good when its output has its source's length (the
/// bytes were compared once by [`check_decodes`]).
fn decode_section<'a>(
    name: &'static str,
    weight: f64,
    per_pass: usize,
    streams: &'a [Vec<u8>],
    originals: &'a [&'a [u8]],
    mut call: impl FnMut(usize, &[u8], &mut Vec<u8>) -> bool + 'a,
) -> Section<'a> {
    let mut buf = Vec::new();
    let mut turn = (0..streams.len()).cycle();
    Section::new(name, weight, move |meter| {
        let mut bad = 0;
        for i in turn.by_ref().take(per_pass) {
            let ok = meter.time(|| call(i, black_box(&streams[i]), &mut buf));
            bad += u64::from(!(ok && buf.len() == originals[i].len()));
        }
        Outcome {
            ops: per_pass as u64,
            bad,
        }
    })
}

/// A closed-loop latency section, one request in flight: `op(i)` performs
/// request `i` inside the per-request timestamps; `ok(i, out)` judges its
/// output outside them.
fn latency_section<'a, T>(
    name: &'static str,
    weight: f64,
    requests: usize,
    mut op: impl FnMut(usize) -> Option<T> + 'a,
    ok: impl Fn(usize, &T) -> bool + 'a,
) -> Section<'a> {
    Section::new(name, weight, move |meter| {
        let mut bad = 0;
        for i in 0..requests {
            let out = meter.time(|| op(i));
            bad += u64::from(!out.is_some_and(|o| ok(i, &o)));
        }
        Outcome {
            ops: requests as u64,
            bad,
        }
    })
}

fn set_round(run: &mut Run, r: RoundStats) {
    run.set("req_per_s", r.req_per_s);
    run.set("req_p50_us", r.p50_us);
    run.set("req_p99_us", r.p99_us);
}

/// The modeled clock on this workload's requests: each goes through the
/// accelerator model once (the numbers are cycle counts, so one pass is
/// exact) and the throughput is `sum(bytes) * freq / sum(cycles)`.
fn modeled(run: &mut Run, nx: &Nx, requests: &[Request], format: Format) {
    let (mut cin, mut ccyc, mut dout, mut dcyc) = (0u64, 0u64, 0u64, 0u64);
    let freq = nx.config().freq_ghz;
    for d in payloads(requests) {
        let Ok(c) = nx.compress(d, format) else {
            run.tally.add(1, 1);
            continue;
        };
        cin += c.report.input_bytes;
        ccyc += c.report.cycles;
        let back = nx.decompress(&c.bytes, format);
        run.tally.check(
            back.as_ref().is_ok_and(|b| b.bytes == d),
            "modeled: accelerator round trip",
        );
        if let Ok(b) = back {
            dout += b.report.output_bytes;
            dcyc += b.report.cycles;
        }
    }
    run.set(
        "modeled_compress_gb_per_s",
        cin as f64 * freq / ccyc.max(1) as f64,
    );
    run.set(
        "modeled_decompress_gb_per_s",
        dout as f64 * freq / dcyc.max(1) as f64,
    );
}

/// `chunk`-sized slices of `inputs`, up to `count` of them.
fn slices<'a>(inputs: &[&'a [u8]], chunk: usize, count: usize) -> Vec<&'a [u8]> {
    inputs
        .iter()
        .flat_map(|d| d.chunks_exact(chunk))
        .take(count)
        .collect()
}

/// `Nx::decompress_parallel_with` on `workers` workers, into `out`.
fn parallel_decode(nx: &Nx, s: &[u8], format: Format, workers: usize, out: &mut Vec<u8>) -> bool {
    match nx.decompress_parallel_with(s, format, inflate_options(workers)) {
        Ok(v) => {
            *out = v;
            true
        }
        Err(_) => false,
    }
}

/// Runs the sections, then records `metric = MB/s` for every `(section,
/// bytes a pass of it handles)` — the section's name is its metric — and
/// the passes behind every section.
fn measure(
    run: &mut Run,
    mut sections: Vec<Section<'_>>,
    throughput: &[(&'static str, u64)],
) -> BTreeMap<&'static str, Timed> {
    let timed = run_interleaved(run.seconds, &mut sections, &mut run.tally, &mut run.host);
    drop(sections);
    for &(metric, bytes) in throughput {
        run.set(metric, mb_per_s(bytes, timed[metric].median_pass_secs()));
    }
    for (name, t) in &timed {
        run.samples.insert(name, t.passes());
    }
    timed
}

// ---------------------------------------------------------------------
// bulk_software
// ---------------------------------------------------------------------

fn bulk_software(run: &mut Run) {
    let seed = run.seed;
    let (inputs, setup_s) =
        timed_setup(&mut run.host, || Inputs::generate(Kind::BulkSoftware, seed));
    run.set("setup_s", setup_s);
    run.inputs_digest = inputs.digest();
    let format = Kind::BulkSoftware.format();
    let data = payloads(&inputs.requests);
    let nx = Nx::power9();
    let level6 = primary_opts(Kind::BulkSoftware, &inputs.requests[0]);

    let fast = reference(&data, |d| compress_with(&nx, d, format, fastest_opts()));
    let deep = reference(&data, |d| compress_with(&nx, d, format, level6));
    for (what, outputs) in [("fastest", &fast), ("level 6", &deep)] {
        check_roundtrips(&mut run.tally, what, outputs, &data, format, |_| &[]);
        check_with_system_gzip(&mut run.tally, what, &outputs[0], data[0]);
    }
    run.set("ratio_fastest", ratio(&data, &fast));
    run.set("ratio", ratio(&data, &deep));

    let mut session = nx.scratch_session_with(level6);
    check_decodes(run, "scratch inflate", &deep, &data, |_, s, out| {
        session.decompress_into(s, format, out).is_ok()
    });

    // Mid-size read requests: 32 KiB slices at level 6, decoded through a
    // scratch session of their own. A round of them takes ~50 ms, short
    // enough to sit inside one of the host's fast or slow stretches.
    let mid = slices(&data, 32 << 10, ROUND_REQUESTS);
    let mid_out = reference(&mid, |d| compress_with(&nx, d, format, level6));
    let mut reader = nx.scratch_session_with(level6);
    let mut read = Vec::new();
    check_decodes(run, "32 KiB", &mid_out, &mid, |_, s, out| {
        reader.decompress_into(s, format, out).is_ok()
    });

    let sections = vec![
        compress_section("compress_fastest_mb_per_s", 0.24, 1, &data, &fast, |d| {
            compress_with(&nx, d, format, fastest_opts())
        }),
        compress_section("compress_mb_per_s", 0.40, 1, &data, &deep, |d| {
            compress_with(&nx, d, format, level6)
        }),
        decode_section("decompress_mb_per_s", 0.14, 1, &deep, &data, |_, s, out| {
            session.decompress_into(s, format, out).is_ok()
        }),
        latency_section(
            "requests",
            0.22,
            mid.len(),
            |i| {
                reader
                    .decompress_into(black_box(&mid_out[i]), format, &mut read)
                    .ok()
                    .map(|_| read.len())
            },
            |i, len| *len == mid[i].len(),
        ),
    ];
    // A pass is one buffer; they are all one size.
    let bytes = data[0].len() as u64;
    let timed = measure(
        run,
        sections,
        &[
            ("compress_fastest_mb_per_s", bytes),
            ("compress_mb_per_s", bytes),
            ("decompress_mb_per_s", bytes),
        ],
    );
    set_round(run, timed["requests"].latency());
    // The modeled clock on one whole buffer (every content class).
    modeled(run, &nx, &inputs.requests[..1], format);
}

// ---------------------------------------------------------------------
// small_rpc
// ---------------------------------------------------------------------

fn small_rpc(run: &mut Run) {
    let seed = run.seed;
    let (inputs, setup_s) = timed_setup(&mut run.host, || {
        // The default registry trains once per process, so its training is
        // timed through the public trainer it is built from.
        black_box(profiles::train_registry(
            nx_deflate::CompressionLevel::new(3).expect("3 is a valid level"),
        ));
        Inputs::generate(Kind::SmallRpc, seed)
    });
    run.set("setup_s", setup_s);
    run.inputs_digest = inputs.digest();
    let format = Kind::SmallRpc.format();
    let data = payloads(&inputs.requests);
    let n = data.len();
    let nx = Nx::power9();
    let registry = profiles::default_registry();
    let dict_of = |i: usize| -> &[u8] {
        inputs.requests[i]
            .profile
            .and_then(|id| registry.get(id))
            .map_or(&[][..], |p| p.dict())
    };
    let canned_call =
        |i: usize| compress_with(&nx, data[i], format, canned_opts(&inputs.requests[i]));

    // Reference outputs, checked before any timing.
    let canned: Vec<Vec<u8>> = (0..n).map(|i| canned_call(i).unwrap_or_default()).collect();
    check_roundtrips(&mut run.tally, "canned", &canned, &data, format, dict_of);
    run.set("ratio", ratio(&data, &canned));

    let dict_decode = |i: usize, s: &[u8], out: &mut Vec<u8>| match software::decompress_with_dict(
        s,
        format,
        dict_of(i),
    ) {
        Ok(v) => {
            *out = v;
            true
        }
        Err(_) => false,
    };
    check_decodes(run, "dict decode", &canned, &data, dict_decode);

    // The Fastest rung on the same payloads: dynamic tables per request,
    // no dictionary — what the canned profile is an alternative to.
    let fast = reference(&data, |d| compress_with(&nx, d, format, fastest_opts()));
    check_roundtrips(&mut run.tally, "fastest", &fast, &data, format, |_| &[]);
    run.set("ratio_fastest", ratio(&data, &fast));

    let sections = vec![
        // The canned request in the caller's thread, one in flight.
        latency_section(
            "requests",
            0.56,
            RPC_ROUND_REQUESTS,
            |k| canned_call(k % n),
            |k, out| out.len() == canned[k % n].len(),
        ),
        // Decode of the FDICT streams those requests produced.
        decode_section("decompress_mb_per_s", 0.22, n, &canned, &data, dict_decode),
        compress_section("compress_fastest_mb_per_s", 0.22, n, &data, &fast, |d| {
            compress_with(&nx, d, format, fastest_opts())
        }),
    ];
    let bytes = input_len(&data);
    let timed = measure(
        run,
        sections,
        &[
            ("decompress_mb_per_s", bytes),
            ("compress_fastest_mb_per_s", bytes),
        ],
    );
    let requests = timed["requests"].latency();
    set_round(run, requests);
    run.set(
        "compress_mb_per_s",
        requests.req_per_s * data[0].len() as f64 / 1e6,
    );

    // The paper's E1/E6 shape: 2 KiB requests on the modeled engine.
    modeled(run, &nx, &inputs.requests, format);
}

// ---------------------------------------------------------------------
// accel_model
// ---------------------------------------------------------------------

fn accel_model(run: &mut Run) {
    let seed = run.seed;
    let (inputs, setup_s) = timed_setup(&mut run.host, || Inputs::generate(Kind::AccelModel, seed));
    run.set("setup_s", setup_s);
    run.inputs_digest = inputs.digest();
    let format = Kind::AccelModel.format();
    let data = payloads(&inputs.requests);
    let nx = Nx::power9();
    let accel_compress = |nx: &Nx, d: &[u8]| nx.compress(d, format).ok().map(|c| c.bytes);
    let accel_decode = |s: &[u8], out: &mut Vec<u8>| match nx.decompress(s, format) {
        Ok(d) => {
            *out = d.bytes;
            true
        }
        Err(_) => false,
    };

    // The modeled clock over the whole workload: its pass is also the
    // byte-for-byte check of the model's compress and decompress.
    modeled(run, &nx, &inputs.requests, format);
    let accel = reference(&data, |d| accel_compress(&nx, d));
    check_roundtrips(&mut run.tally, "accel", &accel, &data, format, |_| &[]);
    check_with_system_gzip(&mut run.tally, "accel", &accel[0], data[0]);
    run.set("ratio", ratio(&data, &accel));

    // The software floor on the same buffers.
    let fast = reference(&data, |d| compress_with(&nx, d, format, fastest_opts()));
    check_roundtrips(&mut run.tally, "fastest", &fast, &data, format, |_| &[]);
    run.set("ratio_fastest", ratio(&data, &fast));

    // The E1/E6 shape in host time: 1 KiB requests through the model (a
    // round of them takes ~60 ms).
    let small = slices(&data, 1 << 10, ROUND_REQUESTS);
    let small_out = reference(&small, |d| accel_compress(&nx, d));
    check_roundtrips(&mut run.tally, "1 KiB", &small_out, &small, format, |_| &[]);

    let sections = vec![
        compress_section("compress_mb_per_s", 0.54, 1, &data, &accel, |d| {
            accel_compress(&nx, d)
        }),
        decode_section(
            "decompress_mb_per_s",
            0.14,
            1,
            &accel,
            &data,
            |_, s, out| accel_decode(s, out),
        ),
        compress_section("compress_fastest_mb_per_s", 0.14, 1, &data, &fast, |d| {
            compress_with(&nx, d, format, fastest_opts())
        }),
        latency_section(
            "requests",
            0.18,
            small.len(),
            |i| accel_compress(&nx, black_box(small[i])),
            |i, out| out.len() == small_out[i].len(),
        ),
    ];
    // A pass is one buffer; they are all one size.
    let bytes = data[0].len() as u64;
    let timed = measure(
        run,
        sections,
        &[
            ("compress_mb_per_s", bytes),
            ("decompress_mb_per_s", bytes),
            ("compress_fastest_mb_per_s", bytes),
        ],
    );
    set_round(run, timed["requests"].latency());
}

// ---------------------------------------------------------------------
// parallel_io
// ---------------------------------------------------------------------

/// Members of the multi-member gzip `parallel_io` decodes and seeks in.
const IO_MEMBERS: usize = 32;

fn parallel_io(run: &mut Run) {
    let seed = run.seed;
    let nx = Nx::power9();
    let format = Kind::ParallelIo.format();
    // Set-up: the corpus, its 32-member gzip and the seek index over that.
    let ((inputs, members, index), setup_s) = timed_setup(&mut run.host, || {
        let inputs = Inputs::generate(Kind::ParallelIo, seed);
        let data = &inputs.requests[0].data;
        let mut members = Vec::with_capacity(data.len() / 2);
        for part in data.chunks(data.len() / IO_MEMBERS) {
            members.extend(compress_with(&nx, part, format, fastest_opts()).unwrap_or_default());
        }
        let index = nx.build_index(&members, format).ok();
        (inputs, members, index)
    });
    run.set("setup_s", setup_s);
    run.inputs_digest = inputs.digest();
    let data: &[u8] = &inputs.requests[0].data;
    let whole = [data];
    let members = [members];
    let threads = run.threads;
    let session = |workers: usize| nx.parallel_session(shard_options(workers), 6);
    let many = session(threads);

    let sharded = reference(&whole, |d| many.compress(d, format).ok());
    let serial = reference(&whole, |d| session(1).compress(d, format).ok());
    run.tally.check(
        sharded == serial,
        "sharded: worker count changes the output",
    );
    check_roundtrips(&mut run.tally, "sharded", &sharded, &whole, format, |_| &[]);
    check_with_system_gzip(&mut run.tally, "sharded", &sharded[0], data);
    check_with_system_gzip(&mut run.tally, "members", &members[0], data);
    run.set("ratio", ratio(&whole, &sharded));
    let fast = reference(&whole, |d| compress_with(&nx, d, format, fastest_opts()));
    check_roundtrips(&mut run.tally, "fastest", &fast, &whole, format, |_| &[]);
    run.set("ratio_fastest", ratio(&whole, &fast));
    check_decodes(run, "members", &members, &whole, |_, s, out| {
        parallel_decode(&nx, s, format, threads, out)
    });

    // Ranged reads at seeded offsets over the index built in set-up.
    run.tally.check(index.is_some(), "seek index builds");
    let mut state = seed | 1;
    let offsets: Vec<usize> = (0..ROUND_REQUESTS)
        .map(|_| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % (data.len() - SEEK_READ) as u64) as usize
        })
        .collect();

    let sections = vec![
        compress_section("compress_mb_per_s", 0.28, 1, &whole, &sharded, |d| {
            many.compress(d, format).ok()
        }),
        compress_section("compress_fastest_mb_per_s", 0.16, 1, &whole, &fast, |d| {
            compress_with(&nx, d, format, fastest_opts())
        }),
        decode_section(
            "decompress_mb_per_s",
            0.14,
            1,
            &members,
            &whole,
            |_, s, out| parallel_decode(&nx, s, format, threads, out),
        ),
        latency_section(
            "requests",
            0.42,
            offsets.len(),
            |i| {
                let index = index.as_ref()?;
                nx.decompress_at(&members[0], index, offsets[i] as u64, SEEK_READ)
                    .ok()
            },
            |i, got| got == &data[offsets[i]..offsets[i] + SEEK_READ],
        ),
    ];
    let bytes = data.len() as u64;
    let timed = measure(
        run,
        sections,
        &[
            ("compress_mb_per_s", bytes),
            ("compress_fastest_mb_per_s", bytes),
            ("decompress_mb_per_s", bytes),
        ],
    );
    set_round(run, timed["requests"].latency());
    modeled(run, &nx, &inputs.requests, format);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_cut_exact_chunks_up_to_the_count() {
        let a = vec![0u8; 10];
        let b = vec![1u8; 7];
        let s = slices(&[&a, &b], 4, 3);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|c| c.len() == 4));
        assert_eq!(s[2], &[1, 1, 1, 1]);
    }

    #[test]
    fn timed_setup_reports_the_median_and_keeps_the_last_result() {
        let mut n = 0;
        let (last, secs) = timed_setup(&mut HostSpeed::new(), || {
            n += 1;
            n
        });
        // A set-up this cheap runs until the cap, and the last result is
        // the one handed back.
        assert_eq!(last, SETUP_MAX_REPS);
        assert!(secs >= 0.0);
    }
}
