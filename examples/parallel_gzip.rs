//! Parallel gzip (pigz-style) on the nx stack, both directions.
//!
//! Compression: the library's [`nx_core::parallel`] engine shards one
//! input across a persistent worker pool and still emits a single valid
//! gzip member — each worker compresses its shard primed with the
//! previous shard's trailing 32 KB (so cross-shard matches survive),
//! ends it byte-aligned with a sync flush, and the coordinator stitches
//! the shards and folds the per-shard CRCs with `crc32_combine` —
//! no serial pass over the input anywhere.
//!
//! Decompression: a multi-member stream decodes member-per-worker, its
//! trailers saying where each member's output goes; a single member
//! decodes serially, because without an index nothing says where its
//! blocks begin or what 32 KB of history each one needs.
//!
//! Run with: `cargo run --release --example parallel_gzip [workers]`

use nx_core::parallel::{ParallelEngine, ParallelOptions};
use nx_core::{Format, ParallelInflateOptions, ParallelInflater};
use nx_deflate::CompressionLevel;
use std::time::Instant;

fn main() {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
    let level = CompressionLevel::default();
    let data = nx_corpus::mixed(2026, 32 << 20);
    println!(
        "input: {} MiB mixed corpus, level {level}, {workers} worker(s)\n",
        data.len() >> 20
    );

    let t0 = Instant::now();
    let serial = nx_core::software::compress(&data, level, Format::Gzip);
    let t_serial = t0.elapsed();

    let engine = ParallelEngine::new(ParallelOptions {
        workers,
        ..ParallelOptions::default()
    });
    let t0 = Instant::now();
    let parallel = engine
        .compress(&data, level.get(), Format::Gzip)
        .expect("pool alive");
    let t_parallel = t0.elapsed();

    // Both must be valid gzip of the same payload.
    assert_eq!(nx_deflate::gzip::decompress(&serial).unwrap(), data);
    assert_eq!(nx_deflate::gzip::decompress(&parallel).unwrap(), data);

    println!(
        "serial   : {:>8.1} ms  ({:>6.1} MB/s)  {} bytes",
        t_serial.as_secs_f64() * 1e3,
        data.len() as f64 / t_serial.as_secs_f64() / 1e6,
        serial.len()
    );
    println!(
        "parallel : {:>8.1} ms  ({:>6.1} MB/s)  {} bytes  (speedup {:.2}x)",
        t_parallel.as_secs_f64() * 1e3,
        data.len() as f64 / t_parallel.as_secs_f64() / 1e6,
        parallel.len(),
        t_serial.as_secs_f64() / t_parallel.as_secs_f64()
    );
    println!(
        "\nsize cost of sharding: {:+.2}% (shard seams; cross-shard matches kept via 32 KB dictionary hand-off)",
        (parallel.len() as f64 / serial.len() as f64 - 1.0) * 100.0
    );
    println!(
        "compressed {} shards across {} workers; trailer CRC folded with crc32_combine.",
        engine.stats().shards(),
        workers
    );

    // ---- Decode side: serial inflate vs the parallel inflater's routes. ----
    let inf = ParallelInflater::new(ParallelInflateOptions {
        workers,
        ..Default::default()
    });

    // Multi-member stream (what pigz-style tools concatenate): one
    // member per worker, embarrassingly parallel.
    let multi: Vec<u8> = data
        .chunks(4 << 20)
        .flat_map(|c| nx_core::software::compress(c, level, Format::Gzip))
        .collect();
    let t0 = Instant::now();
    let s = inf
        .decompress_serial(&multi, Format::Gzip)
        .expect("serial members walk");
    let t_ser = t0.elapsed();
    let t0 = Instant::now();
    let p = inf.decompress(&multi, Format::Gzip).expect("parallel");
    let t_par = t0.elapsed();
    assert_eq!(s, p);
    println!(
        "\ninflate, multi-member ({} members):\n  serial   : {:>8.1} ms ({:>6.1} MB/s)\n  parallel : {:>8.1} ms ({:>6.1} MB/s)  speedup {:.2}x",
        inf.stats().members_parallel(),
        t_ser.as_secs_f64() * 1e3,
        data.len() as f64 / t_ser.as_secs_f64() / 1e6,
        t_par.as_secs_f64() * 1e3,
        data.len() as f64 / t_par.as_secs_f64() / 1e6,
        t_ser.as_secs_f64() / t_par.as_secs_f64()
    );

    // Single member: no index names its split points, so it decodes
    // serially at any worker count.
    let t0 = Instant::now();
    let s = nx_core::software::decompress(&serial, Format::Gzip).expect("serial");
    let t_ser = t0.elapsed();
    let t0 = Instant::now();
    let p = inf.decompress(&serial, Format::Gzip).expect("parallel");
    let t_par = t0.elapsed();
    assert_eq!(s, p);
    println!(
        "inflate, single member (serial: no index names its split points):\n  serial   : {:>8.1} ms ({:>6.1} MB/s)\n  routed   : {:>8.1} ms ({:>6.1} MB/s)  {:.2}x",
        t_ser.as_secs_f64() * 1e3,
        data.len() as f64 / t_ser.as_secs_f64() / 1e6,
        t_par.as_secs_f64() * 1e3,
        data.len() as f64 / t_par.as_secs_f64() / 1e6,
        t_ser.as_secs_f64() / t_par.as_secs_f64()
    );
    println!(
        "  {} member(s) fanned out, {} serial fallback(s) in all",
        inf.stats().members_parallel(),
        inf.stats().serial_fallbacks()
    );
}
