//! A minimal gzip-compatible CLI over the nx stack.
//!
//! ```text
//! cargo run --release --example gzip_cli -- compress   <in> <out.gz> [--software | --z15 | --stream]
//! cargo run --release --example gzip_cli -- decompress <in.gz> <out> [--software | --parallel[=N]]
//! cargo run --release --example gzip_cli -- decompress <in.gz> <out> --seek OFFSET:LEN
//! ```
//!
//! `decompress` may be spelled `-d` or `--decompress`. `--stream`
//! compresses through the chunked CRB session (1 MiB chunks with the
//! 32 KB window carried across chunks) instead of one large request.
//! `--parallel[=N]` decodes through the parallel inflate path with `N`
//! workers (default: all host cores): a multi-member file decodes
//! member-per-worker, a single member serially; it prints the members
//! fanned out and the serial fallbacks. `--seek OFFSET:LEN` builds a seek
//! index and extracts only the requested byte range without decoding
//! the prefix. Files produced here are standard RFC 1952 gzip members;
//! files from any gzip implementation decode here, including
//! multi-member concatenations.

use nx_core::{software, Format, Nx, ParallelInflateOptions};
use nx_deflate::CompressionLevel;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gzip_cli: {e}");
            eprintln!("usage: gzip_cli compress|decompress <input> <output> [--software | --z15]");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    if args.len() < 3 {
        return Err("missing arguments".into());
    }
    let mode = match args[0].as_str() {
        "-d" | "--decompress" => "decompress",
        m => m,
    };
    let input = std::fs::read(&args[1]).map_err(|e| format!("read {}: {e}", args[1]))?;
    let flag = args.get(3).map(String::as_str);

    let (output, note) = match (mode, flag) {
        ("compress", Some("--software")) => {
            let t0 = std::time::Instant::now();
            let out = software::compress(&input, CompressionLevel::default(), Format::Gzip);
            (
                out,
                format!(
                    "software zlib-6, {:.1} ms",
                    t0.elapsed().as_secs_f64() * 1e3
                ),
            )
        }
        ("compress", Some("--stream")) => {
            // Chunked CRB session: one gzip member produced incrementally.
            let mut s = nx_core::GzipStream::accelerated(nx_accel::AccelConfig::power9());
            let mut out = Vec::new();
            for chunk in input.chunks(1 << 20) {
                out.extend(s.write(chunk));
            }
            out.extend(s.finish());
            let note = format!(
                "POWER9-NX chunked: {} CRB-chunk(s), {} modeled engine cycles",
                input.len().div_ceil(1 << 20).max(1),
                s.engine_cycles()
            );
            (out, note)
        }
        ("compress", z) => {
            let nx = if z == Some("--z15") {
                Nx::z15()
            } else {
                Nx::power9()
            };
            let c = nx
                .compress(&input, Format::Gzip)
                .map_err(|e| e.to_string())?;
            let note = format!(
                "{}: {:.1} GB/s modeled, {:.1} us modeled latency",
                c.report.config_name,
                c.report.throughput_gbps(),
                c.report.latency_secs() * 1e6
            );
            (c.bytes, note)
        }
        ("decompress", Some("--software")) => {
            // Accept multi-member files, as gzip tools do.
            let mut out = Vec::new();
            let mut n = 0usize;
            for member in nx_deflate::gzip::members(&input) {
                let (payload, _) = member.map_err(|e| e.to_string())?;
                out.extend(payload);
                n += 1;
            }
            (out, format!("software inflate, {n} member(s)"))
        }
        ("decompress", Some(f)) if f == "--parallel" || f.starts_with("--parallel=") => {
            let workers = match f.strip_prefix("--parallel=") {
                Some(n) => n
                    .parse::<usize>()
                    .map_err(|_| format!("bad worker count in {f}"))?,
                None => std::thread::available_parallelism().map_or(4, usize::from),
            };
            let nx = Nx::power9();
            let opts = ParallelInflateOptions {
                workers,
                ..Default::default()
            };
            let t0 = std::time::Instant::now();
            let out = nx
                .decompress_parallel_with(&input, Format::Gzip, opts)
                .map_err(|e| e.to_string())?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let s = nx.decode_parallel_stats();
            let note = format!(
                "parallel inflate, {workers} worker(s), {:.1} ms: \
                 {} member(s) fanned out, {} serial fallback(s)",
                ms,
                s.members_parallel(),
                s.serial_fallbacks()
            );
            (out, note)
        }
        ("decompress", Some("--seek")) => {
            let spec = args
                .get(4)
                .ok_or_else(|| "--seek needs OFFSET:LEN".to_string())?;
            let (off, len) = spec
                .split_once(':')
                .and_then(|(o, l)| Some((o.parse::<u64>().ok()?, l.parse::<usize>().ok()?)))
                .ok_or_else(|| format!("bad --seek spec {spec} (want OFFSET:LEN)"))?;
            let nx = Nx::power9();
            let t0 = std::time::Instant::now();
            let index = nx
                .build_index(&input, Format::Gzip)
                .map_err(|e| e.to_string())?;
            let t_index = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = std::time::Instant::now();
            let out = nx
                .decompress_at(&input, &index, off, len)
                .map_err(|e| e.to_string())?;
            let t_seek = t1.elapsed().as_secs_f64() * 1e6;
            let note = format!(
                "seek [{off}..+{len}]: {} checkpoint(s) indexed in {t_index:.1} ms \
                 ({} bytes serialized), range extracted in {t_seek:.1} us",
                index.checkpoints().len(),
                index.to_bytes().len()
            );
            (out, note)
        }
        ("decompress", _) => {
            let nx = Nx::power9();
            let d = nx
                .decompress(&input, Format::Gzip)
                .map_err(|e| e.to_string())?;
            let note = format!(
                "{}: {:.1} GB/s modeled",
                d.report.config_name,
                d.report.throughput_gbps()
            );
            (d.bytes, note)
        }
        _ => return Err(format!("unknown mode {mode}")),
    };

    std::fs::write(&args[2], &output).map_err(|e| format!("write {}: {e}", args[2]))?;
    Ok(format!(
        "{} -> {} ({} -> {} bytes) [{note}]",
        args[1],
        args[2],
        input.len(),
        output.len()
    ))
}
