//! E21 — Deflate compress-side ladder: per-rung ratio and differential
//! verification.
//!
//! PR 5 rebuilt the software encoder's hot path around a libdeflate-style
//! flat-array hash4 matcher (head + u16-delta prev chains, u64-XOR match
//! extension, insert-skip over incompressible runs), an explicit
//! [`Level`] ladder (`Fastest..Best`), and per-block stored/static/dynamic
//! selection by computed bit cost with fused (code|len) emission tables.
//! This experiment pins what the ladder produces:
//!
//! * **Part A** sweeps every corpus class × every rung, recording ratio;
//!   every output must decode byte-identically through our inflate *and*
//!   through the system `gzip -dc` (skipped gracefully when the binary is
//!   missing).
//! * **Part B** records the ratio of every rung on the mixed corpus.
//! * **Part C** checks the ladder is a ladder: on every corpus the
//!   compressed size at each rung is ≤ 1.02× the next-faster rung's (the
//!   2% slack covers heuristic crossover on nearly-incompressible data).
//!
//! `run()` writes `BENCH_DEFLATE.json`. Encode speed is `nxbench`'s
//! `compress_mb_per_s` / `compress_fastest_mb_per_s` and, traced,
//! `deflate.encode_{fastest,default}_ns_per_byte`.

use crate::{write_rows, Row, Table, SEED};
use nx_corpus::CorpusKind;
use nx_deflate::{crc32::crc32, deflate, gzip, inflate, Level};

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str = "Deflate ladder: hash4 matcher, block cost model, per-level ratio";

/// Where the machine-readable rows land (workspace root under
/// `cargo run`).
pub const JSON_PATH: &str = "BENCH_DEFLATE.json";

/// Bytes generated per corpus class.
const PER_KIND: usize = 1 << 20;

/// Mixed-corpus length for Part B.
const MIXED_LEN: usize = 4 << 20;

/// One (corpus, rung) measurement.
struct Cell {
    corpus: &'static str,
    level: &'static str,
    ratio: f64,
    /// Our decoder returned the original bytes.
    identical: bool,
    /// `gzip -dc` returned the original bytes (`None` = binary missing).
    gzip_ok: Option<bool>,
}

struct Measured {
    cells: Vec<Cell>,
    /// Part B: mixed-corpus ratio per ladder rung, `Level::all()` order.
    mixed_ratio: [f64; 5],
    all_identical: bool,
    /// `Some(true)` iff every gzip(1) check ran and passed.
    gzip_verified: Option<bool>,
    /// Part C: compressed size never grows by more than 2% when stepping
    /// to a slower rung, on every corpus.
    ladder_monotone: bool,
}

/// Decompresses a gzip member through the system `gzip -dc`, the
/// interoperability oracle the paper's library had to satisfy. `None`
/// when the binary is unavailable.
pub fn gzip_dc(gz: &[u8]) -> Option<Vec<u8>> {
    use std::io::Write;
    use std::process::{Command, Stdio};
    let mut child = Command::new("gzip")
        .arg("-dc")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    let mut stdin = child.stdin.take()?;
    let payload = gz.to_vec();
    // Feed stdin from a helper thread: gzip streams output while reading
    // input, so a single-threaded write-then-read can deadlock on full
    // pipes once payloads outgrow the pipe buffer.
    let writer = std::thread::spawn(move || {
        let _ = stdin.write_all(&payload);
    });
    let out = child.wait_with_output().ok()?;
    let _ = writer.join();
    out.status.success().then_some(out.stdout)
}

/// Runs the three parts.
fn measure() -> Measured {
    let mut cells = Vec::new();
    let mut all_identical = true;
    let mut gzip_verified: Option<bool> = None;
    let mut ladder_monotone = true;

    for &kind in CorpusKind::all() {
        let data = kind.generate(SEED, PER_KIND);
        let mut prev_size: Option<usize> = None;
        for rung in Level::all() {
            let comp = deflate(&data, rung.compression_level());
            let identical = inflate(&comp).expect("valid stream") == data;
            all_identical &= identical;

            let gz = gzip::wrap_deflate(&comp, crc32(&data), data.len() as u64);
            let gzip_ok = gzip_dc(&gz).map(|back| back == data);
            if let Some(ok) = gzip_ok {
                // AND over every check that ran; stays None if the
                // binary is missing throughout.
                gzip_verified = Some(gzip_verified.unwrap_or(true) && ok);
            }

            if let Some(prev) = prev_size {
                // Stepping to a slower rung may not cost more than 2%.
                ladder_monotone &= comp.len() as f64 <= prev as f64 * 1.02;
            }
            prev_size = Some(comp.len());

            cells.push(Cell {
                corpus: kind.name(),
                level: rung.name(),
                ratio: data.len() as f64 / comp.len() as f64,
                identical,
                gzip_ok,
            });
        }
    }

    let mixed = nx_corpus::mixed(SEED, MIXED_LEN);
    let mut mixed_ratio = [0.0f64; 5];
    for (slot, rung) in mixed_ratio.iter_mut().zip(Level::all()) {
        let comp = deflate(&mixed, rung.compression_level());
        all_identical &= inflate(&comp).expect("valid stream") == mixed;
        *slot = mixed.len() as f64 / comp.len() as f64;
    }

    Measured {
        cells,
        mixed_ratio,
        all_identical,
        gzip_verified,
        ladder_monotone,
    }
}

/// The machine-readable rows ([`JSON_PATH`]).
fn rows(m: &Measured) -> Vec<Row> {
    let corpus = m.cells.iter().map(|c| {
        Row::new("corpus")
            .str("corpus", c.corpus)
            .str("level", c.level)
            .fixed("ratio", c.ratio, 4)
            .val("identical", c.identical)
            .check("gzip_ok", c.gzip_ok)
    });
    let mixed = Level::all()
        .into_iter()
        .map(|rung| Row::new("mixed").str("level", rung.name()).fixed("ratio", m.mixed_ratio[rung.index()], 4));
    let mut rows: Vec<Row> = corpus.chain(mixed).collect();
    rows.push(
        Row::new("summary")
            .val("ladder_monotone", m.ladder_monotone)
            .val("all_identical", m.all_identical)
            .check("gzip_verified", m.gzip_verified),
    );
    rows
}

/// Runs the experiment, writes [`JSON_PATH`], renders the report.
pub fn run() -> String {
    let m = measure();

    let mut table = Table::new(vec!["corpus", "level", "ratio", "verified"]);
    for c in &m.cells {
        table.row(vec![
            c.corpus.to_string(),
            c.level.to_string(),
            format!("{:.3}", c.ratio),
            match (c.identical, c.gzip_ok) {
                (true, Some(true)) => "ours+gzip".to_string(),
                (true, None) => "ours".to_string(),
                _ => "FAIL".to_string(),
            },
        ]);
    }

    let mut mixed_table = Table::new(vec!["level", "mixed ratio"]);
    for rung in Level::all() {
        mixed_table.row(vec![
            rung.name().to_string(),
            format!("{:.3}", m.mixed_ratio[rung.index()]),
        ]);
    }
    let note = write_rows(JSON_PATH, &rows(&m));

    format!(
        "## E21 — {TITLE}\n\n{} MiB mixed corpus, ratio per rung:\n\n{}\n\
         Corpus sweep ({} classes × {} MiB × {} rungs); `verified` means \
         the output decoded byte-identically through our inflate and the system `gzip -dc`:\n\n{}\n\
         All outputs identical: {}; gzip(1) verification: {}; ladder monotone (≤ 2% size \
         growth per slower rung): {}.\n\n{note}\n",
        MIXED_LEN >> 20,
        mixed_table.render(),
        CorpusKind::all().len(),
        PER_KIND >> 20,
        Level::all().len(),
        table.render(),
        m.all_identical,
        m.gzip_verified
            .map_or("skipped (no gzip binary)".to_string(), |b| b.to_string()),
        m.ladder_monotone,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rung_roundtrips_every_corpus() {
        for &kind in CorpusKind::all() {
            let data = kind.generate(SEED, 64 << 10);
            for rung in Level::all() {
                let comp = deflate(&data, rung.compression_level());
                assert_eq!(
                    inflate(&comp).expect("valid stream"),
                    data,
                    "roundtrip mismatch on {} at {}",
                    kind.name(),
                    rung.name()
                );
            }
        }
    }

    #[test]
    fn gzip_shim_roundtrips_when_available() {
        let data = nx_corpus::mixed(SEED, 128 << 10);
        let comp = deflate(&data, Level::Fastest.compression_level());
        let gz = gzip::wrap_deflate(&comp, crc32(&data), data.len() as u64);
        match gzip_dc(&gz) {
            Some(back) => assert_eq!(back, data, "gzip -dc disagreed with our encoder"),
            None => eprintln!("gzip binary unavailable; shim check skipped"),
        }
    }

    #[test]
    fn bench_json_is_well_formed() {
        let m = Measured {
            cells: vec![Cell {
                corpus: "text",
                level: "fastest",
                ratio: 2.5,
                identical: true,
                gzip_ok: None,
            }],
            mixed_ratio: [2.6, 2.7, 2.9, 3.0, 3.1],
            all_identical: true,
            gzip_verified: Some(true),
            ladder_monotone: true,
        };
        let json = crate::render_rows(&rows(&m));
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches("{\"section\"").count(), 7);
        assert!(json.contains("\"ratio\": 2.5000, \"identical\": true, \"gzip_ok\": null}"));
        assert!(json.contains("{\"section\": \"mixed\", \"level\": \"default\", \"ratio\": 2.9000}"));
        assert!(json.contains("\"all_identical\": true, \"gzip_verified\": true}"));
    }
}
