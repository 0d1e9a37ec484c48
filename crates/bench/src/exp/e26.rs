//! E26 — Canned Huffman profiles + preset dictionaries: one-pass encode
//! for small-payload traffic.
//!
//! PR 10 added the offline profiler (`nx_deflate::profile`), the
//! versioned [`nx_core::ProfileRegistry`], zlib FDICT preset-dictionary
//! framing and the one-pass canned encoder: tokens stream directly
//! against pre-validated canned tables (a cheap per-block guard falls
//! back to the dynamic path on misfit), and a preset dictionary primes
//! the LZ77 history so 1–16 KiB payloads stop paying the cold-window +
//! two-pass Huffman tax on every request. This experiment sweeps the
//! shipped content classes on a 1–16 KiB payload corpus (evaluation seeds
//! disjoint from the training seeds): compression ratio for the canned
//! one-pass path vs. the default ladder at level 6. Every canned output
//! is decoded byte-identically through our inflate (dictionary-aware for
//! zlib FDICT streams); gzip-framed canned members — which never carry a
//! dictionary — also pass the system `gzip -dc` referee when available.
//!
//! `run()` writes `BENCH_SMALL.json`. Canned encode speed is `nxbench
//! small_rpc`'s `compress_mb_per_s` and `req_per_s` (its service requests
//! are canned) and, traced, `deflate.canned_us_per_req`.

use super::e21::gzip_dc;
use crate::{write_rows, Row, Table};
use nx_core::{profiles, software, Format, Profile};
use nx_deflate::CompressionLevel;

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str =
    "Canned profiles + preset dictionaries: one-pass encode on 1-16 KiB payloads";

/// Where the machine-readable rows land (workspace root under
/// `cargo run`).
pub const JSON_PATH: &str = "BENCH_SMALL.json";

/// Payload sizes of the small-payload corpus.
const SIZES: [usize; 5] = [1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10];

/// Evaluation seeds per (class, size) — disjoint from the training
/// window (`nx_core::profiles` trains at seeds 7700+).
const EVAL_SEEDS: u64 = 3;

/// The ladder rung the canned path competes against.
const LADDER_LEVEL: u32 = 6;

/// One content-class comparison on the small-payload corpus.
struct Cell {
    corpus: &'static str,
    canned_ratio: f64,
    ladder_ratio: f64,
    /// Preset-dictionary bytes the class profile carries.
    dict_bytes: usize,
    /// Every canned output decoded byte-identically through our inflate.
    identical: bool,
    /// `gzip -dc` accepted the gzip-framed canned members (`None` =
    /// binary missing).
    gzip_ok: Option<bool>,
}

struct Measured {
    cells: Vec<Cell>,
    /// Aggregate (canned, ladder) ratio over the whole corpus.
    agg_ratio: (f64, f64),
    all_identical: bool,
    gzip_verified: Option<bool>,
}

/// Decodes a canned `format` stream with the framing-appropriate
/// dictionary mode and checks it against `data`.
fn canned_decodes(bytes: &[u8], format: Format, profile: &Profile, data: &[u8]) -> bool {
    let back = match format {
        Format::Gzip => software::decompress(bytes, format),
        Format::Zlib if profile.dict().is_empty() => software::decompress(bytes, format),
        _ => software::decompress_with_dict(bytes, format, profile.dict()),
    };
    back.map(|b| b == data).unwrap_or(false)
}

/// Runs the per-class sweep.
fn measure() -> Measured {
    let registry = profiles::default_registry();
    let level = CompressionLevel::new(LADDER_LEVEL).expect("valid level");
    let engine = nx_deflate::Engine::Auto;

    let mut cells = Vec::new();
    let mut all_identical = true;
    let mut gzip_verified: Option<bool> = None;
    let mut agg = (0usize, 0usize, 0usize); // input, canned out, ladder out

    for kind in profiles::DEFAULT_CLASSES {
        let (_, profile) = registry.by_name(kind.name()).expect("shipped class");
        let payloads: Vec<Vec<u8>> = SIZES
            .iter()
            .flat_map(|&len| (0..EVAL_SEEDS).map(move |s| (len, s)))
            .map(|(len, s)| kind.generate(s, len))
            .collect();
        let total: usize = payloads.iter().map(Vec::len).sum();

        // Every canned output in every framing decodes byte-identically;
        // gzip members pass `gzip -dc`. Ratios are taken in zlib framing,
        // the dictionary-bearing mode.
        let mut identical = true;
        let mut gzip_ok: Option<bool> = None;
        let mut canned_out = 0usize;
        let mut ladder_out = 0usize;
        for p in &payloads {
            for format in [Format::RawDeflate, Format::Zlib, Format::Gzip] {
                let out = software::compress_with_profile(p, engine, profile, format);
                identical &= canned_decodes(&out, format, profile, p);
                if format == Format::Zlib {
                    canned_out += out.len();
                    ladder_out += software::compress(p, level, format).len();
                }
                if format == Format::Gzip {
                    if let Some(back) = gzip_dc(&out) {
                        gzip_ok = Some(gzip_ok.unwrap_or(true) && back == *p);
                    }
                }
            }
        }
        all_identical &= identical;
        if let Some(ok) = gzip_ok {
            gzip_verified = Some(gzip_verified.unwrap_or(true) && ok);
        }
        agg.0 += total;
        agg.1 += canned_out;
        agg.2 += ladder_out;

        cells.push(Cell {
            corpus: kind.name(),
            canned_ratio: total as f64 / canned_out as f64,
            ladder_ratio: total as f64 / ladder_out as f64,
            dict_bytes: profile.dict().len(),
            identical,
            gzip_ok,
        });
    }

    Measured {
        cells,
        agg_ratio: (agg.0 as f64 / agg.1 as f64, agg.0 as f64 / agg.2 as f64),
        all_identical,
        gzip_verified,
    }
}

/// The machine-readable rows ([`JSON_PATH`]).
fn rows(m: &Measured) -> Vec<Row> {
    let mut rows: Vec<Row> = m
        .cells
        .iter()
        .map(|c| {
            Row::new("corpus")
                .str("corpus", c.corpus)
                .fixed("canned_ratio", c.canned_ratio, 4)
                .fixed("ladder_ratio", c.ladder_ratio, 4)
                .val("dict_bytes", c.dict_bytes)
                .val("identical", c.identical)
                .check("gzip_ok", c.gzip_ok)
        })
        .collect();
    rows.push(
        Row::new("summary")
            .fixed("canned_ratio", m.agg_ratio.0, 4)
            .fixed("ladder_ratio", m.agg_ratio.1, 4)
            .val("ratio_not_worse", m.agg_ratio.0 >= m.agg_ratio.1)
            .val("all_identical", m.all_identical)
            .check("gzip_verified", m.gzip_verified),
    );
    rows
}

/// Runs the experiment, writes [`JSON_PATH`], renders the report.
pub fn run() -> String {
    let m = measure();

    let mut table = Table::new(vec![
        "corpus",
        "canned ratio",
        "ladder ratio",
        "dict B",
        "verified",
    ]);
    for c in &m.cells {
        table.row(vec![
            c.corpus.to_string(),
            format!("{:.3}", c.canned_ratio),
            format!("{:.3}", c.ladder_ratio),
            c.dict_bytes.to_string(),
            match (c.identical, c.gzip_ok) {
                (true, Some(true)) => "ours+gzip".to_string(),
                (true, None) => "ours".to_string(),
                _ => "FAIL".to_string(),
            },
        ]);
    }
    let note = write_rows(JSON_PATH, &rows(&m));

    format!(
        "## E26 — {TITLE}\n\nHeadline: on the 1–16 KiB small-payload corpus ({} classes x \
         {} sizes x {} seeds, zlib framing) the one-pass canned path reaches aggregate \
         ratio {:.4} vs {:.4} for the level-{LADDER_LEVEL} ladder (preset dictionaries \
         prime the cold window; equal-or-better ratio: {}).\n\nPer-class sweep (each \
         canned output decoded byte-identically; gzip-framed members re-checked through \
         `gzip -dc`):\n\n{}\n\
         All canned outputs identical through our inflate: {}; gzip(1) verification: \
         {}.\n\n{note}\n",
        profiles::DEFAULT_CLASSES.len(),
        SIZES.len(),
        EVAL_SEEDS,
        m.agg_ratio.0,
        m.agg_ratio.1,
        m.agg_ratio.0 >= m.agg_ratio.1,
        table.render(),
        m.all_identical,
        m.gzip_verified
            .map_or("skipped (no gzip binary)".to_string(), |b| b.to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_outputs_decode_on_the_small_corpus() {
        let registry = profiles::default_registry();
        for kind in profiles::DEFAULT_CLASSES {
            let (_, profile) = registry.by_name(kind.name()).expect("shipped class");
            let data = kind.generate(0, 2 << 10);
            for format in [Format::RawDeflate, Format::Zlib, Format::Gzip] {
                let out = software::compress_with_profile(
                    &data,
                    nx_deflate::Engine::Auto,
                    profile,
                    format,
                );
                assert!(
                    canned_decodes(&out, format, profile, &data),
                    "{} {format:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn bench_json_is_well_formed() {
        let m = Measured {
            cells: vec![Cell {
                corpus: "json",
                canned_ratio: 3.1,
                ladder_ratio: 2.4,
                dict_bytes: 2048,
                identical: true,
                gzip_ok: Some(true),
            }],
            agg_ratio: (3.1, 2.4),
            all_identical: true,
            gzip_verified: None,
        };
        assert_eq!(
            crate::render_rows(&rows(&m)),
            "[\n  {\"section\": \"corpus\", \"corpus\": \"json\", \"canned_ratio\": 3.1000, \
             \"ladder_ratio\": 2.4000, \"dict_bytes\": 2048, \"identical\": true, \
             \"gzip_ok\": true},\n  {\"section\": \"summary\", \"canned_ratio\": 3.1000, \
             \"ladder_ratio\": 2.4000, \"ratio_not_worse\": true, \"all_identical\": true, \
             \"gzip_verified\": null}\n]\n"
        );
    }
}
