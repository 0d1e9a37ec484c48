//! E25 — Speculative batch matcher: the software NX 8-positions-per-cycle
//! parse vs. the sequential ladder.
//!
//! PR 9 added `lz77::batch` + `lz77::cover`: hash 8 consecutive positions
//! per step with two wide u64 loads, probe the hash4 head/prev tables for
//! all 8 lanes before any extension, extend every candidate with the
//! u64-XOR comparator, then resolve a non-overlapping match cover over
//! the window (longest-first, earliest-anchor tie-breaks) — the software
//! emulation of the hardware matcher the paper's compressor builds in
//! silicon. `Engine::Auto` routes levels 1–3 through it; this experiment
//! pins what the parse gives up and keeps:
//!
//! * **Part A** compares the mixed corpus at `Level::Fastest` under the
//!   speculative engine and forced to `Engine::Sequential` (the pre-batch
//!   greedy ladder): ratio, which must be no worse.
//! * **Part B** sweeps every corpus class: speculative vs. sequential
//!   ratio at `Fastest`, plus the speculative-vs-lazy (`Level::Default`)
//!   ratio gap — the paper reports its speculative hardware matcher costs
//!   ~10% ratio against zlib's sequential lazy parse. Every speculative
//!   output must decode byte-identically through our inflate *and*
//!   `gzip -dc`.
//! * **Part C** cross-validates parse quality against the `nx-accel`
//!   hardware-model matcher ([`nx_accel::MatchEngine`]): software
//!   speculative, hardware speculative (N=8 banked CAM model) and
//!   hardware greedy parses of the same inputs in one table (match share,
//!   mean match length), with every hardware token stream expanded and
//!   checked lossless.
//!
//! `run()` writes `BENCH_SPECULATIVE.json`. Speculative encode speed is
//! `nxbench`'s `compress_fastest_mb_per_s` and, traced,
//! `deflate.lz77_fastest_ns_per_byte` / `deflate.lz77_fastest_match_share`;
//! the speculative-vs-sequential wall-clock comparison is not measured.

use super::e21::gzip_dc;
use crate::{write_rows, Row, Table, SEED};
use nx_accel::matcher::MatchEngine;
use nx_accel::{AccelConfig, Resolution};
use nx_corpus::CorpusKind;
use nx_deflate::lz77::{expand_tokens, Token, Tokenizer};
use nx_deflate::{crc32::crc32, gzip, inflate, Encoder, Engine, Level};

/// One-line experiment title shown by `tables list`.
pub const TITLE: &str =
    "Speculative batch matcher: 8-position windows vs the sequential ladder, NX-model parity";

/// Where the machine-readable rows land (workspace root under
/// `cargo run`).
pub const JSON_PATH: &str = "BENCH_SPECULATIVE.json";

/// Bytes generated per corpus class.
const PER_KIND: usize = 1 << 20;

/// Mixed-corpus length for the headline Part A measurement.
const MIXED_LEN: usize = 4 << 20;

/// The paper's reported ratio cost of the hardware's speculative parse
/// against zlib's sequential lazy matching, in percent.
const PAPER_GAP_PCT: f64 = 10.0;

/// Input size for the Part C hardware-model cross-validation (the cycle
/// model walks byte-at-a-time; keep it modest).
const XVAL_LEN: usize = 256 << 10;

/// One corpus-class comparison at `Level::Fastest`.
struct Cell {
    corpus: &'static str,
    spec_ratio: f64,
    seq_ratio: f64,
    /// Speculative ratio deficit vs. the sequential lazy `Default` rung,
    /// in percent (negative = speculative compresses better).
    lazy_gap_pct: f64,
    /// Our decoder returned the original bytes (speculative output).
    identical: bool,
    /// `gzip -dc` returned the original bytes (`None` = binary missing).
    gzip_ok: Option<bool>,
}

/// Aggregate parse shape of one token stream.
struct ParseShape {
    matches: u64,
    literals: u64,
    matched_bytes: u64,
}

impl ParseShape {
    fn of(tokens: &[Token]) -> Self {
        let mut s = Self {
            matches: 0,
            literals: 0,
            matched_bytes: 0,
        };
        for t in tokens {
            match t {
                Token::Literal(_) => s.literals += 1,
                Token::Match { len, .. } => {
                    s.matches += 1;
                    s.matched_bytes += u64::from(*len);
                }
            }
        }
        s
    }

    fn match_share_pct(&self, input_len: usize) -> f64 {
        self.matched_bytes as f64 * 100.0 / input_len as f64
    }

    fn mean_match_len(&self) -> f64 {
        if self.matches == 0 {
            0.0
        } else {
            self.matched_bytes as f64 / self.matches as f64
        }
    }
}

/// One Part C row: the same input parsed three ways.
struct XvalRow {
    corpus: &'static str,
    sw_share: f64,
    sw_mean_len: f64,
    hw_spec_share: f64,
    hw_spec_mean_len: f64,
    hw_greedy_share: f64,
    hw_greedy_mean_len: f64,
    /// Both hardware-model token streams expanded back to the input.
    hw_lossless: bool,
}

struct Measured {
    cells: Vec<Cell>,
    xval: Vec<XvalRow>,
    /// Part A mixed corpus: (spec, seq) ratios at Fastest.
    mixed_fastest_ratio: (f64, f64),
    /// Mixed-corpus speculative-vs-lazy(`Default`) ratio gap, percent.
    mixed_lazy_gap_pct: f64,
    all_identical: bool,
    gzip_verified: Option<bool>,
}

/// Speculative-vs-lazy ratio gap in percent: how much ratio the
/// speculative `Fastest` parse gives up against the sequential lazy
/// `Default` parse of the same input.
fn lazy_gap_pct(spec_size: usize, lazy_size: usize) -> f64 {
    // Ratio = len/size, so ratio deficit = 1 - lazy_size/spec_size.
    (1.0 - lazy_size as f64 / spec_size as f64) * 100.0
}

/// Runs the three parts.
fn measure() -> Measured {
    let fastest = Level::Fastest.compression_level();
    let lazy = Level::Default.compression_level();
    let spec_enc = Encoder::with_engine(fastest, Engine::Auto);
    let seq_enc = Encoder::with_engine(fastest, Engine::Sequential);
    let lazy_enc = Encoder::with_engine(lazy, Engine::Auto);

    let mut cells = Vec::new();
    let mut all_identical = true;
    let mut gzip_verified: Option<bool> = None;

    for &kind in CorpusKind::all() {
        let data = kind.generate(SEED, PER_KIND);
        let spec = spec_enc.compress(&data);
        let seq = seq_enc.compress(&data);
        let lazy_size = lazy_enc.compress(&data).len();

        let identical = inflate(&spec).expect("valid stream") == data;
        all_identical &= identical;
        let gz = gzip::wrap_deflate(&spec, crc32(&data), data.len() as u64);
        let gzip_ok = gzip_dc(&gz).map(|back| back == data);
        if let Some(ok) = gzip_ok {
            gzip_verified = Some(gzip_verified.unwrap_or(true) && ok);
        }

        cells.push(Cell {
            corpus: kind.name(),
            spec_ratio: data.len() as f64 / spec.len() as f64,
            seq_ratio: data.len() as f64 / seq.len() as f64,
            lazy_gap_pct: lazy_gap_pct(spec.len(), lazy_size),
            identical,
            gzip_ok,
        });
    }

    // Part A: the headline mixed-corpus frontier.
    let mixed = nx_corpus::mixed(SEED, MIXED_LEN);
    let spec_out = spec_enc.compress(&mixed);
    let seq_out = seq_enc.compress(&mixed);
    all_identical &= inflate(&spec_out).expect("valid stream") == mixed;
    let mixed_fastest_ratio = (
        mixed.len() as f64 / spec_out.len() as f64,
        mixed.len() as f64 / seq_out.len() as f64,
    );
    let mixed_lazy_gap_pct = lazy_gap_pct(spec_out.len(), lazy_enc.compress(&mixed).len());

    // Part C: hardware-model cross-validation on a corpus subset.
    let mut xval = Vec::new();
    let mut tok = Tokenizer::new();
    for kind in [
        CorpusKind::Text,
        CorpusKind::Json,
        CorpusKind::Binary,
        CorpusKind::Logs,
    ] {
        let data = kind.generate(SEED, XVAL_LEN);
        let sw = ParseShape::of(tok.tokenize_with(&data, 0, fastest.get(), Engine::Auto));

        let spec_cfg = AccelConfig::power9();
        let mut greedy_cfg = AccelConfig::power9();
        greedy_cfg.resolution = Resolution::Greedy;
        let hw_spec_tokens = MatchEngine::new(spec_cfg).tokenize(&data).tokens;
        let hw_greedy_tokens = MatchEngine::new(greedy_cfg).tokenize(&data).tokens;
        let hw_lossless =
            expand_tokens(&hw_spec_tokens) == data && expand_tokens(&hw_greedy_tokens) == data;
        let hw_spec = ParseShape::of(&hw_spec_tokens);
        let hw_greedy = ParseShape::of(&hw_greedy_tokens);

        xval.push(XvalRow {
            corpus: kind.name(),
            sw_share: sw.match_share_pct(data.len()),
            sw_mean_len: sw.mean_match_len(),
            hw_spec_share: hw_spec.match_share_pct(data.len()),
            hw_spec_mean_len: hw_spec.mean_match_len(),
            hw_greedy_share: hw_greedy.match_share_pct(data.len()),
            hw_greedy_mean_len: hw_greedy.mean_match_len(),
            hw_lossless,
        });
    }

    Measured {
        cells,
        xval,
        mixed_fastest_ratio,
        mixed_lazy_gap_pct,
        all_identical,
        gzip_verified,
    }
}

/// The machine-readable rows ([`JSON_PATH`]).
fn rows(m: &Measured) -> Vec<Row> {
    let corpus = m.cells.iter().map(|c| {
        Row::new("corpus")
            .str("corpus", c.corpus)
            .fixed("spec_ratio", c.spec_ratio, 4)
            .fixed("seq_ratio", c.seq_ratio, 4)
            .fixed("lazy_gap_pct", c.lazy_gap_pct, 2)
            .val("identical", c.identical)
            .check("gzip_ok", c.gzip_ok)
    });
    let xval = m.xval.iter().map(|x| {
        Row::new("xval")
            .str("corpus", x.corpus)
            .fixed("sw_match_share_pct", x.sw_share, 2)
            .fixed("sw_mean_match_len", x.sw_mean_len, 2)
            .fixed("hw_spec_match_share_pct", x.hw_spec_share, 2)
            .fixed("hw_spec_mean_match_len", x.hw_spec_mean_len, 2)
            .fixed("hw_greedy_match_share_pct", x.hw_greedy_share, 2)
            .fixed("hw_greedy_mean_match_len", x.hw_greedy_mean_len, 2)
            .val("hw_lossless", x.hw_lossless)
    });
    let mut rows: Vec<Row> = corpus.chain(xval).collect();
    rows.push(
        Row::new("summary")
            .fixed("speculative_ratio", m.mixed_fastest_ratio.0, 4)
            .fixed("sequential_ratio", m.mixed_fastest_ratio.1, 4)
            .val(
                "spec_ratio_not_worse",
                m.mixed_fastest_ratio.0 >= m.mixed_fastest_ratio.1,
            )
            .fixed("lazy_gap_pct", m.mixed_lazy_gap_pct, 2)
            .val("paper_gap_pct", PAPER_GAP_PCT)
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
        "spec ratio",
        "seq ratio",
        "vs lazy",
        "verified",
    ]);
    for c in &m.cells {
        table.row(vec![
            c.corpus.to_string(),
            format!("{:.3}", c.spec_ratio),
            format!("{:.3}", c.seq_ratio),
            format!("{:+.1}%", c.lazy_gap_pct),
            match (c.identical, c.gzip_ok) {
                (true, Some(true)) => "ours+gzip".to_string(),
                (true, None) => "ours".to_string(),
                _ => "FAIL".to_string(),
            },
        ]);
    }

    let mut xval_table = Table::new(vec![
        "corpus",
        "sw share",
        "sw len",
        "hw-spec share",
        "hw-spec len",
        "hw-greedy share",
        "hw-greedy len",
        "hw lossless",
    ]);
    for x in &m.xval {
        xval_table.row(vec![
            x.corpus.to_string(),
            format!("{:.1}%", x.sw_share),
            format!("{:.1}", x.sw_mean_len),
            format!("{:.1}%", x.hw_spec_share),
            format!("{:.1}", x.hw_spec_mean_len),
            format!("{:.1}%", x.hw_greedy_share),
            format!("{:.1}", x.hw_greedy_mean_len),
            x.hw_lossless.to_string(),
        ]);
    }
    let note = write_rows(JSON_PATH, &rows(&m));

    format!(
        "## E25 — {TITLE}\n\nHeadline: on the {} MiB mixed corpus at `Level::Fastest` the \
         speculative batch engine reaches ratio {:.4} vs {:.4} for the forced sequential \
         ladder. Speculative-vs-lazy(`Default`) ratio gap on mixed: {:+.1}% (paper reports \
         ~{PAPER_GAP_PCT}% for its hardware matcher).\n\nCorpus sweep ({} classes x {} MiB \
         at `Fastest`; `vs lazy` = ratio given up against the sequential lazy `Default` \
         parse):\n\n{}\n\
         Hardware-model cross-validation ({} KiB inputs; software speculative vs the \
         `nx-accel` N=8 banked-CAM matcher in speculative and greedy resolution; share = \
         bytes covered by matches, len = mean match length):\n\n{}\n\
         All speculative outputs identical through our inflate: {}; gzip(1) verification: \
         {}.\n\n{note}\n",
        MIXED_LEN >> 20,
        m.mixed_fastest_ratio.0,
        m.mixed_fastest_ratio.1,
        m.mixed_lazy_gap_pct,
        CorpusKind::all().len(),
        PER_KIND >> 20,
        table.render(),
        XVAL_LEN >> 10,
        xval_table.render(),
        m.all_identical,
        m.gzip_verified
            .map_or("skipped (no gzip binary)".to_string(), |b| b.to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speculative_and_sequential_roundtrip_every_corpus() {
        let fastest = Level::Fastest.compression_level();
        for &kind in CorpusKind::all() {
            let data = kind.generate(SEED, 64 << 10);
            for engine in [Engine::Auto, Engine::Sequential, Engine::Speculative] {
                let comp = Encoder::with_engine(fastest, engine).compress(&data);
                assert_eq!(
                    inflate(&comp).expect("valid stream"),
                    data,
                    "roundtrip mismatch on {} with {engine:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn forced_speculative_works_at_lazy_rungs() {
        use nx_deflate::CompressionLevel;
        let data = nx_corpus::mixed(SEED, 128 << 10);
        for level in [6u32, 9] {
            let comp = Encoder::with_engine(
                CompressionLevel::new(level).expect("valid"),
                Engine::Speculative,
            )
            .compress(&data);
            assert_eq!(inflate(&comp).expect("valid stream"), data, "level {level}");
        }
    }

    #[test]
    fn hardware_model_parses_are_lossless() {
        let data = nx_corpus::mixed(SEED, 64 << 10);
        for resolution in [Resolution::Speculative, Resolution::Greedy] {
            let mut cfg = AccelConfig::power9();
            cfg.resolution = resolution;
            let out = MatchEngine::new(cfg).tokenize(&data);
            assert_eq!(expand_tokens(&out.tokens), data, "{resolution:?}");
        }
    }

    #[test]
    fn parse_shape_counts() {
        let tokens = [
            Token::Literal(b'a'),
            Token::Match { len: 10, dist: 1 },
            Token::Match { len: 6, dist: 3 },
        ];
        let s = ParseShape::of(&tokens);
        assert_eq!(s.literals, 1);
        assert_eq!(s.matches, 2);
        assert_eq!(s.matched_bytes, 16);
        assert!((s.mean_match_len() - 8.0).abs() < 1e-9);
        assert!((s.match_share_pct(17) - 16.0 * 100.0 / 17.0).abs() < 1e-9);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let m = Measured {
            cells: vec![Cell {
                corpus: "text",
                spec_ratio: 2.9,
                seq_ratio: 2.8,
                lazy_gap_pct: 8.5,
                identical: true,
                gzip_ok: Some(true),
            }],
            xval: vec![XvalRow {
                corpus: "text",
                sw_share: 80.0,
                sw_mean_len: 12.0,
                hw_spec_share: 79.0,
                hw_spec_mean_len: 11.5,
                hw_greedy_share: 81.0,
                hw_greedy_mean_len: 12.5,
                hw_lossless: true,
            }],
            mixed_fastest_ratio: (3.61, 3.55),
            mixed_lazy_gap_pct: 9.1,
            all_identical: true,
            gzip_verified: Some(true),
        };
        let json = crate::render_rows(&rows(&m));
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches("{\"section\"").count(), 3);
        assert!(json.contains("\"spec_ratio\": 2.9000, \"seq_ratio\": 2.8000, \"lazy_gap_pct\": 8.50"));
        assert!(json.contains("\"spec_ratio_not_worse\": true, \"lazy_gap_pct\": 9.10"));
        assert!(json.contains("\"paper_gap_pct\": 10, \"all_identical\": true"));
        assert!(json.contains("\"gzip_verified\": true}"));
        assert!(!json.contains("mb_per_s"));
    }
}
