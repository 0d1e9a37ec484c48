//! Canned Huffman tables ("canned DHT").
//!
//! The POWER9 NX supports three entropy modes per CRB: fixed Huffman,
//! fully dynamic DHT (two-pass, with hardware table generation), and
//! **canned** DHT — software preloads a precomputed table and the engine
//! encodes in a single pass against it. Canned mode recovers most of the
//! dynamic mode's ratio on data matching the table's profile while paying
//! none of the table-generation latency, which is why the NX library ships
//! canned tables for common data classes.
//!
//! [`CannedSet::standard`] builds profile tables from embedded synthetic
//! samples (text, structured/JSON, binary, run-heavy). Every table covers
//! the full transmittable alphabet (286 literal/length + 30 distance
//! symbols), so any block can be encoded against any table; selection
//! simply picks the cheapest by exact bit cost.

use nx_deflate::encoder::DynamicPlan;
use nx_deflate::lz77::Histogram;

/// A named, preloaded table.
#[derive(Debug, Clone)]
pub struct CannedTable {
    /// Profile label ("text", "structured", …).
    pub name: &'static str,
    plan: DynamicPlan,
}

impl CannedTable {
    /// The underlying block plan.
    pub fn plan(&self) -> &DynamicPlan {
        &self.plan
    }

    /// Exact encoded size (header + body bits) of a block with histogram
    /// `hist` against this table.
    pub fn cost_bits(&self, hist: &Histogram) -> u64 {
        self.plan.header_bits() + self.plan.body_bits(hist)
    }
}

/// A set of canned tables to select among per block: never empty, so
/// selection always has an answer.
#[derive(Debug, Clone)]
pub struct CannedSet {
    first: CannedTable,
    rest: Vec<CannedTable>,
}

impl CannedSet {
    /// The standard four-profile set.
    pub fn standard() -> Self {
        Self::from_samples(
            ("text", &sample_text()),
            &[
                ("structured", &sample_structured()),
                ("binary", &sample_binary()),
                ("run-heavy", &sample_runs()),
            ],
        )
    }

    /// Builds a set from caller-provided samples (the NX library's
    /// application-specific canned-table path): one at least.
    pub fn from_samples(first: (&'static str, &[u8]), rest: &[(&'static str, &[u8])]) -> Self {
        let table = |&(name, sample): &(&'static str, &[u8])| CannedTable {
            name,
            plan: plan_from_sample(sample),
        };
        Self {
            first: table(&first),
            rest: rest.iter().map(table).collect(),
        }
    }

    /// The tables, in the order they were given.
    pub fn tables(&self) -> impl Iterator<Item = &CannedTable> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    /// Picks the cheapest table for `hist` by exact encoded size (the first
    /// of equals). Returns it with its total bits.
    pub fn select(&self, hist: &Histogram) -> (&CannedTable, u64) {
        let first = (&self.first, self.first.cost_bits(hist));
        self.rest.iter().fold(first, |best, table| {
            let bits = table.cost_bits(hist);
            if bits < best.1 {
                (table, bits)
            } else {
                best
            }
        })
    }
}

impl Default for CannedSet {
    fn default() -> Self {
        Self::standard()
    }
}

/// Builds a full-coverage plan from a representative sample: tokenize,
/// count, then give every transmittable symbol a floor frequency so the
/// resulting code can encode *any* block.
fn plan_from_sample(sample: &[u8]) -> DynamicPlan {
    let tokens = nx_deflate::deflate_tokens(sample, nx_deflate::CompressionLevel::default());
    let mut hist = Histogram::of(&tokens);
    for f in hist.litlen.iter_mut().take(286) {
        *f = (*f).max(1);
    }
    // Distance symbols 30/31 are reserved and must stay zero.
    for f in hist.dist.iter_mut().take(30) {
        *f = (*f).max(1);
    }
    DynamicPlan::from_histogram(&hist)
}

/// ~16 KB of deterministic English-like words.
fn sample_text() -> Vec<u8> {
    let words = [
        "the", "of", "and", "to", "in", "is", "was", "that", "for", "with", "system", "data",
        "time", "which", "from", "their", "would", "there", "about", "could",
    ];
    deterministic(16 * 1024, |x, out| {
        out.extend_from_slice(words[(x % words.len() as u64) as usize].as_bytes());
        out.push(if x % 13 == 0 { b'.' } else { b' ' });
    })
}

/// ~16 KB of JSON/key-value structure.
fn sample_structured() -> Vec<u8> {
    deterministic(16 * 1024, |x, out| {
        out.extend_from_slice(
            format!(
                "{{\"id\": {}, \"name\": \"u{}\", \"ok\": true}},",
                x % 9973,
                x % 611
            )
            .as_bytes(),
        );
    })
}

/// ~16 KB of opcode-like binary.
fn sample_binary() -> Vec<u8> {
    deterministic(16 * 1024, |x, out| {
        out.push([0x48, 0x89, 0x8B, 0x0F, 0xE8, 0x00, 0xFF, 0x83][(x % 8) as usize]);
        out.push((x >> 3) as u8);
    })
}

/// ~16 KB dominated by runs and short motifs.
fn sample_runs() -> Vec<u8> {
    deterministic(16 * 1024, |x, out| {
        let b = (x % 4 * 85) as u8;
        out.extend(std::iter::repeat_n(b, 16 + (x % 48) as usize));
    })
}

fn deterministic(len: usize, mut step: impl FnMut(u64, &mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 64);
    let mut x = 0x9E3779B97F4A7C15u64;
    while out.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        step(x, &mut out);
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nx_deflate::bitio::BitWriter;
    use nx_deflate::inflate;
    use nx_deflate::lz77::Token;

    fn histogram_of(data: &[u8]) -> Histogram {
        Histogram::of(&nx_deflate::deflate_tokens(
            data,
            nx_deflate::CompressionLevel::default(),
        ))
    }

    #[test]
    fn standard_set_has_four_distinct_profiles() {
        let set = CannedSet::standard();
        let names: Vec<&str> = set.tables().map(|t| t.name).collect();
        assert_eq!(names, vec!["text", "structured", "binary", "run-heavy"]);
    }

    #[test]
    fn every_table_encodes_any_token_stream() {
        let set = CannedSet::standard();
        let tokens = vec![
            Token::Literal(0),
            Token::Literal(255),
            Token::Match { len: 3, dist: 2 },
            Token::Match { len: 258, dist: 3 },
        ];
        for (i, t) in set.tables().enumerate() {
            let mut w = BitWriter::new();
            t.plan().write_header(&mut w, true);
            t.plan().write_body(&mut w, &tokens);
            let out = inflate(&w.finish()).unwrap_or_else(|e| panic!("table {i}: {e}"));
            assert_eq!(out.len(), 2 + 3 + 258);
        }
    }

    #[test]
    fn selection_matches_profile() {
        let set = CannedSet::standard();
        // A text-like histogram should not select the run-heavy table.
        let (table, _) = set.select(&histogram_of(&sample_text()));
        assert_eq!(table.name, "text");
    }

    #[test]
    fn selection_minimizes_cost() {
        let set = CannedSet::standard();
        let hist = histogram_of(&sample_structured());
        let (best, best_bits) = set.select(&hist);
        assert_eq!(best.cost_bits(&hist), best_bits);
        for t in set.tables() {
            assert!(
                t.cost_bits(&hist) >= best_bits,
                "table {} beats selected {}",
                t.name,
                best.name
            );
        }
    }

    #[test]
    fn custom_sample_sets_work() {
        let sample = b"abcabcabcabc".repeat(100);
        let set = CannedSet::from_samples(("custom", &sample), &[]);
        assert_eq!(set.tables().count(), 1);
        let tokens = vec![Token::Literal(b'z')];
        let (only, _) = set.select(&Histogram::of(&tokens));
        let mut w = BitWriter::new();
        only.plan().write_header(&mut w, true);
        only.plan().write_body(&mut w, &tokens);
        assert_eq!(inflate(&w.finish()).unwrap(), b"z");
    }
}
