#![warn(missing_docs)]

//! `nx-bench` — the experiment harness of the `nxsim` reproduction.
//!
//! Every table and figure of the paper's evaluation has an experiment
//! module `exp::e1` … `exp::e26` (see DESIGN.md for the full index) and a
//! row in the `tables` binary:
//!
//! ```text
//! cargo run --release -p nx-bench --bin tables -- all
//! cargo run --release -p nx-bench --bin tables -- e5 e10
//! ```
//!
//! E17–E26 also write a `BENCH_*.json` file of deterministic cells only
//! (ratios, byte counts, route and fault counters, modeled cycles,
//! verification booleans) through one `Row` writer, so a committed file
//! reproduces to the byte. Host wall-clock is measured by `nxbench`
//! (`benchmark/`), not here.

use std::fmt::Display;

pub mod exp;

/// The standard seed all experiments use (determinism across runs).
pub const SEED: u64 = 0x5EED_2020;

/// Formats a byte count compactly (KB/MB/GB, power-of-two units).
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{} GiB", b >> 30)
    } else if b >= 1 << 20 {
        format!("{} MiB", b >> 20)
    } else if b >= 1 << 10 {
        format!("{} KiB", b >> 10)
    } else {
        format!("{b} B")
    }
}

/// A markdown table writer: fixed column layout, pipe-separated.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as aligned markdown.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = width[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(width) {
                line.push_str(&format!(" {:>w$} |", c, w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('|');
        for w in &width {
            out.push_str(&format!("{:-<w$}|", "", w = w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
        }
        out
    }
}

/// One row of a `BENCH_*.json` file: `"key": value` cells in insertion
/// order, rendered as one `{...}` object on one line.
#[derive(Debug)]
pub(crate) struct Row(Vec<(&'static str, String)>);

impl Row {
    /// Starts a row whose first cell is `"section": section`.
    pub fn new(section: &str) -> Self {
        Self(Vec::new()).str("section", section)
    }

    /// A string cell (written quoted; keys and values are plain ASCII
    /// identifiers, so no escaping is needed).
    pub fn str(mut self, key: &'static str, value: &str) -> Self {
        self.0.push((key, format!("\"{value}\"")));
        self
    }

    /// A cell written as `value` displays: integers, booleans, a rate
    /// constant, or an already rendered JSON value.
    pub fn val(mut self, key: &'static str, value: impl Display) -> Self {
        self.0.push((key, value.to_string()));
        self
    }

    /// A fixed-point cell with `places` decimals.
    pub fn fixed(mut self, key: &'static str, value: f64, places: usize) -> Self {
        self.0.push((key, format!("{value:.places$}")));
        self
    }

    /// A tri-state check: `true` / `false`, or `null` when it could not run
    /// (no `gzip` binary on the host).
    pub fn check(self, key: &'static str, value: Option<bool>) -> Self {
        self.val(key, value.map_or("null".to_string(), |b| b.to_string()))
    }

    fn render(&self) -> String {
        let cells: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("  {{{}}}", cells.join(", "))
    }
}

/// Renders rows as a JSON array, one row per line.
pub(crate) fn render_rows(rows: &[Row]) -> String {
    let rows: Vec<String> = rows.iter().map(Row::render).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Writes `rows` to `path` and returns the report's one-line note on it.
pub(crate) fn write_rows(path: &str, rows: &[Row]) -> String {
    match std::fs::write(path, render_rows(rows)) {
        Ok(()) => format!("rows written to `{path}`"),
        Err(err) => format!("could not write `{path}`: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(4096), "4 KiB");
        assert_eq!(fmt_bytes(64 << 20), "64 MiB");
        assert_eq!(fmt_bytes(2 << 30), "2 GiB");
    }

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new(vec!["size", "GB/s"]);
        t.row(vec!["4 KiB", "1.25"]);
        t.row(vec!["64 MiB", "13.60"]);
        let r = t.render();
        assert!(r.starts_with('|'));
        assert_eq!(r.lines().count(), 4);
        for line in r.lines() {
            assert_eq!(line.matches('|').count(), 3);
        }
    }

    /// `file` has `row` as one of its lines.
    fn holds_row(file: &str, row: &Row) -> bool {
        let line = row.render();
        file.lines()
            .any(|l| l.strip_suffix(',').unwrap_or(l) == line)
    }

    #[test]
    fn row_writer_reproduces_committed_rows() {
        // One row of each of the two files gated longest, rebuilt from its
        // cell values: the shared writer spells strings, counts, fixed
        // points and a nested array exactly as those files do.
        let amplification = Row::new("amplification")
            .val("members", 32)
            .val("reads", 1000)
            .val("len", 65536)
            .val("decoded_bytes", 98_242_662u64)
            .val("returned_bytes", 65_536_000u64)
            .fixed("decoded_per_returned", 1.49912, 4);
        assert!(holds_row(
            include_str!("../../../BENCH_INFLATE_PAR.json"),
            &amplification
        ));
        let scan = Row::new("tenant")
            .str("name", "scan")
            .str("class", "background")
            .val("generated", 40)
            .val("admitted", 40)
            .val("completed", 40)
            .val("rejected_credit", 0)
            .val("rejected_depth", 0)
            .val("credit_stalls", 0)
            .val("coalesced_requests", 0)
            .fixed("p50_us", 49.1512, 3)
            .fixed("p99_us", 122.5048, 3)
            .fixed("goodput", 1.0, 4)
            .val("depth_p50", 2)
            .val("depth_p99", 3)
            .val("depth_max", 3)
            .val(
                "depth_buckets",
                "[{\"le\": 1, \"count\": 18}, {\"le\": 2, \"count\": 15}, {\"le\": 3, \"count\": 7}]",
            );
        assert!(holds_row(
            include_str!("../../../BENCH_SERVICE.json"),
            &scan
        ));
    }

    #[test]
    fn rows_render_as_one_json_array() {
        let rows = [
            Row::new("a").val("n", 1).check("gzip_ok", None),
            Row::new("b")
                .fixed("x", 0.5, 2)
                .check("gzip_ok", Some(false)),
        ];
        assert_eq!(
            render_rows(&rows),
            "[\n  {\"section\": \"a\", \"n\": 1, \"gzip_ok\": null},\n  \
             {\"section\": \"b\", \"x\": 0.50, \"gzip_ok\": false}\n]\n"
        );
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }
}
