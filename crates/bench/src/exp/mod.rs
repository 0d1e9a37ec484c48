//! The experiment registry: one module per table/figure of the paper's
//! evaluation (identifiers E1–E26; see DESIGN.md for the mapping and the
//! source-text caveat on numbering).

/// An experiment entry: id, one-line description, runner.
pub struct Experiment {
    /// Identifier (`"e1"` …).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub title: &'static str,
    /// Runs the experiment, returning the rendered report.
    pub run: fn() -> String,
}

/// Declares every experiment module once: the modules, the registry and
/// (for the tests) their source text.
macro_rules! experiments {
    ($($id:ident),* $(,)?) => {
        $(pub mod $id;)*

        /// All experiments, in order.
        pub fn all() -> Vec<Experiment> {
            vec![$(Experiment { id: stringify!($id), title: $id::TITLE, run: $id::run }),*]
        }

        #[cfg(test)]
        const SOURCES: &[(&str, &str)] =
            &[$((stringify!($id), include_str!(concat!(stringify!($id), ".rs")))),*];
    };
}

experiments!(
    e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15, e16, e17, e18, e19, e20, e21,
    e22, e23, e24, e25, e26,
);

#[cfg(test)]
mod tests {
    use super::SOURCES;

    #[test]
    fn registry_is_complete_and_unique() {
        let all = super::all();
        assert_eq!(all.len(), 26);
        let mut ids: Vec<&str> = all.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 26);
    }

    #[test]
    fn bench_file_writers_read_no_host_clock() {
        // A committed BENCH_*.json is gated by byte identity, so the code
        // that writes one may not time anything: host wall-clock belongs to
        // `nxbench`. (E3/E4/E11/E13 print a two-clock speedup to stdout and
        // write no file.)
        let writers: Vec<&str> = SOURCES
            .iter()
            .filter(|(_, src)| src.contains("BENCH_"))
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(
            writers,
            ["e17", "e18", "e19", "e20", "e21", "e22", "e23", "e24", "e25", "e26"]
        );
        for (id, src) in SOURCES.iter().filter(|(id, _)| writers.contains(id)) {
            assert!(
                !src.contains("Instant"),
                "{id} writes a BENCH file and reads the host clock"
            );
        }
    }
}
