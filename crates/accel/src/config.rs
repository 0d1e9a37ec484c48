//! Accelerator configuration: the microarchitectural parameters the paper
//! discusses, with presets for the two shipped generations.

/// Widest lane window the match engine's fixed per-cycle scratch holds
/// (four times the z15 width).
pub const MAX_LANES: usize = 64;

/// Match-cover resolution policy across one lane window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// The shipped design: all lanes search in parallel and a selection
    /// network picks the minimum-estimated-bits non-overlapping cover.
    Speculative,
    /// Ablation: take the first lane's match and skip (no cross-lane
    /// selection), approximating a single-lane greedy engine.
    Greedy,
}

/// Entropy-coding mode, selected per request in the real hardware's CRB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuffmanMode {
    /// Per-block dynamic Huffman tables built in hardware ("DHT").
    Dynamic,
    /// RFC 1951 fixed tables ("FHT") — lower latency, weaker ratio.
    Fixed,
    /// Preloaded "canned" tables supplied with the request: per block the
    /// engine picks the cheapest of the loaded profiles — most of the
    /// dynamic ratio at none of the table-generation latency.
    Canned,
}

/// Decompressor datapath parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecompConfig {
    /// Huffman symbols resolved per cycle.
    pub symbols_per_cycle: u64,
    /// History-copy datapath width in bytes (one match copies
    /// `ceil(len/width)` cycles).
    pub copy_bytes_per_cycle: u64,
    /// Header/code-length stream parse rate in bits per cycle.
    pub header_bits_per_cycle: u64,
    /// Cycles to expand a dynamic block's code lengths into the internal
    /// decode tables.
    pub table_load_cycles: u64,
}

/// Full accelerator configuration.
///
/// Construct with [`AccelConfig::power9`] / [`AccelConfig::z15`] and adjust
/// fields for ablations (experiment E12).
#[derive(Debug, Clone, PartialEq)]
pub struct AccelConfig {
    /// Display name used in reports.
    pub name: &'static str,
    /// Nest/accelerator clock in GHz.
    pub freq_ghz: f64,
    /// Input bytes ingested (and hashed) per cycle — the headline width.
    pub lanes: usize,
    /// History window in bytes (≤ 32768, the DEFLATE bound).
    pub history_bytes: usize,
    /// log2 of hash-table sets.
    pub hash_bits: u32,
    /// Candidate positions stored per set (associativity).
    pub hash_ways: usize,
    /// Number of independently-ported hash banks; lanes hitting the same
    /// bank beyond its read ports in one cycle cost stall cycles.
    pub hash_banks: usize,
    /// Same-cycle read accesses one bank sustains without stalling.
    pub bank_read_ports: u32,
    /// Maximum bytes a comparator examines per candidate per cycle; longer
    /// matches extend across cycles (no throughput cost — they ride the
    /// ingest stream — but bounded by DEFLATE's 258 anyway).
    pub compare_width: usize,
    /// Cover-selection policy.
    pub resolution: Resolution,
    /// Entropy-coding mode.
    pub huffman: HuffmanMode,
    /// Input bytes per DEFLATE block (symbol-buffer capacity in input
    /// terms).
    pub block_bytes: usize,
    /// Tokens the encode pass consumes per cycle when draining the symbol
    /// buffer.
    pub encode_tokens_per_cycle: u64,
    /// Output-side packer width in bytes per cycle.
    pub out_bytes_per_cycle: u64,
    /// Cycles to build one dynamic-Huffman table pair (sort + package-merge
    /// network + canonicalization), the paper's "DHT gen" cost.
    pub table_build_cycles: u64,
    /// Cycles to select among preloaded canned tables (parallel cost
    /// estimators over the block histogram).
    pub canned_select_cycles: u64,
    /// Fixed per-request pipeline fill/drain overhead in cycles.
    pub request_overhead_cycles: u64,
    /// Decompressor parameters.
    pub decomp: DecompConfig,
}

impl AccelConfig {
    /// The POWER9 NX gzip engine class: 8 bytes/cycle at a 2 GHz nest
    /// clock ≈ 16 GB/s peak compression ingest.
    pub fn power9() -> Self {
        Self {
            name: "POWER9-NX",
            freq_ghz: 2.0,
            lanes: 8,
            history_bytes: 32 * 1024,
            hash_bits: 12,
            hash_ways: 4,
            hash_banks: 16,
            bank_read_ports: 2,
            compare_width: 16,
            resolution: Resolution::Speculative,
            huffman: HuffmanMode::Dynamic,
            block_bytes: 64 * 1024,
            encode_tokens_per_cycle: 4,
            out_bytes_per_cycle: 16,
            table_build_cycles: 700,
            canned_select_cycles: 32,
            request_overhead_cycles: 400,
            decomp: DecompConfig {
                symbols_per_cycle: 1,
                copy_bytes_per_cycle: 32,
                header_bits_per_cycle: 16,
                table_load_cycles: 128,
            },
        }
    }

    /// The z15 zEDC engine class: the paper states z15 doubles the POWER9
    /// compression rate — 16 lanes at the same class of clock.
    pub fn z15() -> Self {
        Self {
            name: "z15-zEDC",
            freq_ghz: 2.0,
            lanes: 16,
            hash_bits: 13,
            hash_ways: 4,
            hash_banks: 32,
            // The doubled lane count needs proportionally more same-cycle
            // hash lookups; the newer node provisions 4-ported banks.
            bank_read_ports: 4,
            encode_tokens_per_cycle: 8,
            out_bytes_per_cycle: 32,
            decomp: DecompConfig {
                symbols_per_cycle: 2,
                copy_bytes_per_cycle: 64,
                header_bits_per_cycle: 32,
                table_load_cycles: 128,
            },
            ..Self::power9()
        }
        .named("z15-zEDC")
    }

    fn named(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Peak compression ingest rate in GB/s (lanes × clock).
    pub fn peak_compress_gbps(&self) -> f64 {
        self.lanes as f64 * self.freq_ghz
    }

    /// Validates the invariants the model relies on.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (zero lanes, window beyond
    /// the DEFLATE bound, zero-sized structures, or a shape the hash table
    /// and lane scratch cannot represent).
    pub fn validate(&self) {
        assert!(self.lanes > 0, "lanes must be positive");
        assert!(self.lanes <= MAX_LANES, "lanes beyond the lane scratch");
        assert!(
            self.history_bytes > 0 && self.history_bytes <= 32 * 1024,
            "history must be within DEFLATE's 32 KB window"
        );
        assert!(
            self.history_bytes.is_power_of_two(),
            "history must be a power of two"
        );
        assert!(self.hash_ways > 0 && self.hash_banks > 0);
        assert!(
            self.hash_ways <= crate::hashbank::ROW,
            "hash_ways beyond the bank row"
        );
        assert!(self.bank_read_ports > 0);
        assert!(self.hash_bits >= 4 && self.hash_bits <= 20);
        assert!(
            self.hash_banks <= 1 << self.hash_bits,
            "more hash banks than sets"
        );
        assert!(self.block_bytes >= 1024, "blocks must hold at least 1 KB");
        assert!(self.encode_tokens_per_cycle > 0 && self.out_bytes_per_cycle > 0);
        assert!(self.compare_width >= 3);
        assert!(self.freq_ghz > 0.0);
        assert!(self.decomp.symbols_per_cycle > 0);
        assert!(self.decomp.copy_bytes_per_cycle > 0);
        assert!(self.decomp.header_bits_per_cycle > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        AccelConfig::power9().validate();
        AccelConfig::z15().validate();
    }

    #[test]
    fn z15_doubles_power9_width() {
        let p9 = AccelConfig::power9();
        let z15 = AccelConfig::z15();
        assert_eq!(z15.lanes, 2 * p9.lanes);
        assert_eq!(z15.peak_compress_gbps(), 2.0 * p9.peak_compress_gbps());
        assert_eq!(z15.name, "z15-zEDC");
    }

    #[test]
    fn power9_peak_matches_paper_class() {
        // 8 B/cycle × 2 GHz = 16 GB/s class ingest.
        assert!((AccelConfig::power9().peak_compress_gbps() - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "32 KB window")]
    fn oversized_history_rejected() {
        let mut cfg = AccelConfig::power9();
        cfg.history_bytes = 64 * 1024;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "bank row")]
    fn ways_beyond_the_row_rejected() {
        // A set's ways sit in one fixed-width row.
        let mut cfg = AccelConfig::power9();
        cfg.hash_ways = crate::hashbank::ROW + 1;
        cfg.validate();
    }

    #[test]
    fn e12_associativities_validate() {
        for hash_ways in [1, 2, 8] {
            let cfg = AccelConfig {
                hash_ways,
                ..AccelConfig::power9()
            };
            cfg.validate();
        }
    }

    #[test]
    #[should_panic(expected = "lane scratch")]
    fn lanes_beyond_the_scratch_rejected() {
        let mut cfg = AccelConfig::power9();
        cfg.lanes = MAX_LANES + 1;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "banks than sets")]
    fn more_banks_than_sets_rejected() {
        let mut cfg = AccelConfig::power9();
        cfg.hash_bits = 4;
        cfg.hash_banks = 32;
        cfg.validate();
    }

    #[test]
    fn widest_representable_shape_validates() {
        let mut cfg = AccelConfig::power9();
        cfg.lanes = MAX_LANES;
        cfg.hash_ways = crate::hashbank::ROW;
        cfg.hash_banks = 1 << cfg.hash_bits;
        cfg.validate();
    }
}
