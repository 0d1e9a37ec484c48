//! Cycle and byte accounting for the accelerator model.

/// Report from one compression request.
#[derive(Debug, Clone)]
pub struct CompressReport {
    /// Configuration name the request ran under.
    pub config_name: &'static str,
    /// Clock the cycle counts are relative to, in GHz.
    pub freq_ghz: f64,
    /// Uncompressed input size.
    pub input_bytes: u64,
    /// Compressed output size.
    pub output_bytes: u64,
    /// Total request cycles (pipeline makespan + overheads).
    pub cycles: u64,
    /// Ingest-stage cycles (`ceil(n / lanes)`).
    pub ingest_cycles: u64,
    /// Hash-bank conflict stalls.
    pub bank_stall_cycles: u64,
    /// Cycles where the Huffman stage extended the makespan beyond ingest.
    pub huffman_tail_cycles: u64,
    /// Fixed per-request overhead cycles.
    pub overhead_cycles: u64,
    /// DEFLATE blocks emitted.
    pub blocks: u64,
    /// Blocks that fell back to stored form.
    pub stored_blocks: u64,
    /// LZ77 tokens produced.
    pub tokens: u64,
    /// Matches found but discarded by the resolver (speculation waste).
    pub discarded_matches: u64,
}

impl CompressReport {
    /// The report of a request the host CPU served instead of the
    /// engine: sizes only, every cycle and pipeline counter zero.
    pub fn software(
        config_name: &'static str,
        freq_ghz: f64,
        input_bytes: u64,
        output_bytes: u64,
    ) -> Self {
        Self {
            config_name,
            freq_ghz,
            input_bytes,
            output_bytes,
            cycles: 0,
            ingest_cycles: 0,
            bank_stall_cycles: 0,
            huffman_tail_cycles: 0,
            overhead_cycles: 0,
            blocks: 0,
            stored_blocks: 0,
            tokens: 0,
            discarded_matches: 0,
        }
    }

    /// Compression ratio (input/output); ∞-safe (returns 0 for empty
    /// input).
    pub fn ratio(&self) -> f64 {
        if self.output_bytes == 0 {
            return 0.0;
        }
        self.input_bytes as f64 / self.output_bytes as f64
    }

    /// Input bytes processed per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.input_bytes as f64 / self.cycles as f64
    }

    /// Input-side throughput in GB/s at the configured clock.
    pub fn throughput_gbps(&self) -> f64 {
        self.bytes_per_cycle() * self.freq_ghz
    }

    /// Request latency in seconds at the configured clock.
    pub fn latency_secs(&self) -> f64 {
        self.cycles as f64 / (self.freq_ghz * 1e9)
    }
}

/// Report from one decompression request.
#[derive(Debug, Clone)]
pub struct DecompressReport {
    /// Configuration name the request ran under.
    pub config_name: &'static str,
    /// Clock the cycle counts are relative to, in GHz.
    pub freq_ghz: f64,
    /// Compressed input size.
    pub input_bytes: u64,
    /// Decompressed output size.
    pub output_bytes: u64,
    /// Total request cycles.
    pub cycles: u64,
    /// Cycles parsing block headers and loading dynamic tables.
    pub header_cycles: u64,
    /// Cycles resolving symbols and copying history.
    pub body_cycles: u64,
    /// Fixed per-request overhead cycles.
    pub overhead_cycles: u64,
    /// Blocks decoded.
    pub blocks: u64,
    /// Symbols (tokens) decoded.
    pub symbols: u64,
}

impl DecompressReport {
    /// The decode-side twin of [`CompressReport::software`].
    pub fn software(
        config_name: &'static str,
        freq_ghz: f64,
        input_bytes: u64,
        output_bytes: u64,
    ) -> Self {
        Self {
            config_name,
            freq_ghz,
            input_bytes,
            output_bytes,
            cycles: 0,
            header_cycles: 0,
            body_cycles: 0,
            overhead_cycles: 0,
            blocks: 0,
            symbols: 0,
        }
    }

    /// Output bytes produced per cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.output_bytes as f64 / self.cycles as f64
    }

    /// Output-side throughput in GB/s at the configured clock.
    pub fn throughput_gbps(&self) -> f64 {
        self.bytes_per_cycle() * self.freq_ghz
    }

    /// Request latency in seconds at the configured clock.
    pub fn latency_secs(&self) -> f64 {
        self.cycles as f64 / (self.freq_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> CompressReport {
        CompressReport {
            config_name: "test",
            freq_ghz: 2.0,
            input_bytes: 16_000,
            output_bytes: 4_000,
            cycles: 2_000,
            ingest_cycles: 2_000,
            bank_stall_cycles: 0,
            huffman_tail_cycles: 0,
            overhead_cycles: 0,
            blocks: 1,
            stored_blocks: 0,
            tokens: 4_000,
            discarded_matches: 0,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert_eq!(r.ratio(), 4.0);
        assert_eq!(r.bytes_per_cycle(), 8.0);
        assert_eq!(r.throughput_gbps(), 16.0);
        assert!((r.latency_secs() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn zero_division_is_safe() {
        let mut r = report();
        r.output_bytes = 0;
        r.cycles = 0;
        assert_eq!(r.ratio(), 0.0);
        assert_eq!(r.bytes_per_cycle(), 0.0);
    }
}
