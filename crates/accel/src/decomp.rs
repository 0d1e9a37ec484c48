//! The decompressor cycle model.
//!
//! Huffman decoding is serial by nature — each symbol's length is known
//! only after it is decoded — so the hardware resolves a fixed number of
//! symbols per cycle through wide table lookups, and recovers byte rate on
//! the *output* side: one match symbol can expand to up to 258 bytes,
//! moved through a wide history-copy datapath. Consequently decompression
//! throughput rises with the compression ratio of the input — a shape E2
//! reproduces.
//!
//! Functionally the model simply inflates the stream, on the software
//! decoder's fast loop, and prices what that decoder *counted* as it ran
//! ([`nx_deflate::inflate_traced_into`]): a block costs its header parse at
//! `header_bits_per_cycle`, a dynamic-table load and one cycle per
//! `symbols_per_cycle` literals and matches; a match of `len` bytes costs
//! `⌈len / copy_bytes_per_cycle⌉ − 1` copy cycles more. That term depends
//! on the length alone, so summing it over the stream's match-length
//! histogram is the same integer arithmetic as walking a token list — one
//! is never built, and no engine parameter crosses into `nx-deflate`.

use crate::config::AccelConfig;
use crate::metrics::DecompressReport;
use nx_deflate::{InflateScratch, Result};

/// The decompression engine.
#[derive(Debug)]
pub struct Decompressor {
    cfg: AccelConfig,
}

impl Decompressor {
    /// Creates a decompressor for `cfg`.
    pub fn new(cfg: AccelConfig) -> Self {
        Self { cfg }
    }

    /// Decompresses a raw DEFLATE stream, returning output and the cycle
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates [`nx_deflate::Error`] for malformed streams.
    pub fn decompress(&self, stream: &[u8]) -> Result<(Vec<u8>, DecompressReport)> {
        let (mut scratch, mut out) = (InflateScratch::new(), Vec::new());
        let (report, _) = self.decompress_into(stream, 0, &mut scratch, &mut out)?;
        Ok((out, report))
    }

    /// As [`decompress`](Self::decompress), into `out` (cleared; reserved
    /// once for `size_hint` decoded bytes, 0 = unknown) on the caller's
    /// `scratch`. Also returns how many bytes of `stream` were consumed.
    pub fn decompress_into(
        &self,
        stream: &[u8],
        size_hint: usize,
        scratch: &mut InflateScratch,
        out: &mut Vec<u8>,
    ) -> Result<(DecompressReport, usize)> {
        let trace = nx_deflate::inflate_traced_into(stream, size_hint, scratch, out)?;
        let d = &self.cfg.decomp;
        let (mut header_cycles, mut body_cycles, mut symbols) = (0u64, 0u64, 0u64);
        for block in &trace.blocks {
            header_cycles += block.header_bits.div_ceil(d.header_bits_per_cycle);
            if block.btype == 2 {
                header_cycles += d.table_load_cycles;
            }
            let block_symbols = block.literals + block.matches;
            symbols += block_symbols;
            body_cycles += match block.btype {
                // Stored blocks stream through the copy datapath.
                0 => block.output_bytes.div_ceil(d.copy_bytes_per_cycle),
                _ => block_symbols.div_ceil(d.symbols_per_cycle),
            };
        }
        for (len, &n) in trace.match_lens.iter().enumerate() {
            let copy_cycles = (len as u64).div_ceil(d.copy_bytes_per_cycle);
            body_cycles += n * copy_cycles.saturating_sub(1);
        }
        let report = DecompressReport {
            config_name: self.cfg.name,
            freq_ghz: self.cfg.freq_ghz,
            input_bytes: stream.len() as u64,
            output_bytes: out.len() as u64,
            cycles: header_cycles + body_cycles + self.cfg.request_overhead_cycles,
            header_cycles,
            body_cycles,
            overhead_cycles: self.cfg.request_overhead_cycles,
            blocks: trace.blocks.len() as u64,
            symbols,
        };
        Ok((report, trace.consumed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nx_deflate::{deflate, CompressionLevel};

    fn decomp() -> Decompressor {
        Decompressor::new(AccelConfig::power9())
    }

    #[test]
    fn report_components_sum() {
        let data: Vec<u8> = b"decompressor pricing test ".repeat(400);
        let stream = deflate(&data, CompressionLevel::default());
        let (out, r) = decomp().decompress(&stream).unwrap();
        assert_eq!(out, data);
        assert_eq!(
            r.cycles,
            r.header_cycles + r.body_cycles + r.overhead_cycles
        );
        assert_eq!(r.output_bytes, data.len() as u64);
    }

    #[test]
    fn compressible_data_decompresses_faster_per_byte() {
        // Highly compressible: few symbols expand to many bytes.
        let redundant = vec![b'x'; 1 << 20];
        let stream_r = deflate(&redundant, CompressionLevel::default());
        let (_, rr) = decomp().decompress(&stream_r).unwrap();

        // Low-ratio data that still entropy-codes (6-bit symbols): the
        // stream is literal-heavy Huffman blocks, not stored blocks, so
        // the 1-symbol/cycle decoder is the bottleneck.
        let mut x = 6364136223846793005u64;
        let noisy: Vec<u8> = (0..(1 << 20))
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((x >> 33) & 0x3F) as u8
            })
            .collect();
        let stream_n = deflate(&noisy, CompressionLevel::default());
        let (_, rn) = decomp().decompress(&stream_n).unwrap();
        assert!(rn.symbols > 0, "noisy workload unexpectedly stored");

        assert!(
            rr.bytes_per_cycle() > 4.0 * rn.bytes_per_cycle(),
            "redundant {:.2} B/c vs noisy {:.2} B/c",
            rr.bytes_per_cycle(),
            rn.bytes_per_cycle()
        );
    }

    #[test]
    fn malformed_stream_is_an_error() {
        assert!(decomp().decompress(&[0xFF, 0xEE, 0xDD]).is_err());
    }

    #[test]
    fn z15_decompresses_faster_than_power9() {
        let data: Vec<u8> = b"generation comparison payload ".repeat(2000);
        let stream = deflate(&data, CompressionLevel::default());
        let (_, p9) = Decompressor::new(AccelConfig::power9())
            .decompress(&stream)
            .unwrap();
        let (_, z15) = Decompressor::new(AccelConfig::z15())
            .decompress(&stream)
            .unwrap();
        assert!(z15.cycles < p9.cycles);
    }

    #[test]
    fn stored_blocks_priced_by_copy_width() {
        let data = vec![0xA5u8; 100_000];
        // Level 0 → stored blocks only.
        let stream = deflate(&data, CompressionLevel::new(0).unwrap());
        let (out, r) = decomp().decompress(&stream).unwrap();
        assert_eq!(out, data);
        let d = AccelConfig::power9().decomp;
        assert!(r.body_cycles >= 100_000u64.div_ceil(d.copy_bytes_per_cycle));
        assert_eq!(r.symbols, 0);
    }
}
