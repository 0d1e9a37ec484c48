//! The hardware entropy-coding back end: symbol buffering, frequency
//! counting, dynamic-table generation and the encode pass.
//!
//! During ingest, tokens stream into an on-chip **symbol buffer** while
//! frequency counters accumulate the literal/length and distance
//! histograms (that pass is free — it overlaps the match engine). When the
//! buffer reaches one block's worth of input, the **table builder**
//! produces canonical length-limited codes (the paper's "DHT generation"
//! cost, `table_build_cycles`), and the **encode pass** drains the buffer
//! through the bit packer while the next block's tokens stream into the
//! other half of the double-buffered symbol store. [`BlockCost`] captures
//! both stage times so the pipeline model can compute the true makespan.
//!
//! Serialization reuses `nx-deflate`'s bit-exact block emitters, so the
//! produced stream is plain RFC 1951.

use crate::canned::CannedSet;
use crate::config::{AccelConfig, HuffmanMode};
use nx_deflate::bitio::BitWriter;
use nx_deflate::encoder::{encode_fixed_block, encode_stored, fixed_block_bits, DynamicPlan};
use nx_deflate::lz77::{Histogram, Token};

/// Per-block cost record for the pipeline makespan computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCost {
    /// Input bytes covered by this block.
    pub input_bytes: u64,
    /// Tokens in this block.
    pub tokens: u64,
    /// Stage-1 time: ingest cycles attributable to this block.
    pub ingest_cycles: u64,
    /// Stage-2 time: table build + encode-pass cycles.
    pub build_encode_cycles: u64,
    /// Output bits the block serialized to.
    pub output_bits: u64,
}

/// Result of entropy-coding a token stream.
#[derive(Debug, Clone)]
pub struct EncodeOutcome {
    /// The raw DEFLATE stream.
    pub stream: Vec<u8>,
    /// Per-block costs, in emission order.
    pub blocks: Vec<BlockCost>,
    /// Blocks that fell back to stored form (incompressible content).
    pub stored_blocks: u64,
}

/// [`HuffmanMode`] with what the mode works from: canned mode *is* its
/// (never empty) table set, so no block can find the mode without tables.
#[derive(Debug)]
enum Mode {
    Fixed,
    Dynamic,
    Canned(Box<CannedSet>),
}

/// The entropy-coding unit.
#[derive(Debug)]
pub struct BlockEncoder {
    cfg: AccelConfig,
    mode: Mode,
}

impl BlockEncoder {
    /// Creates an encoder for `cfg`. In canned mode the standard profile
    /// set is preloaded; use [`with_canned`](Self::with_canned) for
    /// application-specific tables.
    pub fn new(cfg: AccelConfig) -> Self {
        let mode = match cfg.huffman {
            HuffmanMode::Fixed => Mode::Fixed,
            HuffmanMode::Dynamic => Mode::Dynamic,
            HuffmanMode::Canned => Mode::Canned(Box::default()),
        };
        Self { cfg, mode }
    }

    /// Creates a canned-mode encoder with an explicit table set.
    pub fn with_canned(mut cfg: AccelConfig, set: CannedSet) -> Self {
        cfg.huffman = HuffmanMode::Canned;
        let mode = Mode::Canned(Box::new(set));
        Self { cfg, mode }
    }

    /// Encodes `tokens` (an exact cover of `data`) into a complete DEFLATE
    /// stream, splitting blocks at the configured symbol-buffer capacity.
    pub fn encode(&self, data: &[u8], tokens: &[Token]) -> EncodeOutcome {
        let mut w = BitWriter::with_capacity(data.len() / 2 + 64);
        let (blocks, stored_blocks) = self.encode_into(&mut w, data, tokens, true);
        EncodeOutcome {
            stream: w.finish(),
            blocks,
            stored_blocks,
        }
    }

    /// Streaming form: appends this chunk's blocks to `w` without padding
    /// (the bit stream continues across chunks); flags the last block
    /// final only when `close` is set. Returns the per-block costs and the
    /// stored-fallback count.
    pub fn encode_into(
        &self,
        w: &mut BitWriter,
        data: &[u8],
        tokens: &[Token],
        close: bool,
    ) -> (Vec<BlockCost>, u64) {
        let mut blocks = Vec::new();
        let mut stored_blocks = 0u64;

        if tokens.is_empty() {
            if close {
                // Empty request: one empty block terminates the stream.
                let before = w.bit_len();
                encode_fixed_block(w, &[], true);
                blocks.push(BlockCost {
                    input_bytes: 0,
                    tokens: 0,
                    ingest_cycles: 0,
                    build_encode_cycles: self.encode_cycles(0, w.bit_len() - before),
                    output_bits: w.bit_len() - before,
                });
            }
            return (blocks, stored_blocks);
        }

        // Split the token stream into blocks of ≤ block_bytes input span,
        // counting each block's symbols as its tokens stream in.
        let mut start_tok = 0usize;
        let mut byte_pos = 0usize;
        while start_tok < tokens.len() {
            let mut end_tok = start_tok;
            let mut span = 0usize;
            let mut hist = Histogram::new();
            while end_tok < tokens.len() && span < self.cfg.block_bytes {
                span += tokens[end_tok].input_len();
                hist.record(tokens[end_tok]);
                end_tok += 1;
            }
            hist.record_end_of_block();
            let is_final = close && end_tok == tokens.len();
            let block_tokens = &tokens[start_tok..end_tok];
            let block_bytes = &data[byte_pos..byte_pos + span];
            let before = w.bit_len();
            let (build, stored) = self.emit_block(w, block_bytes, block_tokens, &hist, is_final);
            if stored {
                stored_blocks += 1;
            }
            let output_bits = w.bit_len() - before;
            blocks.push(BlockCost {
                input_bytes: span as u64,
                tokens: block_tokens.len() as u64,
                ingest_cycles: (span as u64).div_ceil(self.cfg.lanes as u64),
                build_encode_cycles: build
                    + self.encode_cycles(block_tokens.len() as u64, output_bits),
                output_bits,
            });
            start_tok = end_tok;
            byte_pos += span;
        }
        (blocks, stored_blocks)
    }

    /// Emits one block in the configured mode, with a stored-block
    /// fallback when entropy coding would expand the data (the NX library
    /// stack makes the same per-request decision for incompressible
    /// inputs). Returns `(table_build_cycles, used_stored)`.
    fn emit_block(
        &self,
        w: &mut BitWriter,
        bytes: &[u8],
        tokens: &[Token],
        hist: &Histogram,
        is_final: bool,
    ) -> (u64, bool) {
        let stored_bits = 7 + 40 * (bytes.len() as u64 / 65_535 + 1) + bytes.len() as u64 * 8;

        match &self.mode {
            Mode::Fixed => {
                let fixed_bits = fixed_block_bits(hist);
                if stored_bits < fixed_bits {
                    encode_stored(w, bytes, is_final);
                    (0, true)
                } else {
                    encode_fixed_block(w, tokens, is_final);
                    (0, false)
                }
            }
            Mode::Dynamic => {
                let plan = DynamicPlan::from_histogram(hist);
                let dyn_bits = plan.header_bits() + plan.body_bits(hist);
                if stored_bits < dyn_bits {
                    encode_stored(w, bytes, is_final);
                    // The table was still built before the decision.
                    (self.cfg.table_build_cycles, true)
                } else {
                    plan.write_header(w, is_final);
                    plan.write_body(w, tokens);
                    (self.cfg.table_build_cycles, false)
                }
            }
            Mode::Canned(set) => {
                let (table, canned_bits) = set.select(hist);
                if stored_bits < canned_bits {
                    encode_stored(w, bytes, is_final);
                    (self.cfg.canned_select_cycles, true)
                } else {
                    table.plan().write_header(w, is_final);
                    table.plan().write_body(w, tokens);
                    (self.cfg.canned_select_cycles, false)
                }
            }
        }
    }

    /// Encode-pass cycles: token drain rate and output packer width, whichever
    /// binds.
    fn encode_cycles(&self, tokens: u64, output_bits: u64) -> u64 {
        let token_cycles = tokens.div_ceil(self.cfg.encode_tokens_per_cycle);
        let out_cycles = (output_bits / 8).div_ceil(self.cfg.out_bytes_per_cycle);
        token_cycles.max(out_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::MatchEngine;
    use nx_deflate::inflate;

    fn roundtrip(cfg: AccelConfig, data: &[u8]) -> EncodeOutcome {
        let tokens = MatchEngine::new(cfg.clone()).tokenize(data).tokens;
        let out = BlockEncoder::new(cfg).encode(data, &tokens);
        assert_eq!(
            inflate(&out.stream).unwrap(),
            data,
            "bit-exactness violated"
        );
        out
    }

    #[test]
    fn empty_input_yields_valid_stream() {
        let out = roundtrip(AccelConfig::power9(), b"");
        assert_eq!(out.blocks.len(), 1);
        assert_eq!(out.blocks[0].input_bytes, 0);
    }

    #[test]
    fn dynamic_and_fixed_modes_roundtrip() {
        let data: Vec<u8> = b"entropy coding back end test data, test data, data. ".repeat(200);
        let dynamic = roundtrip(AccelConfig::power9(), &data);
        let mut fixed_cfg = AccelConfig::power9();
        fixed_cfg.huffman = HuffmanMode::Fixed;
        let fixed = roundtrip(fixed_cfg, &data);
        // Dynamic must win on ratio for skewed text.
        let dyn_bits: u64 = dynamic.blocks.iter().map(|b| b.output_bits).sum();
        let fix_bits: u64 = fixed.blocks.iter().map(|b| b.output_bits).sum();
        assert!(
            dyn_bits < fix_bits,
            "dynamic {dyn_bits} !< fixed {fix_bits}"
        );
        // But fixed mode has no table-build latency.
        assert!(
            fixed.blocks[0].build_encode_cycles < dynamic.blocks[0].build_encode_cycles,
            "fixed mode should be lower latency"
        );
    }

    #[test]
    fn blocks_split_at_capacity() {
        let mut cfg = AccelConfig::power9();
        cfg.block_bytes = 4096;
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let out = roundtrip(cfg, &data);
        assert!(out.blocks.len() >= 4, "{} blocks", out.blocks.len());
        let total: u64 = out.blocks.iter().map(|b| b.input_bytes).sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn canned_mode_sits_between_fixed_and_dynamic() {
        let data: Vec<u8> = (0..3000u32)
            .flat_map(|i| {
                format!(
                    "{{\"k\": {}, \"v\": \"item-{}\"}},\n",
                    i % 977,
                    i * 37 % 10007
                )
                .into_bytes()
            })
            .collect();
        let out_of = |huffman: crate::config::HuffmanMode| {
            let mut cfg = AccelConfig::power9();
            cfg.huffman = huffman;
            roundtrip(cfg, &data)
        };
        let dynamic = out_of(HuffmanMode::Dynamic);
        let canned = out_of(HuffmanMode::Canned);
        let fixed = out_of(HuffmanMode::Fixed);
        let bits = |o: &EncodeOutcome| o.blocks.iter().map(|b| b.output_bits).sum::<u64>();
        assert!(
            bits(&dynamic) <= bits(&canned),
            "dynamic must be the ratio ceiling"
        );
        assert!(
            bits(&canned) < bits(&fixed),
            "canned must beat fixed on structured data"
        );
        // Latency: canned pays selection, not generation.
        assert!(
            canned.blocks[0].build_encode_cycles < dynamic.blocks[0].build_encode_cycles,
            "canned must be lower latency than dynamic"
        );
    }

    #[test]
    fn custom_canned_set_roundtrips() {
        let sample = b"sensor=1;temp=23.5;state=ok;".repeat(300);
        let set = crate::canned::CannedSet::from_samples(("sensor", &sample), &[]);
        let enc = BlockEncoder::with_canned(AccelConfig::power9(), set);
        let data = b"sensor=9;temp=19.1;state=ok;".repeat(500);
        let tokens = MatchEngine::new(AccelConfig::power9())
            .tokenize(&data)
            .tokens;
        let out = enc.encode(&data, &tokens);
        assert_eq!(inflate(&out.stream).unwrap(), data);
    }

    #[test]
    fn incompressible_data_uses_stored_fallback() {
        let mut x = 0x853c49e6748fea9bu64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let out = roundtrip(AccelConfig::power9(), &data);
        assert!(out.stored_blocks > 0, "stored fallback never triggered");
        assert!(out.stream.len() < data.len() + data.len() / 50 + 64);
    }

    #[test]
    fn block_costs_are_positive_and_consistent() {
        let data: Vec<u8> = b"cost accounting ".repeat(1000);
        let out = roundtrip(AccelConfig::power9(), &data);
        for b in &out.blocks {
            assert!(b.build_encode_cycles > 0);
            assert!(b.output_bits > 0);
            assert!(b.tokens > 0);
        }
    }
}
